// GraphDelta / Graph::Apply: copy-on-write snapshot semantics and the
// GraphBuilder validation rules on the mutation path (DESIGN.md §11).
#include "graph/delta.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/datasets.h"

namespace cfcm {
namespace {

// Byte-level equality of the CSR arrays — the same predicate the
// serving fingerprint hashes over.
void ExpectSameBits(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.raw_neighbors(), b.raw_neighbors());
  EXPECT_EQ(a.raw_weights(), b.raw_weights());
}

TEST(GraphDeltaTest, AddEdgeProducesNewSnapshotAndLeavesBaseUntouched) {
  const Graph base = BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  GraphDelta delta;
  delta.AddEdge(0, 3);
  StatusOr<Graph> next = base.Apply(delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->num_edges(), 4);
  EXPECT_TRUE(next->HasEdge(0, 3));
  EXPECT_TRUE(next->is_unit_weighted());  // all-1.0 weights degrade
  // Copy-on-write: the base graph still has its original edge set.
  EXPECT_EQ(base.num_edges(), 3);
  EXPECT_FALSE(base.HasEdge(0, 3));
}

TEST(GraphDeltaTest, RemoveMissingEdgeIsNotFound) {
  const Graph base = BuildGraph(3, {{0, 1}, {1, 2}});
  GraphDelta delta;
  delta.RemoveEdge(0, 2);
  StatusOr<Graph> next = base.Apply(delta);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);

  // Removing the same edge twice in one delta: the second removal sees
  // a missing edge.
  GraphDelta twice;
  twice.RemoveEdge(0, 1);
  twice.RemoveEdge(0, 1);
  EXPECT_EQ(base.Apply(twice).status().code(), StatusCode::kNotFound);
}

TEST(GraphDeltaTest, ReweightValidationCorners) {
  const Graph base = BuildWeightedGraph(3, {{0, 1, 2.0}, {1, 2, 0.5}});

  GraphDelta missing;
  missing.ReweightEdge(0, 2, 1.0);
  EXPECT_EQ(base.Apply(missing).status().code(), StatusCode::kNotFound);

  for (double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    GraphDelta delta;
    delta.ReweightEdge(0, 1, bad);
    StatusOr<Graph> next = base.Apply(delta);
    ASSERT_FALSE(next.ok()) << "weight " << bad;
    EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  }

  GraphDelta good;
  good.ReweightEdge(0, 1, 4.0);
  StatusOr<Graph> next = base.Apply(good);
  ASSERT_TRUE(next.ok());
  EXPECT_DOUBLE_EQ(next->EdgeWeight(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(next->EdgeWeight(1, 2), 0.5);  // untouched edge kept
}

TEST(GraphDeltaTest, AddWeightValidation) {
  const Graph base = BuildGraph(3, {{0, 1}, {1, 2}});
  for (double bad : {0.0, -2.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    GraphDelta delta;
    delta.AddEdge(0, 2, bad);
    StatusOr<Graph> next = base.Apply(delta);
    ASSERT_FALSE(next.ok()) << "weight " << bad;
    EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GraphDeltaTest, DuplicateAddsSumConductances) {
  const Graph base = BuildWeightedGraph(3, {{0, 1, 2.0}, {1, 2, 1.0}});
  GraphDelta delta;
  delta.AddEdge(0, 2, 0.5);
  delta.AddEdge(2, 0, 0.25);  // same undirected edge, reversed endpoints
  delta.AddEdge(0, 1, 3.0);   // merges into the existing conductance
  StatusOr<Graph> next = base.Apply(delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_DOUBLE_EQ(next->EdgeWeight(0, 2), 0.75);
  EXPECT_DOUBLE_EQ(next->EdgeWeight(0, 1), 5.0);
  EXPECT_EQ(next->num_edges(), 3);
}

TEST(GraphDeltaTest, AllOnesResultDegradesToUnitWeighted) {
  const Graph base = BuildWeightedGraph(3, {{0, 1, 2.0}, {1, 2, 1.0}});
  ASSERT_FALSE(base.is_unit_weighted());
  GraphDelta delta;
  delta.ReweightEdge(0, 1, 1.0);
  StatusOr<Graph> next = base.Apply(delta);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->is_unit_weighted());
  ExpectSameBits(*next, BuildGraph(3, {{0, 1}, {1, 2}}));
}

// Each added conductance is finite, but their sum need not be: an
// overflowing sum must be rejected like any other infinite conductance,
// never installed in the snapshot.
TEST(GraphDeltaTest, SummedConductanceOverflowIsRejected) {
  const Graph base = BuildGraph(3, {{0, 1}, {1, 2}});
  const std::string expected =
      "edge conductances must be positive and finite, got inf";

  GraphDelta two_adds;
  two_adds.AddEdge(0, 2, 1e308);
  two_adds.AddEdge(2, 0, 1e308);
  StatusOr<Graph> next = base.Apply(two_adds);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(next.status().message(), expected);

  GraphDelta reweight_then_add;
  reweight_then_add.ReweightEdge(0, 1, 1e308);
  reweight_then_add.AddEdge(1, 0, 1e308);
  next = base.Apply(reweight_then_add);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(next.status().message(), expected);
}

TEST(GraphDeltaTest, AddNodesAppendsIsolatedIds) {
  const Graph base = BuildGraph(3, {{0, 1}, {1, 2}});
  GraphDelta delta;
  delta.AddNodes(2);
  delta.AddEdge(2, 3);
  delta.AddEdge(3, 4);
  StatusOr<Graph> next = base.Apply(delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->num_nodes(), 5);
  EXPECT_EQ(next->num_edges(), 4);
  EXPECT_EQ(next->degree(4), 1);
}

TEST(GraphDeltaTest, AddNodesOverflowIsRejected) {
  const Graph base = BuildGraph(3, {{0, 1}, {1, 2}});
  GraphDelta delta;
  delta.AddNodes(std::numeric_limits<NodeId>::max());  // 3 + max overflows
  StatusOr<Graph> next = base.Apply(delta);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kOutOfRange);

  // Repeated calls accumulate in 64 bits: they must reject cleanly,
  // not wrap int32 into a silent no-op delta.
  GraphDelta repeated;
  for (int i = 0; i < 4; ++i) repeated.AddNodes(NodeId{1} << 30);
  EXPECT_EQ(repeated.add_nodes(), int64_t{4} << 30);
  EXPECT_EQ(base.Apply(repeated).status().code(), StatusCode::kOutOfRange);

  // A negative count is an error even when later calls cancel it back
  // to a non-negative total.
  GraphDelta negative;
  negative.AddNodes(-5);
  negative.AddNodes(10);
  EXPECT_EQ(base.Apply(negative).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphDeltaTest, EndpointAndSelfLoopValidation) {
  const Graph base = BuildGraph(3, {{0, 1}, {1, 2}});

  GraphDelta beyond;
  beyond.AddEdge(0, 3);  // node 3 does not exist and was not added
  EXPECT_EQ(base.Apply(beyond).status().code(), StatusCode::kOutOfRange);

  GraphDelta negative;
  negative.AddEdge(-1, 2);
  EXPECT_EQ(base.Apply(negative).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta loop;
  loop.AddEdge(1, 1);
  EXPECT_EQ(base.Apply(loop).status().code(), StatusCode::kInvalidArgument);

  GraphDelta remove_beyond;
  remove_beyond.RemoveEdge(0, 7);
  EXPECT_EQ(base.Apply(remove_beyond).status().code(),
            StatusCode::kOutOfRange);
}

TEST(GraphDeltaTest, RemoveThenReAddInOneDeltaUsesTheNewWeight) {
  const Graph base = BuildWeightedGraph(3, {{0, 1, 2.0}, {1, 2, 1.0}});
  GraphDelta delta;
  delta.RemoveEdge(0, 1);
  delta.AddEdge(0, 1, 7.0);  // additions apply after removals
  StatusOr<Graph> next = base.Apply(delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_DOUBLE_EQ(next->EdgeWeight(0, 1), 7.0);
  EXPECT_EQ(next->num_edges(), 2);
}

TEST(GraphDeltaTest, EmptyDeltaRebuildsIdenticalBits) {
  const Graph base = KarateClub();
  StatusOr<Graph> next = base.Apply(GraphDelta{});
  ASSERT_TRUE(next.ok());
  ExpectSameBits(base, *next);
}

TEST(GraphDeltaTest, InverseRoundTripsBitForBitOnUnitGraph) {
  const Graph base = KarateClub();
  GraphDelta delta;
  delta.RemoveEdge(0, 1);
  delta.AddEdge(0, 9, 2.5);   // karate has no {0, 9} edge
  delta.AddEdge(2, 3, 1.0);   // existing edge: conductance 1 + 1 = 2
  StatusOr<GraphDelta> inverse = InverseOf(base, delta);
  ASSERT_TRUE(inverse.ok()) << inverse.status().ToString();

  StatusOr<Graph> mutated = base.Apply(delta);
  ASSERT_TRUE(mutated.ok());
  EXPECT_FALSE(mutated->is_unit_weighted());
  StatusOr<Graph> reverted = mutated->Apply(*inverse);
  ASSERT_TRUE(reverted.ok()) << reverted.status().ToString();
  EXPECT_TRUE(reverted->is_unit_weighted());
  ExpectSameBits(base, *reverted);
}

TEST(GraphDeltaTest, InverseRoundTripsBitForBitOnWeightedGraph) {
  const Graph base = KarateClubWeighted();
  GraphDelta delta;
  delta.RemoveEdge(0, 1);
  delta.ReweightEdge(2, 3, 0.125);
  delta.AddEdge(0, 9, 3.0);
  StatusOr<GraphDelta> inverse = InverseOf(base, delta);
  ASSERT_TRUE(inverse.ok()) << inverse.status().ToString();
  StatusOr<Graph> mutated = base.Apply(delta);
  ASSERT_TRUE(mutated.ok());
  StatusOr<Graph> reverted = mutated->Apply(*inverse);
  ASSERT_TRUE(reverted.ok());
  ExpectSameBits(base, *reverted);
}

TEST(GraphDeltaTest, InverseRejectsNodeAdditionsAndInapplicableDeltas) {
  const Graph base = BuildGraph(3, {{0, 1}, {1, 2}});
  GraphDelta grows;
  grows.AddNodes(1);
  EXPECT_EQ(InverseOf(base, grows).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta missing;
  missing.RemoveEdge(0, 2);
  EXPECT_EQ(InverseOf(base, missing).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cfcm
