// Versioned sessions (DESIGN.md §11): epoch bumps, snapshot-scoped
// cache invalidation (fingerprint / memory_bytes / degree order can
// never be stale), in-flight jobs pinned to the pre-mutation snapshot,
// and AugmentJob as a first-class engine job.
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/edge_addition.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "graph/datasets.h"
#include "graph/delta.h"

namespace cfcm::engine {
namespace {

GraphDelta RemoveEdge01() {
  GraphDelta delta;
  delta.RemoveEdge(0, 1);
  return delta;
}

GraphDelta AddEdge01() {
  GraphDelta delta;
  delta.AddEdge(0, 1);
  return delta;
}

TEST(DynamicSessionTest, MutateBumpsEpochAndSwapsSnapshot) {
  GraphSession session{KarateClub(), 1};
  EXPECT_EQ(session.epoch(), 0u);
  const uint64_t fp0 = session.fingerprint();
  const EdgeId m0 = session.num_edges();

  ASSERT_TRUE(session.Mutate(RemoveEdge01()).ok());
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.num_edges(), m0 - 1);
  EXPECT_NE(session.fingerprint(), fp0);

  ASSERT_TRUE(session.Mutate(AddEdge01()).ok());
  EXPECT_EQ(session.epoch(), 2u);
  EXPECT_EQ(session.num_edges(), m0);
  // The inverse mutation restores the exact bytes: same fingerprint.
  EXPECT_EQ(session.fingerprint(), fp0);
}

TEST(DynamicSessionTest, FailedMutateLeavesSessionUntouched) {
  GraphSession session{KarateClub(), 1};
  const uint64_t fp0 = session.fingerprint();
  GraphDelta bad;
  bad.RemoveEdge(0, 9);  // not an edge of karate
  EXPECT_EQ(session.Mutate(bad).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.epoch(), 0u);
  EXPECT_EQ(session.fingerprint(), fp0);
}

TEST(DynamicSessionTest, DerivedStateIsEpochKeyedNeverStale) {
  GraphSession session{BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}})};
  ASSERT_TRUE(session.is_connected());
  const std::size_t bytes0 = session.memory_bytes();
  EXPECT_EQ(session.degree_order()[0], 1);  // degree-2 node, smallest id
  EXPECT_EQ(session.laplacian().rows(), 4);

  GraphDelta grow;
  grow.AddNodes(2);
  grow.AddEdge(3, 4);
  grow.AddEdge(4, 5);
  grow.AddEdge(5, 0);  // cycle of 6
  ASSERT_TRUE(session.Mutate(grow).ok());

  // Every derived value reflects the new snapshot immediately.
  EXPECT_EQ(session.num_nodes(), 6);
  EXPECT_TRUE(session.is_connected());
  EXPECT_GT(session.memory_bytes(), bytes0);
  EXPECT_EQ(session.degree_order().size(), 6u);
  EXPECT_EQ(session.degree_order()[0], 0);  // all degree 2, smallest id
  EXPECT_EQ(session.laplacian().rows(), 6);

  // Disconnecting mutation: solvers must reject with the existing
  // not-connected error.
  GraphDelta cut;
  cut.RemoveEdge(0, 1);
  cut.RemoveEdge(1, 2);
  ASSERT_TRUE(session.Mutate(cut).ok());
  EXPECT_FALSE(session.is_connected());
}

// Mutate carries the parent's connectivity flag over the deltas that
// cannot change it — reweights, and edge adds on a connected graph —
// but only when the parent already holds it; every other delta leaves
// the flag to the lazy BFS. A carried flag must equal a fresh BFS.
TEST(DynamicSessionTest, ConnectivityCarriesOnlyOverDeltasThatKeepIt) {
  enum Kind { kReweight, kAddOnly, kChurn, kNodeAdd };
  int carried_connected = 0, carried_disconnected = 0;
  int add_only_on_disconnected = 0, bfs_left = 0;
  for (const bool start_connected : {true, false}) {
    GraphSession session{KarateClub(), 1};
    if (!start_connected) {
      GraphDelta isolated;
      isolated.AddNodes(3);
      ASSERT_TRUE(session.Mutate(isolated).ok());
    }
    Rng rng(start_connected ? 21 : 22);
    for (int round = 0; round < 120; ++round) {
      const std::shared_ptr<const GraphSnapshot> parent = session.snapshot();
      const Graph& g = parent->graph();
      const auto n = static_cast<uint32_t>(g.num_nodes());
      if (rng.NextBounded(4) != 0) parent->is_connected();
      const std::optional<bool> parent_flag = parent->known_connectivity();

      auto random_edge = [&] {
        NodeId u;
        do {
          u = static_cast<NodeId>(rng.NextBounded(n));
        } while (g.degree(u) == 0);
        const auto adj = g.neighbors(u);
        return std::make_pair(
            u, adj[rng.NextBounded(static_cast<uint32_t>(adj.size()))]);
      };
      auto add_random_edge = [&](GraphDelta* delta) {
        for (;;) {
          const auto u = static_cast<NodeId>(rng.NextBounded(n));
          const auto v = static_cast<NodeId>(rng.NextBounded(n));
          if (u == v || g.HasEdge(u, v)) continue;
          delta->AddEdge(u, v, 0.5 + rng.NextDouble());
          return;
        }
      };

      const auto kind = static_cast<Kind>(rng.NextBounded(4));
      GraphDelta delta;
      switch (kind) {
        case kReweight: {
          const auto [u, v] = random_edge();
          delta.ReweightEdge(u, v, 0.25 + 2.0 * rng.NextDouble());
          break;
        }
        case kAddOnly:
          for (uint32_t i = 0, adds = 1 + rng.NextBounded(3); i < adds; ++i) {
            add_random_edge(&delta);
          }
          break;
        case kChurn: {
          const auto [u, v] = random_edge();
          delta.RemoveEdge(u, v);
          add_random_edge(&delta);
          break;
        }
        case kNodeAdd:
          delta.AddNodes(1);
          if (rng.NextBounded(2) == 0) {
            delta.AddEdge(g.num_nodes(), static_cast<NodeId>(
                                             rng.NextBounded(n)));
          }
          break;
      }
      StatusOr<GraphSession::VersionedSnapshot> installed =
          session.Mutate(delta);
      ASSERT_TRUE(installed.ok()) << installed.status().ToString();
      const GraphSnapshot& child = *installed->snapshot;

      const bool expect_carried =
          parent_flag.has_value() &&
          (kind == kReweight || (kind == kAddOnly && *parent_flag));
      const std::optional<bool> flag = child.known_connectivity();
      ASSERT_EQ(flag.has_value(), expect_carried)
          << "round " << round << " kind " << kind;
      if (flag.has_value()) {
        ASSERT_EQ(*flag, IsConnected(child.graph())) << "round " << round;
        ++(*flag ? carried_connected : carried_disconnected);
      } else {
        ++bfs_left;
      }
      if (kind == kAddOnly && parent_flag == false) {
        ++add_only_on_disconnected;
      }
    }
  }
  // Every branch ran: carried flags of both values, add-only deltas on
  // a known-disconnected parent, and deltas left to the BFS.
  EXPECT_GT(carried_connected, 0);
  EXPECT_GT(carried_disconnected, 0);
  EXPECT_GT(add_only_on_disconnected, 0);
  EXPECT_GT(bfs_left, 0);
}

TEST(DynamicSessionTest, SolversRejectDisconnectingMutation) {
  auto session = std::make_shared<GraphSession>(
      BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}}), 1);
  Engine engine{session};
  SolveJob solve;
  solve.algorithm = "exact";
  solve.k = 1;
  ASSERT_TRUE(engine.Run(Job{solve}).ok());

  GraphDelta cut;
  cut.RemoveEdge(1, 2);
  ASSERT_TRUE(session->Mutate(cut).ok());
  StatusOr<JobResult> after = engine.Run(Job{solve});
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);

  EvaluateJob evaluate;
  evaluate.group = {0};
  StatusOr<JobResult> eval = engine.Run(Job{evaluate});
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DynamicSessionTest, PinnedSnapshotSurvivesMutation) {
  GraphSession session{KarateClub(), 1};
  const std::shared_ptr<const GraphSnapshot> pinned = session.snapshot();
  const uint64_t fp0 = pinned->fingerprint();

  ASSERT_TRUE(session.Mutate(RemoveEdge01()).ok());
  ASSERT_TRUE(session.Mutate(AddEdge01()).ok());
  GraphDelta reweight;
  reweight.ReweightEdge(0, 1, 3.0);
  ASSERT_TRUE(session.Mutate(reweight).ok());

  // The pinned snapshot still exposes the original graph, bit for bit.
  EXPECT_EQ(pinned->fingerprint(), fp0);
  EXPECT_EQ(pinned->num_edges(), 78);
  EXPECT_TRUE(pinned->graph().is_unit_weighted());
  EXPECT_DOUBLE_EQ(session.graph().EdgeWeight(0, 1), 3.0);
}

// Acceptance: concurrent in-flight solves during Mutate complete
// against a coherent snapshot bit-for-bit — every response equals the
// deterministic result of one of the graph versions, never a torn mix.
TEST(DynamicSessionTest, ConcurrentSolvesDuringMutateMatchAVersionBaseline) {
  auto session = std::make_shared<GraphSession>(KarateClub(), 2);
  EngineOptions engine_options;
  Engine engine{session};

  SolveJob job;
  job.algorithm = "forest";
  job.k = 3;
  job.eps = 0.3;
  job.seed = 11;

  // Version baselines, computed on static sessions.
  auto baseline_for = [&](const Graph& graph) {
    Engine baseline{Graph(graph), engine_options};
    StatusOr<JobResult> result = baseline.Run(Job{job});
    EXPECT_TRUE(result.ok());
    return std::get<SolveJobResult>(*result);
  };
  const SolveJobResult base_v0 = baseline_for(KarateClub());
  StatusOr<Graph> removed = KarateClub().Apply(RemoveEdge01());
  ASSERT_TRUE(removed.ok());
  const SolveJobResult base_v1 = baseline_for(*removed);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> solvers;
  for (int t = 0; t < 3; ++t) {
    solvers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        StatusOr<JobResult> result = engine.Run(Job{job});
        if (!result.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const auto& solve = std::get<SolveJobResult>(*result);
        const bool matches_v0 =
            solve.output.selected == base_v0.output.selected &&
            solve.cfcc == base_v0.cfcc;
        const bool matches_v1 =
            solve.output.selected == base_v1.output.selected &&
            solve.cfcc == base_v1.cfcc;
        if (!matches_v0 && !matches_v1) mismatches.fetch_add(1);
      }
    });
  }
  // Toggle between the two versions while solves are in flight.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session->Mutate(RemoveEdge01()).ok());
    ASSERT_TRUE(session->Mutate(AddEdge01()).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : solvers) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(session->epoch(), 40u);
  // An even number of toggles lands back on the original bytes.
  EXPECT_EQ(session->fingerprint(), GraphSession{KarateClub()}.fingerprint());
}

TEST(DynamicSessionTest, AugmentJobMatchesDirectGreedyEdgeAddition) {
  auto session = std::make_shared<GraphSession>(KarateClub(), 1);
  Engine engine{session};

  AugmentJob job;
  job.group = {0, 33};
  job.k = 2;
  job.candidates = EdgeCandidates::kAny;
  StatusOr<JobResult> result = engine.Run(Job{job});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& augment = std::get<AugmentJobResult>(*result);

  StatusOr<EdgeAdditionResult> direct =
      GreedyEdgeAddition(KarateClub(), {0, 33}, 2, EdgeCandidates::kAny);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(augment.added, direct->added);
  EXPECT_EQ(augment.trace_after, direct->trace_after);
  EXPECT_DOUBLE_EQ(augment.initial_trace, direct->initial_trace);
  ASSERT_EQ(augment.trace_after.size(), 2u);
  EXPECT_DOUBLE_EQ(augment.cfcc_before, 34.0 / augment.initial_trace);
  EXPECT_DOUBLE_EQ(augment.cfcc_after, 34.0 / augment.trace_after.back());
  EXPECT_GT(augment.cfcc_after, augment.cfcc_before);

  // Augment then apply: feeding the chosen edges back as a delta must
  // land the session on a graph where they exist.
  GraphDelta apply;
  for (const auto& [u, v] : augment.added) apply.AddEdge(u, v);
  ASSERT_TRUE(session->Mutate(apply).ok());
  for (const auto& [u, v] : augment.added) {
    EXPECT_TRUE(session->graph().HasEdge(u, v));
  }
  EXPECT_EQ(session->epoch(), 1u);
}

TEST(DynamicSessionTest, AugmentRejectsBadGroups) {
  Engine engine{KarateClub()};
  AugmentJob job;
  job.k = 1;
  EXPECT_FALSE(engine.Run(Job{job}).ok());  // empty group
  job.group = {99};
  EXPECT_FALSE(engine.Run(Job{job}).ok());  // out of range
  // Duplicate ids must be rejected BEFORE the dense ceiling gate: they
  // would understate the kept-node count and bypass it.
  job.group = {0, 0, 33};
  StatusOr<JobResult> dup = engine.Run(Job{job});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
}

TEST(DynamicSessionTest, AugmentEnforcesDenseWorkCeiling) {
  // GreedyEdgeAddition is dense (O(n^2) memory, O(n^3 + k n^2) time);
  // the engine must bound what one job can allocate.
  EngineOptions options;
  options.augment_max_n = 8;
  Engine engine{KarateClub(), options};
  AugmentJob job;
  job.group = {0, 33};
  job.k = 1;
  StatusOr<JobResult> over_n = engine.Run(Job{job});  // 32 remaining > 8
  ASSERT_FALSE(over_n.ok());
  EXPECT_EQ(over_n.status().code(), StatusCode::kInvalidArgument);

  EngineOptions wide;
  wide.augment_max_n = 64;
  Engine roomy{KarateClub(), wide};
  job.k = 65;  // k beyond the ceiling is rejected too
  StatusOr<JobResult> over_k = roomy.Run(Job{job});
  ASSERT_FALSE(over_k.ok());
  EXPECT_EQ(over_k.status().code(), StatusCode::kInvalidArgument);
  job.k = 2;
  EXPECT_TRUE(roomy.Run(Job{job}).ok());
}

}  // namespace
}  // namespace cfcm::engine
