// Graph::Apply against a reference oracle: the original rebuild-through-
// GraphBuilder implementation, kept here verbatim. Apply patches the CSR
// in place of a rebuild, and every snapshot fingerprint, cache key,
// InverseOf round trip and downstream solve reads its bytes, so the two
// must agree byte for byte on every applicable delta and on the status
// code and message of every rejected one (DESIGN.md §11).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/session.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "graph/generators.h"

namespace cfcm {
namespace {

// ---- Reference: the rebuild implementation of Graph::Apply. ----------

std::string EdgeName(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return "{" + std::to_string(u) + ", " + std::to_string(v) + "}";
}

// Shared endpoint validation: ids must name a base node or one of the
// nodes this delta appends. `op` labels the error.
Status CheckEndpoints(NodeId u, NodeId v, NodeId num_nodes, const char* op) {
  if (u < 0 || v < 0) {
    return Status::InvalidArgument(std::string(op) + " edge " +
                                   EdgeName(u, v) +
                                   " has a negative node id");
  }
  if (u >= num_nodes || v >= num_nodes) {
    return Status::OutOfRange(
        std::string(op) + " edge " + EdgeName(u, v) + " endpoint outside [0, " +
        std::to_string(num_nodes) + ") — AddNodes first to grow the graph");
  }
  if (u == v) {
    return Status::InvalidArgument(std::string(op) + " edge " +
                                   EdgeName(u, v) +
                                   " is a self-loop (no resistance "
                                   "information; rejected)");
  }
  return Status::Ok();
}

Status CheckWeight(double weight, NodeId u, NodeId v, const char* op) {
  if (!std::isfinite(weight) || weight <= 0.0) {
    return Status::InvalidArgument(
        std::string(op) + " edge " + EdgeName(u, v) +
        ": conductance must be positive and finite, got " +
        std::to_string(weight));
  }
  return Status::Ok();
}

StatusOr<Graph> ReferenceApply(const Graph& graph, const GraphDelta& delta) {
  if (delta.add_nodes() < 0 || delta.has_negative_add_nodes()) {
    return Status::InvalidArgument(
        "AddNodes counts must be non-negative (accumulated " +
        std::to_string(delta.add_nodes()) + ")");
  }
  const int64_t n_total =
      static_cast<int64_t>(graph.num_nodes()) + delta.add_nodes();
  if (n_total > std::numeric_limits<NodeId>::max()) {
    return Status::OutOfRange("AddNodes would overflow the node id space (" +
                              std::to_string(n_total) + " total nodes)");
  }
  const NodeId n_new = static_cast<NodeId>(n_total);

  // Working copy of the undirected edge set with conductances. The map
  // carries the mutation phase; the deterministic CSR layout comes from
  // the final GraphBuilder pass, which sorts regardless of visit order.
  std::vector<WeightedEdge> edges = graph.WeightedEdges();
  std::unordered_map<uint64_t, std::size_t> index;  // key -> edges slot
  index.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    index.emplace(UndirectedEdgeKey(edges[i].u, edges[i].v), i);
  }
  // Removed slots are tombstoned with weight 0 (never a valid
  // conductance) instead of erased, keeping the pass O(m + |delta|).
  constexpr double kRemoved = 0.0;

  // Phase 1: removals.
  for (const auto& [u, v] : delta.remove_edges()) {
    Status valid = CheckEndpoints(u, v, n_new, "remove");
    if (!valid.ok()) return valid;
    auto it = index.find(UndirectedEdgeKey(u, v));
    if (it == index.end()) {
      return Status::NotFound("remove edge " + EdgeName(u, v) +
                              ": not an edge of the graph");
    }
    edges[it->second].weight = kRemoved;
    index.erase(it);
  }

  // Phase 2: reweights.
  for (const GraphDelta::Edge& e : delta.reweight_edges()) {
    Status valid = CheckEndpoints(e.u, e.v, n_new, "reweight");
    if (!valid.ok()) return valid;
    Status weight_ok = CheckWeight(e.weight, e.u, e.v, "reweight");
    if (!weight_ok.ok()) return weight_ok;
    auto it = index.find(UndirectedEdgeKey(e.u, e.v));
    if (it == index.end()) {
      return Status::NotFound("reweight edge " + EdgeName(e.u, e.v) +
                              ": not an edge of the graph (removals in the "
                              "same delta apply first)");
    }
    edges[it->second].weight = e.weight;
  }

  // Phase 3: additions — duplicates (against the base or within the
  // delta) sum conductances, the GraphBuilder parallel-conductor rule.
  for (const GraphDelta::Edge& e : delta.add_edges()) {
    Status valid = CheckEndpoints(e.u, e.v, n_new, "add");
    if (!valid.ok()) return valid;
    Status weight_ok = CheckWeight(e.weight, e.u, e.v, "add");
    if (!weight_ok.ok()) return weight_ok;
    auto [it, inserted] = index.emplace(UndirectedEdgeKey(e.u, e.v), edges.size());
    if (inserted) {
      edges.push_back({std::min(e.u, e.v), std::max(e.u, e.v), e.weight});
    } else {
      edges[it->second].weight += e.weight;
    }
  }

  // Shared-nothing rebuild. Weighted AddEdge keeps builder semantics:
  // validation already happened above, and a surviving all-1.0 weight
  // set degrades back to a unit-weighted graph.
  GraphBuilder builder(n_new);
  for (const WeightedEdge& e : edges) {
    if (e.weight == kRemoved) continue;
    builder.AddEdge(e.u, e.v, e.weight);
  }
  return std::move(builder).Build();
}

// ---- Delta generator. ------------------------------------------------

// Conductances the generator draws from: 1.0 often (so deltas can
// restore an all-unit graph), exact binary fractions, a value that is
// inexact in binary (so summation order shows in the bits), and 1e308
// (so two of them overflow).
double DrawWeight(Rng& rng) {
  static constexpr double kWeights[] = {1.0, 1.0, 1.0, 0.5, 2.0,
                                        0.1, 3.25, 1e308};
  return kWeights[rng.NextBounded(sizeof(kWeights) / sizeof(kWeights[0]))];
}

NodeId DrawNode(Rng& rng, NodeId n) {
  return n > 0 ? static_cast<NodeId>(rng.NextBounded(static_cast<uint32_t>(n)))
               : 0;
}

// A pair of distinct ids in [0, n) (n >= 2), in random orientation.
std::pair<NodeId, NodeId> DrawPair(Rng& rng, NodeId n) {
  const NodeId u = DrawNode(rng, n);
  NodeId v = DrawNode(rng, n - 1);
  if (v >= u) ++v;
  return rng.NextBool() ? std::make_pair(u, v) : std::make_pair(v, u);
}

// A random existing edge of `g`, in random orientation.
std::pair<NodeId, NodeId> DrawEdge(Rng& rng, const std::vector<WeightedEdge>& edges) {
  const WeightedEdge& e =
      edges[rng.NextBounded(static_cast<uint32_t>(edges.size()))];
  return rng.NextBool() ? std::make_pair(e.u, e.v) : std::make_pair(e.v, e.u);
}

// Appends one invalid operation of a randomly drawn kind.
void AddInvalidOperation(Rng& rng, const Graph& g, NodeId n_new,
                         GraphDelta* delta) {
  const NodeId n = g.num_nodes();
  switch (rng.NextBounded(9)) {
    case 0: {  // remove a pair that is not an edge (or out of range)
      const auto [u, v] = DrawPair(rng, std::max<NodeId>(n_new, 2));
      delta->RemoveEdge(u, v);
      break;
    }
    case 1: {  // reweight a pair that is not an edge
      const auto [u, v] = DrawPair(rng, std::max<NodeId>(n_new, 2));
      delta->ReweightEdge(u, v, 2.0);
      break;
    }
    case 2: {  // bad conductance on a reweight or an add
      static constexpr double kBad[] = {
          0.0, -1.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()};
      const double bad = kBad[rng.NextBounded(4)];
      const auto [u, v] = DrawPair(rng, std::max<NodeId>(n, 2));
      if (rng.NextBool()) {
        delta->ReweightEdge(u, v, bad);
      } else {
        delta->AddEdge(u, v, bad);
      }
      break;
    }
    case 3: {  // self-loop
      const NodeId u = DrawNode(rng, std::max<NodeId>(n_new, 1));
      delta->AddEdge(u, u, 1.0);
      break;
    }
    case 4:  // endpoint beyond the post-delta node range
      delta->AddEdge(DrawNode(rng, std::max<NodeId>(n, 1)), n_new + 3, 1.0);
      break;
    case 5:  // negative id
      delta->RemoveEdge(-1, DrawNode(rng, std::max<NodeId>(n, 1)));
      break;
    case 6:  // negative AddNodes, later cancelled
      delta->AddNodes(-2);
      delta->AddNodes(2);
      break;
    case 7:  // AddNodes past the NodeId range
      delta->AddNodes(std::numeric_limits<NodeId>::max());
      break;
    default: {  // reweight an edge the same delta removes
      const auto [u, v] = DrawPair(rng, std::max<NodeId>(n, 2));
      delta->RemoveEdge(u, v);
      delta->ReweightEdge(v, u, 0.5);
      break;
    }
  }
}

// Builds the delta for `trial`: each scenario stresses one rule of the
// merge (see the cases), and about one delta in six also carries an
// invalid operation.
GraphDelta MakeDelta(const Graph& g, uint64_t seed, int trial) {
  Rng rng(seed, static_cast<uint64_t>(trial));
  const NodeId n = g.num_nodes();
  const std::vector<WeightedEdge> edges = g.WeightedEdges();
  GraphDelta delta;
  NodeId n_new = n;
  const int scenario = trial % 9;
  if (n < 2) {
    // Too small for edge scenarios: grow it and wire the new ids.
    delta.AddNodes(3);
    n_new = n + 3;
    delta.AddEdge(n, n + 1, DrawWeight(rng));
    delta.AddEdge(n + 2, n + 1, DrawWeight(rng));
  } else if (scenario == 0 || edges.empty()) {
    // Random mix of every operation kind.
    const int ops = 1 + static_cast<int>(rng.NextBounded(12));
    for (int i = 0; i < ops; ++i) {
      const uint32_t op = rng.NextBounded(4);
      if (op == 0 && !edges.empty()) {
        const auto [u, v] = DrawEdge(rng, edges);
        delta.RemoveEdge(u, v);
      } else if (op == 1 && !edges.empty()) {
        const auto [u, v] = DrawEdge(rng, edges);
        delta.ReweightEdge(u, v, DrawWeight(rng));
      } else {
        const auto [u, v] = DrawPair(rng, n);
        delta.AddEdge(u, v, DrawWeight(rng));
      }
    }
  } else if (scenario == 1) {
    // Remove one edge and re-add it, possibly several times.
    const auto [u, v] = DrawEdge(rng, edges);
    delta.RemoveEdge(u, v);
    const int adds = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < adds; ++i) delta.AddEdge(v, u, DrawWeight(rng));
  } else if (scenario == 2) {
    // Reweight, then add onto the reweighted edge.
    const auto [u, v] = DrawEdge(rng, edges);
    delta.ReweightEdge(u, v, DrawWeight(rng));
    const int adds = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < adds; ++i) delta.AddEdge(u, v, DrawWeight(rng));
  } else if (scenario == 3) {
    // Duplicate adds of new pairs and adds onto existing edges.
    const int pairs = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < pairs; ++i) {
      const auto [u, v] = rng.NextBool() ? DrawPair(rng, n) : DrawEdge(rng, edges);
      const int adds = 1 + static_cast<int>(rng.NextBounded(3));
      for (int j = 0; j < adds; ++j) {
        if (rng.NextBool()) {
          delta.AddEdge(u, v, DrawWeight(rng));
        } else {
          delta.AddEdge(v, u, DrawWeight(rng));
        }
      }
    }
  } else if (scenario == 4) {
    // Node additions with edges into (and among) the new ids.
    const NodeId grow = 1 + static_cast<NodeId>(rng.NextBounded(4));
    delta.AddNodes(grow);
    n_new = n + grow;
    for (NodeId x = n; x < n_new; ++x) {
      delta.AddEdge(x, DrawNode(rng, x), DrawWeight(rng));
      if (rng.NextBool()) delta.AddEdge(DrawNode(rng, n), x, DrawWeight(rng));
    }
  } else if (scenario == 5) {
    // Remove every edge of one node; sometimes re-add one of them.
    const NodeId x = DrawNode(rng, n);
    for (const NodeId y : g.neighbors(x)) delta.RemoveEdge(y, x);
    if (g.degree(x) > 0 && rng.NextBool()) {
      delta.AddEdge(x, g.neighbors(x)[0], DrawWeight(rng));
    }
  } else if (scenario == 6) {
    // Restore all-1.0 conductances (the unit degrade), then maybe
    // break it again with one more operation.
    for (const WeightedEdge& e : edges) {
      if (e.weight != 1.0) {
        if (rng.NextBool()) {
          delta.ReweightEdge(e.u, e.v, 1.0);
        } else {
          delta.RemoveEdge(e.v, e.u);
        }
      }
    }
    if (rng.NextBounded(4) == 0) {
      const auto [u, v] = DrawPair(rng, n);
      delta.AddEdge(u, v, DrawWeight(rng));
    }
  } else if (scenario == 7) {
    // Conductance sums that may overflow to infinity.
    const auto [u, v] = rng.NextBool() ? DrawPair(rng, n) : DrawEdge(rng, edges);
    if (rng.NextBool() && g.HasEdge(u, v)) delta.ReweightEdge(u, v, 1e308);
    delta.AddEdge(v, u, 1e308);
    if (rng.NextBool()) delta.AddEdge(u, v, 1e308);
  } else {
    // Reweights only, including repeated reweights of one edge (the
    // last one wins) and reweights back to the base conductance.
    const int ops = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < ops; ++i) {
      const WeightedEdge& e =
          edges[rng.NextBounded(static_cast<uint32_t>(edges.size()))];
      delta.ReweightEdge(e.u, e.v, rng.NextBool() ? e.weight : DrawWeight(rng));
    }
  }
  if (rng.NextBounded(6) == 0) AddInvalidOperation(rng, g, n_new, &delta);
  return delta;
}

// ---- Comparison. -----------------------------------------------------

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameDoubleBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Byte-for-byte agreement of everything downstream code reads: the CSR
// arrays, the derived weighted degrees and total weight, and the
// snapshot fingerprint the serving cache keys on.
void ExpectIdentical(const Graph& expected, const Graph& actual,
                     const std::string& where) {
  ASSERT_EQ(expected.num_nodes(), actual.num_nodes()) << where;
  EXPECT_TRUE(SameBytes(expected.offsets(), actual.offsets())) << where;
  EXPECT_TRUE(SameBytes(expected.raw_neighbors(), actual.raw_neighbors()))
      << where;
  EXPECT_TRUE(SameBytes(expected.raw_weights(), actual.raw_weights())) << where;
  EXPECT_EQ(expected.is_unit_weighted(), actual.is_unit_weighted()) << where;
  for (NodeId u = 0; u < expected.num_nodes(); ++u) {
    ASSERT_TRUE(SameDoubleBits(expected.weighted_degree(u),
                               actual.weighted_degree(u)))
        << where << " node " << u;
  }
  EXPECT_TRUE(SameDoubleBits(expected.total_weight(), actual.total_weight()))
      << where;
  EXPECT_EQ(engine::GraphSnapshot(expected).fingerprint(),
            engine::GraphSnapshot(actual).fingerprint())
      << where;
}

struct OracleTally {
  int applied = 0;
  int rejected = 0;
  int weighted_results = 0;
  int unit_results = 0;
};

void CheckAgainstOracle(const Graph& base, const GraphDelta& delta,
                        const std::string& where, OracleTally* tally) {
  const StatusOr<Graph> expected = ReferenceApply(base, delta);
  const StatusOr<Graph> actual = base.Apply(delta);
  ASSERT_EQ(expected.ok(), actual.ok())
      << where << ": reference says "
      << (expected.ok() ? "ok" : expected.status().ToString()) << ", Apply says "
      << (actual.ok() ? "ok" : actual.status().ToString());
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << where;
    EXPECT_EQ(expected.status().message(), actual.status().message()) << where;
    ++tally->rejected;
    return;
  }
  ExpectIdentical(*expected, *actual, where);
  ++tally->applied;
  ++(expected->is_unit_weighted() ? tally->unit_results
                                  : tally->weighted_results);
}

// BA(60, 3) with a handful of edges reweighted: a weighted graph whose
// rows are mostly all-1.0, so restoring a unit graph takes few edits.
Graph MostlyUnitBa() {
  const Graph base = BarabasiAlbert(60, 3, 4);
  const std::vector<std::pair<NodeId, NodeId>> edges = base.Edges();
  GraphDelta delta;
  for (std::size_t i = 0; i < edges.size(); i += 29) {
    delta.ReweightEdge(edges[i].first, edges[i].second, 0.75);
  }
  return base.Apply(delta).value();
}

TEST(ApplyOracleTest, SeededDeltasMatchTheRebuildBitForBit) {
  const std::vector<std::pair<std::string, Graph>> bases = {
      {"ba60-unit", BarabasiAlbert(60, 3, 2)},
      {"grid6x7", GridGraph(6, 7)},
      {"karate-w", KarateClubWeighted()},
      {"ba60-mostly-unit", MostlyUnitBa()},
      {"ba60-uniform-w", AssignUniformWeights(BarabasiAlbert(60, 3, 3), 0.5,
                                              2.0, 9)},
      {"isolated5", BuildGraph(5, {})},
      {"empty", Graph()},
  };
  OracleTally tally;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const auto& [name, base] = bases[b];
    const int trials = base.num_nodes() < 2 ? 20 : 240;
    for (int t = 0; t < trials; ++t) {
      const GraphDelta delta = MakeDelta(base, 1000 + b, t);
      CheckAgainstOracle(base, delta, name + " trial " + std::to_string(t),
                         &tally);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The scenarios must reach both outcomes and both result kinds, or
  // the comparison above proves less than it claims.
  EXPECT_GE(tally.applied + tally.rejected, 1000);
  EXPECT_GE(tally.applied, 700);
  EXPECT_GE(tally.rejected, 100);
  EXPECT_GE(tally.weighted_results, 200);
  EXPECT_GE(tally.unit_results, 100);
}

// Chained deltas: each result becomes the next base, so merges run on
// graphs the generator never built directly (grown ids, emptied rows).
TEST(ApplyOracleTest, ChainedDeltasMatchTheRebuild) {
  Graph current = BarabasiAlbert(40, 2, 6);
  OracleTally tally;
  for (int t = 0; t < 200; ++t) {
    const GraphDelta delta = MakeDelta(current, 77, t);
    CheckAgainstOracle(current, delta, "chain step " + std::to_string(t),
                       &tally);
    if (::testing::Test::HasFatalFailure()) return;
    StatusOr<Graph> next = current.Apply(delta);
    if (next.ok()) current = std::move(*next);
  }
  EXPECT_GE(tally.applied, 100);
}

// The exact corners the merge must reproduce, named one by one.
TEST(ApplyOracleTest, SummationOrderAndDegradeCorners) {
  const Graph unit = BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph weighted =
      BuildWeightedGraph(4, {{0, 1, 0.1}, {1, 2, 1.0}, {2, 3, 2.0}});
  OracleTally tally;

  // Reweight then adds: reweight + add1 + add2, left to right; 0.1 is
  // inexact in binary, so a different order changes the bits.
  GraphDelta sum_order;
  sum_order.ReweightEdge(0, 1, 0.1);
  sum_order.AddEdge(1, 0, 0.2);
  sum_order.AddEdge(0, 1, 0.3);
  CheckAgainstOracle(weighted, sum_order, "reweight+adds", &tally);
  EXPECT_EQ(weighted.Apply(sum_order)->EdgeWeight(0, 1), (0.1 + 0.2) + 0.3);

  // Removed then re-added: the sum starts from the first add.
  GraphDelta readd;
  readd.RemoveEdge(2, 3);
  readd.AddEdge(3, 2, 0.3);
  readd.AddEdge(2, 3, 0.2);
  readd.AddEdge(2, 3, 0.1);
  CheckAgainstOracle(weighted, readd, "remove+re-adds", &tally);
  EXPECT_EQ(weighted.Apply(readd)->EdgeWeight(2, 3), (0.3 + 0.2) + 0.1);

  // Every non-1.0 conductance edited away: the result is unit.
  GraphDelta degrade;
  degrade.ReweightEdge(0, 1, 1.0);
  degrade.RemoveEdge(2, 3);
  degrade.AddEdge(0, 3, 1.0);
  CheckAgainstOracle(weighted, degrade, "degrade", &tally);
  EXPECT_TRUE(weighted.Apply(degrade)->is_unit_weighted());

  // Unit base plus a non-1.0 add: the result is weighted, and the
  // untouched edges carry explicit 1.0 conductances.
  GraphDelta weigh;
  weigh.AddEdge(3, 0, 0.5);
  CheckAgainstOracle(unit, weigh, "unit->weighted", &tally);
  EXPECT_FALSE(unit.Apply(weigh)->is_unit_weighted());
  EXPECT_EQ(tally.applied, 4);
}

}  // namespace
}  // namespace cfcm
