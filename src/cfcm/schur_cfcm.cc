#include "cfcm/schur_cfcm.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "cfcm/cfcc.h"
#include "cfcm/lazy_greedy.h"
#include "common/timer.h"
#include "estimators/forest_delta.h"
#include "estimators/schur_delta.h"

namespace cfcm {

namespace {

// Upper bound on the auxiliary root set |T| chosen by the |T*| rule.
constexpr int kTCap = 256;

// Shared implementation: removal order plus the remaining-graph dmax
// after each removal. Hubs rank by *weighted* degree — on a weighted
// graph the escape probability of a walk is governed by conductance,
// not edge count — with ties going to the higher node id (the pair
// comparison), so unit graphs keep their historical order exactly:
// weighted_degree() is the integer degree there and the decrements
// below are exact in floating point.
void HubOrderWithDmax(const Graph& graph, int cap, std::vector<NodeId>* order,
                      std::vector<double>* dmax_after) {
  const NodeId n = graph.num_nodes();
  cap = std::min<int>(cap, n - 2);  // leave at least 2 non-root nodes
  std::vector<double> degree(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) degree[u] = graph.weighted_degree(u);
  std::vector<char> removed(static_cast<std::size_t>(n), 0);

  // Lazy max-heap of (degree, node); stale entries are skipped.
  std::priority_queue<std::pair<double, NodeId>> heap;
  for (NodeId u = 0; u < n; ++u) heap.emplace(degree[u], u);

  while (static_cast<int>(order->size()) < cap && !heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (removed[u] || d != degree[u]) continue;  // stale
    removed[u] = 1;
    order->push_back(u);
    const auto adj = graph.neighbors(u);
    const auto wts = graph.weights(u);
    for (std::size_t e = 0; e < adj.size(); ++e) {
      const NodeId v = adj[e];
      if (!removed[v]) {
        degree[v] -= wts.empty() ? 1.0 : wts[e];
        heap.emplace(degree[v], v);
      }
    }
    // Current dmax(T): top of heap after skipping stale entries.
    while (!heap.empty()) {
      auto [dt, ut] = heap.top();
      if (removed[ut] || dt != degree[ut]) {
        heap.pop();
        continue;
      }
      break;
    }
    dmax_after->push_back(heap.empty() ? 0.0 : heap.top().first);
  }
}

}  // namespace

std::vector<NodeId> HubRemovalOrder(const Graph& graph, int count) {
  std::vector<NodeId> order;
  std::vector<double> dmax_after;
  HubOrderWithDmax(graph, count, &order, &dmax_after);
  return order;
}

std::vector<NodeId> SelectAuxiliaryRoots(const Graph& graph, int cap) {
  std::vector<NodeId> order;
  std::vector<double> dmax_after;
  HubOrderWithDmax(graph, cap, &order, &dmax_after);

  // |T*| = argmin_{|T|>=1} |{|T| - dmax(T)}|: the balance point where the
  // auxiliary set size meets the remaining maximum degree (paper §V-A
  // "we attempt to reach a balance between these two factors"; the
  // signed difference is monotone increasing on scale-free graphs, so
  // the balance is its zero crossing — an h-index of the degree
  // sequence, matching the |T*| magnitudes of the paper's Table II).
  int best_size = 1;
  double best_value = std::abs(1.0 - (dmax_after.empty() ? 0.0 : dmax_after[0]));
  for (int size = 2; size <= static_cast<int>(order.size()); ++size) {
    const double value = std::abs(size - dmax_after[size - 1]);
    if (value < best_value) {
      best_value = value;
      best_size = size;
    }
  }
  order.resize(static_cast<std::size_t>(best_size));
  return order;
}

StatusOr<CfcmResult> SchurCfcmMaximize(const Graph& graph, int k,
                                       const CfcmOptions& options) {
  CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
  Timer timer;
  ThreadPool& pool = ResolveSamplingPool(options);

  // Auxiliary root set T of hubs (Alg. 5 line 1).
  const std::vector<NodeId> t_all =
      options.t_size > 0 ? HubRemovalOrder(graph, options.t_size)
                         : SelectAuxiliaryRoots(graph, kTCap);

  // Alg. 5: the shared greedy driver, scoring rounds 2..k with Alg. 4
  // rooted at S ∪ (T \ S) — recomputed per call, since S grows between
  // rounds — or with Alg. 2 once T ⊆ S.
  StatusOr<CfcmResult> result = LazyGreedySelect(
      graph, k, options, pool,
      [&graph, &options, &pool, &t_all](const std::vector<NodeId>& s_nodes,
                                        uint64_t seed,
                                        const DeltaScope& scope)
          -> DeltaEstimate {
        EstimatorOptions est = ToEstimatorOptions(options);
        est.seed = seed;
        std::vector<char> in_s(static_cast<std::size_t>(graph.num_nodes()),
                               0);
        for (NodeId s : s_nodes) in_s[s] = 1;
        std::vector<NodeId> t_nodes;
        t_nodes.reserve(t_all.size());
        for (NodeId t : t_all) {
          if (!in_s[t]) t_nodes.push_back(t);
        }
        if (t_nodes.empty()) {
          return ForestDelta(graph, s_nodes, est, pool, scope);
        }
        return SchurDelta(graph, s_nodes, t_nodes, est, pool, scope);
      },
      /*allow_forest_reuse=*/false);
  if (result.ok()) {
    result->auxiliary_roots = static_cast<int>(t_all.size());
    result->seconds = timer.Seconds();
  }
  return result;
}

}  // namespace cfcm
