#include "cfcm/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cfcm/cfcc.h"
#include "cfcm/forest_cfcm.h"
#include "common/timer.h"
#include "estimators/forest_delta.h"
#include "graph/components.h"
#include "obs/metrics.h"

namespace cfcm {

namespace {

// Salt multiplier for the per-epoch resample streams: stream seeds
// final_seed ^ (kSaltStep * salt) are pairwise distinct across epochs
// and never collide with final_seed itself (salt >= 1).
constexpr uint64_t kSaltStep = 0x9e3779b97f4a7c15ULL;

// Per-selection-member seed perturbation for the Phase B re-contests.
constexpr uint64_t kSwapSeedStep = 0x6a09e667f3bcc909ULL;

// Cold-fallback trigger: warm repair is refused when the accumulated
// delta touched more than this fraction of the current edge set.
constexpr double kWarmMaxDeltaFraction = 0.25;

// Per-member swap-sweep gate: an earlier selection member is
// re-contested (drop-one/add-best) only when the delta weight incident
// to it exceeds this fraction of its weighted degree.
constexpr double kWarmSwapImpact = 0.05;

// Relative margin a Phase B challenger must clear over the incumbent
// member before the swap is applied.
constexpr double kWarmSwapMargin = 0.25;

// Candidate pool size for the warm repair phases: twice the lazy loop's
// refresh batch of 8.
constexpr std::size_t kWarmContenders = 16;

// Top-`want` non-selected candidates by (stale key desc, id asc) —
// the warm repair's contender pool.
std::vector<NodeId> TopContenders(const WarmState& state,
                                  const std::vector<char>& in_s,
                                  std::size_t want) {
  std::vector<NodeId> ids;
  ids.reserve(state.keys.size());
  for (NodeId u = 0; u < static_cast<NodeId>(state.keys.size()); ++u) {
    if (!in_s[static_cast<std::size_t>(u)]) ids.push_back(u);
  }
  if (ids.size() > want) {
    std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(want),
                      ids.end(), [&state](NodeId a, NodeId b) {
                        const double ka = state.keys[a];
                        const double kb = state.keys[b];
                        if (ka != kb) return ka > kb;
                        return a < b;
                      });
    ids.resize(want);
  }
  return ids;
}

// Deterministic argmax over the subset of one DeltaEstimate: (gain
// desc, id asc), the exhaustive scan's tie-break.
NodeId BestInSubset(const DeltaEstimate& d, const std::vector<char>& mask,
                    double* best_gain) {
  NodeId best = -1;
  double gain = -std::numeric_limits<double>::infinity();
  for (NodeId u = 0; u < static_cast<NodeId>(mask.size()); ++u) {
    if (!mask[static_cast<std::size_t>(u)]) continue;
    const double g = d.delta[static_cast<std::size_t>(u)];
    if (g > gain) {
      gain = g;
      best = u;
    }
  }
  *best_gain = gain;
  return best;
}

std::shared_ptr<const WarmState> DepositFromCapture(
    const Graph& graph, const CfcmOptions& options, const CfcmResult& result,
    WarmCapture&& capture) {
  return BuildWarmState(graph, options, result, std::move(capture));
}

}  // namespace

const char* WarmModeName(WarmMode mode) {
  switch (mode) {
    case WarmMode::kOff:
      return "off";
    case WarmMode::kAuto:
      return "auto";
    case WarmMode::kOn:
      return "on";
  }
  return "off";
}

std::optional<WarmMode> ParseWarmMode(std::string_view name) {
  if (name == "off") return WarmMode::kOff;
  if (name == "auto") return WarmMode::kAuto;
  if (name == "on") return WarmMode::kOn;
  return std::nullopt;
}

void RecordIncrementalCounters(std::int64_t forests_reused,
                               std::int64_t forests_resampled,
                               std::int64_t warm_starts,
                               std::int64_t cold_fallbacks,
                               std::int64_t swap_moves) {
  static obs::Counter* const reused =
      &obs::MetricsRegistry::Global().counter(
          "engine.incremental.forests_reused");
  static obs::Counter* const resampled =
      &obs::MetricsRegistry::Global().counter(
          "engine.incremental.forests_resampled");
  static obs::Counter* const warm =
      &obs::MetricsRegistry::Global().counter("engine.incremental.warm_starts");
  static obs::Counter* const fallbacks =
      &obs::MetricsRegistry::Global().counter(
          "engine.incremental.cold_fallbacks");
  static obs::Counter* const swaps =
      &obs::MetricsRegistry::Global().counter("engine.incremental.swap_moves");
  reused->Add(static_cast<uint64_t>(forests_reused));
  resampled->Add(static_cast<uint64_t>(forests_resampled));
  warm->Add(static_cast<uint64_t>(warm_starts));
  fallbacks->Add(static_cast<uint64_t>(cold_fallbacks));
  swaps->Add(static_cast<uint64_t>(swap_moves));
}

std::shared_ptr<const WarmState> BuildWarmState(const Graph& graph,
                                                const CfcmOptions& options,
                                                const CfcmResult& result,
                                                WarmCapture&& capture) {
  auto state = std::make_shared<WarmState>();
  state->eps = options.eps;
  state->seed = options.seed;
  state->selection = result.selected;
  state->gains = std::move(capture.gains);
  state->keys = std::move(capture.keys);
  state->last_gain = capture.last_gain;
  state->final_seed = capture.final_seed;
  state->base_result = result;
  state->source_n = graph.num_nodes();
  if (capture.has_arena && result.selected.size() >= 2) {
    // Adopt the arena only when it really holds the final round's
    // forests; a delta binding that never fills it leaves it empty.
    const std::vector<NodeId> s_prev(result.selected.begin(),
                                     result.selected.end() - 1);
    if (capture.arena.MatchesRound(graph.num_nodes(), s_prev,
                                   capture.final_seed) &&
        capture.arena.committed() > 0) {
      auto lease = std::make_shared<ArenaLease>();
      lease->arena = std::move(capture.arena);
      state->clean.assign(static_cast<std::size_t>(lease->arena.committed()),
                          1);
      state->lease = std::move(lease);
    }
  }
  return state;
}

std::shared_ptr<const WarmState> AdvanceWarmState(const WarmState& state,
                                                  const Graph& pre_graph,
                                                  const GraphDelta& delta) {
  auto next = std::make_shared<WarmState>();
  next->eps = state.eps;
  next->seed = state.seed;
  next->selection = state.selection;
  next->gains = state.gains;
  next->keys = state.keys;
  next->last_gain = state.last_gain;
  next->final_seed = state.final_seed;
  next->base_result = state.base_result;
  next->touched = state.touched;
  next->structural = state.structural;
  next->overflow = state.overflow;
  next->addition_share = state.addition_share;
  next->source_n = state.source_n;
  next->epoch_salt = state.epoch_salt + 1;
  next->clean = state.clean;

  // The edges this delta changes, endpoint-classifiable against the
  // retained forests (both endpoints in the source graph's id space).
  std::vector<WarmState::TouchedEdge> fresh;
  auto record = [&](NodeId u, NodeId v, double abs_dw) {
    if (next->touched.size() + fresh.size() >= kWarmMaxTouchedEdges) {
      next->overflow = true;
      return;
    }
    fresh.push_back({u, v, abs_dw});
  };

  for (const auto& e : delta.reweight_edges()) {
    const double old_w = pre_graph.EdgeWeight(e.u, e.v);
    const double dw = std::abs(e.weight - old_w);
    if (dw == 0.0) continue;  // no-op reweight: the graph is unchanged
    record(e.u, e.v, dw);
  }
  for (const auto& [u, v] : delta.remove_edges()) {
    next->structural = true;
    record(u, v, pre_graph.EdgeWeight(u, v));
  }
  const NodeId pre_n = pre_graph.num_nodes();
  for (const auto& e : delta.add_edges()) {
    next->structural = true;
    if (e.u < pre_n && e.v < pre_n) {
      record(e.u, e.v, e.weight);
      // Support break: no retained forest can contain the new edge.
      // Bound the probability a post-delta forest uses it by the
      // step-probability sum from either endpoint and resample that
      // share of the retained forests (DESIGN.md §16).
      next->addition_share +=
          e.weight / (pre_graph.weighted_degree(e.u) + e.weight) +
          e.weight / (pre_graph.weighted_degree(e.v) + e.weight);
    } else {
      // Edge onto a just-added node: retained forests (old id space)
      // cannot contain it, and the new node joins the contender pool
      // unconditionally, so no touched record is needed — but the
      // support-break share still applies through the old endpoint.
      const NodeId old_end = e.u < pre_n ? e.u : (e.v < pre_n ? e.v : -1);
      if (old_end >= 0) {
        next->addition_share +=
            e.weight / (pre_graph.weighted_degree(old_end) + e.weight);
      }
    }
  }

  // Classify retained forests against the fresh touched edges. Needs
  // exclusive arena access; when an in-flight warm solve holds the
  // lease the successor simply carries no arena (still warm-startable
  // from the gains/keys alone).
  const bool arena_usable = state.lease != nullptr && !next->overflow &&
                            delta.add_nodes() == 0;
  if (arena_usable && state.lease->TryClaim()) {
    ForestArena& arena = state.lease->arena;
    const int committed = arena.committed();
    next->clean.resize(static_cast<std::size_t>(committed), 0);
    for (const auto& e : fresh) {
      if (e.u >= state.source_n || e.v >= state.source_n) continue;
      const uint64_t key = UndirectedEdgeKey(e.u, e.v);
      for (int f = 0; f < committed; ++f) {
        if (!next->clean[static_cast<std::size_t>(f)]) continue;
        if (arena.MaybeContainsEdge(f, key) && arena.ContainsUpEdge(f, e.u, e.v)) {
          next->clean[static_cast<std::size_t>(f)] = 0;
        }
      }
    }
    auto lease = std::make_shared<ArenaLease>();
    lease->arena = std::move(arena);
    next->lease = std::move(lease);
  } else {
    next->lease = nullptr;
    next->clean.clear();
  }

  next->touched.insert(next->touched.end(), fresh.begin(), fresh.end());
  return next;
}

WarmDecision DecideWarm(const Graph& graph, const WarmState* state, int k,
                        const CfcmOptions& options) {
  if (state == nullptr) return {false, "no_warm_state"};
  if (k < 2) return {false, "k_too_small"};
  if (static_cast<std::size_t>(k) != state->selection.size()) {
    return {false, "k_mismatch"};
  }
  if (state->seed != options.seed || state->eps != options.eps) {
    return {false, "params_changed"};
  }
  if (state->overflow) return {false, "delta_overflow"};
  const NodeId n = graph.num_nodes();
  if (n < state->source_n) return {false, "node_count_shrank"};
  if (n - state->source_n > kWarmMaxNewNodes) {
    return {false, "too_many_new_nodes"};
  }
  const double m = static_cast<double>(std::max<EdgeId>(graph.num_edges(), 1));
  if (static_cast<double>(state->touched.size()) >
      kWarmMaxDeltaFraction * m) {
    return {false, "delta_too_large"};
  }
  if (state->addition_share >= 0.5) return {false, "addition_share"};
  if (!IsConnected(graph)) return {false, "disconnected"};
  return {true, "ok"};
}

StatusOr<CfcmResult> ForestSolveWithWarm(
    const Graph& graph, int k, const CfcmOptions& options, WarmMode mode,
    const std::shared_ptr<const WarmState>& warm,
    std::shared_ptr<const WarmState>* deposit) {
  CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));

  const bool lazy = options.selection == SelectionMode::kLazy;
  WarmDecision decision{false, "warm_off"};
  if (mode != WarmMode::kOff && lazy) {
    decision = DecideWarm(graph, warm.get(), k, options);
  }

  if (!decision.use_warm) {
    WarmCapture capture;
    StatusOr<CfcmResult> cold = ForestCfcmMaximizeCaptured(
        graph, k, options, (deposit != nullptr && lazy) ? &capture : nullptr);
    if (!cold.ok()) return cold;
    // A fallback is counted when warm solving was in play at all: mode
    // kOn always, mode kAuto only once a state existed to fall back
    // from (a first solve is simply cold, not a failed warm start).
    cold->cold_fallback =
        lazy && (mode == WarmMode::kOn ||
                 (mode == WarmMode::kAuto && warm != nullptr));
    if (cold->cold_fallback) {
      RecordIncrementalCounters(0, 0, 0, 1, 0);
    }
    if (deposit != nullptr && lazy) {
      *deposit =
          DepositFromCapture(graph, options, *cold, std::move(capture));
    }
    return cold;
  }

  Timer timer;
  const WarmState& state = *warm;
  const NodeId n = graph.num_nodes();

  // Identity fast path: nothing touched since the state was built, so
  // the stored selection IS the cold selection for this graph — return
  // it verbatim (bitwise parity with the cold solve it came from).
  if (state.touched.empty() && !state.structural && n == state.source_n) {
    CfcmResult result = state.base_result;
    result.forests_per_iteration.clear();
    for (const SolveCounter& counter : kSolveCounters) {
      result.*counter.field = 0;
    }
    result.warm_started = true;
    result.cold_fallback = false;
    result.seconds = timer.Seconds();
    if (deposit != nullptr) *deposit = warm;
    RecordIncrementalCounters(0, 0, 1, 0, 0);
    return result;
  }

  ThreadPool& pool = ResolveSamplingPool(options);
  CfcmResult result;
  result.warm_started = true;
  std::vector<NodeId> selection = state.selection;

  std::vector<char> in_s(static_cast<std::size_t>(n), 0);
  for (NodeId s : selection) in_s[static_cast<std::size_t>(s)] = 1;
  const std::vector<NodeId> contenders =
      TopContenders(state, in_s, kWarmContenders);

  // Exclusive arena access for the whole repair; AdvanceWarmState and
  // concurrent warm solves on the same state race for the same claim,
  // losers just sample fresh.
  std::shared_ptr<ArenaLease> lease;
  if (state.lease != nullptr && n == state.source_n &&
      state.lease->TryClaim()) {
    lease = state.lease;
  }

  // ---- Phase A: re-certify the incumbent's final pick. One
  // subset-restricted estimate rooted at selection[0..k-2] on the
  // final-round stream — clean forests replay verbatim, dirty ones and
  // the addition-correction share resample from the salted stream.
  std::vector<NodeId> s_prev(selection.begin(), selection.end() - 1);
  const NodeId incumbent = selection.back();
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  mask[static_cast<std::size_t>(incumbent)] = 1;
  for (NodeId c : contenders) mask[static_cast<std::size_t>(c)] = 1;
  for (NodeId u = state.source_n; u < n; ++u) {
    mask[static_cast<std::size_t>(u)] = 1;  // new nodes always contend
  }

  EstimatorOptions est = ToEstimatorOptions(options);
  est.seed = state.final_seed;
  DeltaScope scope;
  scope.subset = &mask;
  std::vector<char> replay;
  int committed_before = 0;
  const uint64_t salt = std::max<uint64_t>(state.epoch_salt, 1);
  if (lease != nullptr &&
      lease->arena.MatchesRound(n, s_prev, state.final_seed)) {
    committed_before = lease->arena.committed();
    replay = state.clean;
    replay.resize(static_cast<std::size_t>(committed_before), 0);
    // Importance correction for edge additions: force-resample the
    // highest-indexed clean slots until the share is covered.
    int forced = static_cast<int>(
        std::ceil(state.addition_share * committed_before));
    for (int f = committed_before - 1; f >= 0 && forced > 0; --f) {
      if (replay[static_cast<std::size_t>(f)]) {
        replay[static_cast<std::size_t>(f)] = 0;
        --forced;
      }
    }
    scope.arena = &lease->arena;
    scope.replay_clean = &replay;
    scope.resample_seed = state.final_seed ^ (kSaltStep * salt);
  }

  const DeltaEstimate a = ForestDelta(graph, s_prev, est, pool, scope);
  result.jl_rows = a.jl_rows;
  result.total_walk_steps += a.walk_steps;
  result.forests_reused += a.reused_forests;
  result.forests_resampled +=
      std::min(a.forests, committed_before) - a.reused_forests;
  result.forests_per_iteration.push_back(a.forests - a.reused_forests);
  result.total_forests += a.forests - a.reused_forests;
  for (std::size_t u = 0; u < mask.size(); ++u) {
    if (mask[u]) ++result.rescored_candidates;
  }

  double phase_a_best_gain = 0.0;
  const NodeId phase_a_best = BestInSubset(a, mask, &phase_a_best_gain);
  if (phase_a_best >= 0 && phase_a_best != incumbent) {
    in_s[static_cast<std::size_t>(incumbent)] = 0;
    in_s[static_cast<std::size_t>(phase_a_best)] = 1;
    selection.back() = phase_a_best;
    ++result.swap_moves;
  }
  double last_gain = phase_a_best_gain;

  // ---- Phase B: re-contest earlier members whose incident delta
  // weight is material relative to their weighted degree (drop-one /
  // add-best, one sweep, fresh per-member streams).
  for (int i = 0; i + 1 < k; ++i) {
    const NodeId s_i = selection[static_cast<std::size_t>(i)];
    double incident = 0.0;
    for (const auto& e : state.touched) {
      if (e.u == s_i || e.v == s_i) incident += e.abs_dw;
    }
    const double degree_w =
        std::max(graph.weighted_degree(s_i), std::numeric_limits<double>::min());
    if (incident / degree_w <= kWarmSwapImpact) continue;

    std::vector<NodeId> roots;
    roots.reserve(static_cast<std::size_t>(k) - 1);
    for (int j = 0; j < k; ++j) {
      if (j != i) roots.push_back(selection[static_cast<std::size_t>(j)]);
    }
    std::fill(mask.begin(), mask.end(), 0);
    mask[static_cast<std::size_t>(s_i)] = 1;
    for (NodeId c : contenders) {
      if (!in_s[static_cast<std::size_t>(c)]) {
        mask[static_cast<std::size_t>(c)] = 1;
      }
    }
    for (NodeId u = state.source_n; u < n; ++u) {
      if (!in_s[static_cast<std::size_t>(u)]) {
        mask[static_cast<std::size_t>(u)] = 1;
      }
    }

    EstimatorOptions est_b = ToEstimatorOptions(options);
    est_b.seed = state.final_seed ^
                 (kSwapSeedStep * static_cast<uint64_t>(i + 1)) ^
                 (kSaltStep * salt);
    DeltaScope scope_b;
    scope_b.subset = &mask;
    const DeltaEstimate b = ForestDelta(graph, roots, est_b, pool, scope_b);
    result.total_walk_steps += b.walk_steps;
    result.forests_per_iteration.push_back(b.forests);
    result.total_forests += b.forests;
    for (std::size_t u = 0; u < mask.size(); ++u) {
      if (mask[u]) ++result.rescored_candidates;
    }

    double best_gain = 0.0;
    const NodeId best = BestInSubset(b, mask, &best_gain);
    // Swapping an earlier member perturbs the whole greedy chain, so
    // the challenger must clear the incumbent by kWarmSwapMargin, not
    // just win the draw.
    const double incumbent_gain = b.delta[static_cast<std::size_t>(s_i)];
    if (best >= 0 && best != s_i &&
        best_gain > incumbent_gain * (1.0 + kWarmSwapMargin)) {
      in_s[static_cast<std::size_t>(s_i)] = 0;
      in_s[static_cast<std::size_t>(best)] = 1;
      selection[static_cast<std::size_t>(i)] = best;
      ++result.swap_moves;
    }
  }

  result.selected = selection;
  result.seconds = timer.Seconds();

  // ---- Successor deposit: merged candidate scores, and the arena iff
  // its root set still matches selection[0..k-2] (a Phase B swap of an
  // earlier member invalidates the roots; a last-pick swap does not).
  if (deposit != nullptr) {
    auto next = std::make_shared<WarmState>();
    next->eps = options.eps;
    next->seed = options.seed;
    next->selection = selection;
    next->gains.assign(static_cast<std::size_t>(n), 0.0);
    next->keys.assign(static_cast<std::size_t>(n), 0.0);
    for (NodeId u = 0; u < state.source_n; ++u) {
      next->gains[static_cast<std::size_t>(u)] =
          state.gains[static_cast<std::size_t>(u)];
      next->keys[static_cast<std::size_t>(u)] =
          state.keys[static_cast<std::size_t>(u)];
    }
    for (std::size_t u = 0; u < mask.size(); ++u) {
      // Phase A refreshed these on the current graph; fold them in with
      // the estimator's own width factor, mirroring the lazy heap keys.
      if (!mask[u]) continue;
      const double g = a.delta[u];
      const double rel = std::min(a.rel[u], kLazyWidthCap);
      next->gains[u] = g;
      next->keys[u] = g * (1.0 + rel);
    }
    for (NodeId s : selection) {
      next->gains[static_cast<std::size_t>(s)] = 0.0;
      next->keys[static_cast<std::size_t>(s)] = 0.0;
    }
    next->last_gain = last_gain;
    next->final_seed = state.final_seed;
    next->base_result = result;
    next->source_n = n;
    next->epoch_salt = state.epoch_salt + 1;
    if (lease != nullptr) {
      const std::vector<NodeId> new_prev(selection.begin(),
                                         selection.end() - 1);
      if (lease->arena.MatchesRound(n, new_prev, state.final_seed)) {
        const int committed_now = lease->arena.committed();
        next->clean.assign(static_cast<std::size_t>(committed_now), 1);
        // Slots past this solve's batch count keep their pre-solve
        // classification (they were neither replayed nor resampled).
        for (int f = a.forests; f < committed_before; ++f) {
          next->clean[static_cast<std::size_t>(f)] =
              replay[static_cast<std::size_t>(f)];
        }
        auto fresh_lease = std::make_shared<ArenaLease>();
        fresh_lease->arena = std::move(lease->arena);
        next->lease = std::move(fresh_lease);
      }
    }
    *deposit = std::move(next);
  }

  RecordIncrementalCounters(result.forests_reused, result.forests_resampled,
                            1, 0, result.swap_moves);
  return result;
}

}  // namespace cfcm
