#include "cfcm/lazy_greedy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "cfcm/cfcc.h"
#include "estimators/first_pick.h"
#include "obs/metrics.h"

namespace cfcm {

// ---------------------------------------------------------------- LazyHeap

void LazyHeap::Reset(NodeId n) {
  heap_.clear();
  pos_.assign(static_cast<std::size_t>(n), -1);
}

bool LazyHeap::Contains(NodeId id) const {
  return pos_[static_cast<std::size_t>(id)] >= 0;
}

void LazyHeap::Place(std::size_t i, LazyHeapEntry entry) {
  heap_[i] = entry;
  pos_[static_cast<std::size_t>(entry.id)] = static_cast<int>(i);
}

void LazyHeap::SiftUp(std::size_t i) {
  LazyHeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Precedes(entry, heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, entry);
}

void LazyHeap::SiftDown(std::size_t i) {
  LazyHeapEntry entry = heap_[i];
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= size) break;
    if (child + 1 < size && Precedes(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Precedes(heap_[child], entry)) break;
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, entry);
}

void LazyHeap::Push(NodeId id, double key, double gain, int round) {
  assert(!Contains(id));
  heap_.push_back(LazyHeapEntry{id, key, gain, round});
  pos_[static_cast<std::size_t>(id)] = static_cast<int>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
}

LazyHeapEntry LazyHeap::Pop() {
  assert(!heap_.empty());
  LazyHeapEntry top = heap_.front();
  pos_[static_cast<std::size_t>(top.id)] = -1;
  LazyHeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    Place(0, last);
    SiftDown(0);
  }
  return top;
}

// ------------------------------------------------------------------ driver

void RecordSelectionCounters(std::int64_t rescored, std::int64_t pops,
                             std::int64_t reused) {
  static obs::Counter* const rescored_total =
      &obs::MetricsRegistry::Global().counter(
          "engine.selection.rescored_candidates");
  static obs::Counter* const pops_total =
      &obs::MetricsRegistry::Global().counter("engine.selection.heap_pops");
  static obs::Counter* const reused_total =
      &obs::MetricsRegistry::Global().counter(
          "engine.selection.forests_reused");
  rescored_total->Add(static_cast<uint64_t>(rescored));
  pops_total->Add(static_cast<uint64_t>(pops));
  reused_total->Add(static_cast<uint64_t>(reused));
}

namespace {

// Stale candidates re-scored per refresh batch: the floor of the first
// batch and the slack added to the frontier prediction.
constexpr std::size_t kLazyBatch = 8;

// Safety margin on stale keys: a refreshed top must exceed
// (1 + kLazyInflation) x the best stale key before it is selected.
// Stale keys already carry the estimator's own per-node Bernstein width
// factor (1 + rel) — each round re-scores on an independent
// forest/sketch draw, so a stale gain is a noisy sample of the current
// gain, not an upper bound (§13). This margin covers the residual
// cross-round drift of the true gain on top of that width; the value is
// validated by the pinned lazy-equals-exhaustive regression suite, and
// raising it only moves lazy monotonically toward the exhaustive scan.
constexpr double kLazyInflation = 0.5;

// True when a refreshed gain out-ranks a stale heap entry under the §13
// margin: fresh > (1 + inflation) * decay^age * stale key, ties going
// to the lower node id (the exhaustive scan's tie-break). Stale keys
// already carry the estimator's own width factor (1 + rel); the
// inflation term covers the residual cross-round drift of the true
// gain, and `decay` is the calibrated per-round gain-scale ratio (1
// when no consistent decay has been observed), raised to the number of
// rounds the entry has sat unrefreshed — a key scored several rounds
// ago is at that round's gain scale, not the current one.
bool BeatsStale(double fresh_gain, NodeId fresh_id, const LazyHeapEntry& top,
                double decay, int round) {
  const double age = static_cast<double>(std::max(1, round - top.round));
  const double bar = top.key * std::pow(decay, age) * (1.0 + kLazyInflation);
  if (fresh_gain != bar) return fresh_gain > bar;
  return fresh_id < top.id;
}

// Calibrates the round's gain-decay factor from refresh probes: each
// refreshed candidate whose previous-round gain was positive yields a
// ratio fresh/stale. Selecting a node collapses every remaining gain by
// a roughly uniform factor (often 5-20x after a hub), which makes raw
// stale keys vacuously large; the survival bar is rescaled by the 75th
// percentile of the observed ratios — a conservative quantile of the
// uniform decay, never above 1. On graphs where ratios straddle 1
// (pure sampling noise, no real decay) the factor stays ~1 and the bar
// remains the plain width-inflated key.
// The p75 of a handful of samples sits near their max and would
// whipsaw the bar; below this floor the carried-over estimate from the
// previous round is the better predictor. Graphs too small to ever
// reach it (all pinned regression graphs) never calibrate and keep the
// conservative no-decay bar throughout.
constexpr std::size_t kMinProbes = 32;

double CalibrateDecay(std::vector<double>& ratios, double fallback) {
  if (ratios.size() < kMinProbes) return fallback;
  std::sort(ratios.begin(), ratios.end());
  const double p75 = ratios[(3 * ratios.size()) / 4];
  return std::min(1.0, std::max(p75, 1e-3));
}

// A candidate refreshed this round: the point gain drives the argmax,
// the width-inflated key re-enters the heap, and the stale key it was
// popped with feeds the next round's batch predictor.
struct RoundEntry {
  NodeId id = -1;
  double gain = 0.0;
  double key = 0.0;
  int round = 0;
};

// Each round starts from the previous round's decay calibration relaxed
// toward 1 by this factor (the no-decay assumption is the conservative
// side: an under-estimated decay discounts stale keys too far and can
// accept a fresh winner before the true best was ever refreshed).
constexpr double kDecayRelax = 2.0;

// The decayed regime latches only when a calibration observes gains
// collapsing past this ratio — real hub-collapse trajectories measure
// p75 of 0.1-0.5, while pure sampling noise keeps the p75 near or
// above 1. Together with the node floor below, this keeps every small
// regression graph on the unbounded fail-safe path deterministically.
constexpr double kDecayedThreshold = 0.8;

// The budgeted regime saves O(n) work per round; on small graphs the
// saving is noise while the heuristic costs exhaustive-equality, so
// the latch additionally requires at least this many nodes.
constexpr NodeId kDecayedMinNodes = 256;

// Forest-target multiplier for re-score calls in the decayed regime.
// Once a real gain decay has been calibrated the survival certificate
// is already heuristic (noise dwarfs it), and halving the sampling
// budget for the budgeted re-scores costs ~sqrt(2) extra noise on a
// ranking the full budget could not certify either. rel[] is computed
// from the actual sample size, so the wider keys stay honest.
constexpr double kDecayedForestScale = 0.5;

}  // namespace

StatusOr<CfcmResult> LazyGreedySelect(const Graph& graph, int k,
                                      const CfcmOptions& options,
                                      ThreadPool& pool,
                                      const LazyDeltaFn& delta_fn,
                                      bool /*allow_forest_reuse*/,
                                      WarmCapture* capture) {
  CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
  const NodeId n = graph.num_nodes();
  EstimatorOptions est = ToEstimatorOptions(options);

  CfcmResult result;
  std::vector<char> in_s(static_cast<std::size_t>(n), 0);
  LazyHeap heap;
  heap.Reset(n);

  // The final pick's winning gain, carried out of the round loop for the
  // warm capture.
  double last_pick_gain = 0.0;

  // Iteration 1: argmin of the pseudoinverse diagonal, identical to the
  // exhaustive path. The full score vector seeds the heap (satellite of
  // §13): -x_u orders candidates by first-round promise, and round 2
  // refreshes them all in one call, so no extra estimator pass runs.
  {
    const FirstPickResult first = EstimateFirstPick(graph, est, pool);
    last_pick_gain = -first.scores[first.best];
    result.selected.push_back(first.best);
    in_s[first.best] = 1;
    result.forests_per_iteration.push_back(first.forests);
    result.total_forests += first.forests;
    result.total_walk_steps += first.walk_steps;
    for (NodeId u = 0; u < n; ++u) {
      if (u != first.best) heap.Push(u, -first.scores[u], -first.scores[u], 0);
    }
  }

  // Round arena: every refresh call of a round samples the same forest
  // stream, so escalation calls replay the forests the first call stored
  // instead of re-walking them. A new round's (roots, seed) signature
  // resets it; the slab memory is recycled.
  ForestArena arena;
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  std::vector<RoundEntry> fresh;  // refreshed this round
  std::vector<LazyHeapEntry> batch;
  // First-batch size for the next round: last round's surviving-frontier
  // count plus slack. Sizing the first refresh call right is what keeps
  // a round at ~one estimator schedule; overshoot costs only O(w) folds
  // per extra candidate while undershoot re-runs the per-forest passes.
  std::size_t predicted = kLazyBatch;
  // Gain-decay factor carried across rounds: the decay regime is a
  // slowly-varying property of the trajectory, so each round starts
  // from the previous round's calibration relaxed toward 1 (the
  // conservative no-decay assumption) and re-calibrates once enough
  // probes accumulate. `decayed` latches once any calibration observes
  // a real decay; it switches the pop loop from the unbounded
  // fail-safe mode to the budgeted mode.
  double decay = 1.0;
  bool decayed = false;

  for (int i = 1; i < k; ++i) {
    const uint64_t seed_i =
        options.seed + static_cast<uint64_t>(i) * 0x9e3779b9ULL;

    // ---- CELF refresh loop. Fresh gains leave the heap for the round
    // (tracked in `fresh`), so the heap top is always the best *stale*
    // key and the §13 survival test is a single comparison.
    fresh.clear();
    double best_gain = -std::numeric_limits<double>::infinity();
    NodeId best_id = -1;
    const bool force_all = (i == 1);  // round 2: heap keys are only
                                      // first-pick scores, refresh all
    int round_fresh_forests = 0;
    decay = std::min(1.0, kDecayRelax * decay);
    std::vector<double> ratios;  // fresh/stale probes for CalibrateDecay
    // Batch floor: kLazyBatch or n/32, whichever is larger. A
    // micro-batch that fails survival costs a whole extra estimator
    // call (passes re-paid), so tiny predictions are rounded up — the
    // marginal folds are cheap insurance.
    const std::size_t floor_batch =
        std::max(kLazyBatch, static_cast<std::size_t>(n) / 32);
    const std::size_t first_want = std::max(floor_batch, predicted);
    // Pop budget for the decayed regime. Once a consistent gain decay
    // has been calibrated (sticky: the regime is a property of the
    // trajectory, not of one round's draw), the survival certificate is
    // known to be vacuous against a low noise draw of the round winner
    // — one unlucky fresh sample makes every stale bar unbeatable and
    // would drag the round to a full refresh that exhaustive-level
    // noise cannot justify. The budget stops the pop loop at ~2x the
    // predicted frontier, clamped to [n/8, n/4]; the winner is then the
    // best of the refreshed frontier (a heuristic, documented in §13).
    // Trajectories that never calibrate a decay (too few probes, or
    // ratios straddling 1 — all pinned regression graphs) keep the
    // unbounded fail-safe loop and stay bitwise equal to the exhaustive
    // scan.
    const std::size_t pop_cap = std::max<std::size_t>(
        std::max<std::size_t>(static_cast<std::size_t>(n) / 8, floor_batch),
        std::min<std::size_t>(2 * first_want,
                              static_cast<std::size_t>(n) / 4));
    while (!heap.empty()) {
      if (!force_all && best_id >= 0 &&
          BeatsStale(best_gain, best_id, heap.Top(), decay, i)) {
        break;
      }
      const bool capped = !force_all && decayed;
      if (capped && !fresh.empty() && fresh.size() >= pop_cap) break;
      batch.clear();
      std::fill(mask.begin(), mask.end(), 0);
      // Batch ladder: the predictor's frontier estimate first, then a
      // 4x escalation if survival fails, then everything left. Each
      // extra call re-pays only the per-forest passes (the round's
      // arena replays the walks), so the ladder bounds a mispredicted
      // round at three calls while keeping the re-score count near the
      // true frontier size. In the decayed regime the round ends at the
      // pop budget anyway, so the whole budget is popped up front and
      // the round is a single call.
      std::size_t want;
      if (capped && fresh.empty()) {
        want = std::min<std::size_t>(heap.size(), pop_cap);
      } else if (force_all || fresh.size() > first_want ||
                 (!capped && 4 * first_want >= 3 * heap.size())) {
        // force_all, a second escalation, or a predicted batch covering
        // most of the heap: refresh everything left. When that is the
        // whole candidate set the mask is dropped below and the call is
        // the exhaustive path.
        want = heap.size();
      } else if (!fresh.empty()) {
        // First escalation after a failed survival test.
        want = std::min<std::size_t>(heap.size(),
                                     std::max<std::size_t>(4 * fresh.size(),
                                                           256));
      } else {
        want = std::min<std::size_t>(heap.size(), first_want);
      }
      if (capped && !fresh.empty()) {
        want = std::min(want, pop_cap > fresh.size() ? pop_cap - fresh.size()
                                                     : floor_batch);
      }
      for (std::size_t c = 0; c < want; ++c) {
        batch.push_back(heap.Pop());
        ++result.heap_pops;
        mask[batch.back().id] = 1;
      }
      // A batch covering every remaining candidate is the exhaustive
      // call itself; dropping the mask keeps it bitwise identical to
      // the exhaustive path.
      const bool full_cover =
          fresh.empty() && heap.empty() &&
          batch.size() ==
              static_cast<std::size_t>(n) - result.selected.size();
      DeltaScope scope;
      scope.subset = full_cover ? nullptr : &mask;
      scope.arena = &arena;
      // Budgeted decayed-regime re-scores also run at a reduced forest
      // target; full-cover calls keep the full budget so the "refresh
      // everything" path stays the exhaustive call.
      if (capped && !full_cover) scope.forest_scale = kDecayedForestScale;
      const DeltaEstimate d = delta_fn(result.selected, seed_i, scope);
      result.rescored_candidates += static_cast<std::int64_t>(batch.size());
      result.jl_rows = d.jl_rows;
      result.total_walk_steps += d.walk_steps;
      result.forests_reused += d.reused_forests;
      round_fresh_forests += d.forests - d.reused_forests;
      for (const LazyHeapEntry& e : batch) {
        const double g = d.delta[e.id];
        const double rel = e.id < static_cast<NodeId>(d.rel.size())
                               ? std::min(d.rel[e.id], kLazyWidthCap)
                               : 0.0;
        fresh.push_back(RoundEntry{e.id, g, g * (1.0 + rel), i});
        // Decay probe: only last-round gains sample the single-round
        // decay; older entries have decayed over several rounds and
        // applying one round's ratio to them is the conservative side.
        if (e.round == i - 1 && e.gain > 0.0) ratios.push_back(g / e.gain);
        if (g > best_gain || (g == best_gain && e.id < best_id)) {
          best_gain = g;
          best_id = e.id;
        }
      }
      if (!force_all && ratios.size() >= kMinProbes) {
        decay = CalibrateDecay(ratios, decay);
        if (decay < kDecayedThreshold && n >= kDecayedMinNodes) {
          decayed = true;
        }
      }
    }
    assert(best_id >= 0);
    last_pick_gain = best_gain;
    result.selected.push_back(best_id);
    in_s[best_id] = 1;
    result.forests_per_iteration.push_back(round_fresh_forests);
    result.total_forests += round_fresh_forests;
    for (const RoundEntry& e : fresh) {
      if (e.id == best_id) continue;
      heap.Push(e.id, e.key, e.gain, e.round);
    }
    // Next round's frontier estimate: entries whose key could still
    // clear the survival bar are the ones the next round is likely to
    // pop before its own test fires. The count runs over the WHOLE heap
    // (stale entries skipped this round re-enter the frontier once the
    // bar decays to their level) and mirrors the next round's bar
    // exactly: keys discounted by the RELAXED decay raised to the
    // entry's age there. The bar's reference — next round's best — is
    // the larger of this round's best after one (unrelaxed) decay step
    // and the best discounted stale key deflated by the width margin:
    // when the round winner was a low noise draw, comparing the whole
    // heap against it alone would promote the next round to a full
    // refresh. The 1.5x overshoot is deliberate: an undershoot costs a
    // second estimator schedule, an overshoot only extra folds.
    const double next_decay = std::min(1.0, kDecayRelax * decay);
    double exp_next = best_gain * decay;
    for (const LazyHeapEntry& e : heap.entries()) {
      const double age = static_cast<double>(std::max(1, i + 1 - e.round));
      const double disc = e.key * std::pow(next_decay, age);
      exp_next = std::max(exp_next, disc * decay / (1.0 + kLazyInflation));
    }
    std::size_t frontier = 0;
    for (const LazyHeapEntry& e : heap.entries()) {
      const double age = static_cast<double>(std::max(1, i + 1 - e.round));
      if (e.key * std::pow(next_decay, age) * (1.0 + kLazyInflation) >=
          exp_next) {
        ++frontier;
      }
    }
    predicted = frontier + frontier / 2 + kLazyBatch;
  }

  if (capture != nullptr) {
    capture->gains.assign(static_cast<std::size_t>(n), 0.0);
    capture->keys.assign(static_cast<std::size_t>(n), 0.0);
    for (const LazyHeapEntry& e : heap.entries()) {
      capture->gains[static_cast<std::size_t>(e.id)] = e.gain;
      capture->keys[static_cast<std::size_t>(e.id)] = e.key;
    }
    capture->last_gain = last_pick_gain;
    capture->final_seed =
        options.seed + static_cast<uint64_t>(k - 1) * 0x9e3779b9ULL;
    capture->has_arena = k >= 2;
    if (k >= 2) capture->arena = std::move(arena);
  }
  RecordSelectionCounters(result.rescored_candidates, result.heap_pops,
                          result.forests_reused);
  return result;
}

}  // namespace cfcm
