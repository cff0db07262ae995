// Shared JL-sketched sampling kernel under ForestDelta and SchurDelta.
//
// Both Alg. 2 and Alg. 4 run the same per-forest core: sample a rooted
// forest, compute JL subtree sums, run the diagonal and JL prefix
// passes, and fold per-node first/second moments of X_f and Y_f into
// shared accumulators. This kernel implements that core once over the
// sampling runtime (DESIGN.md §9); SchurDelta subclasses it to add the
// rooted-probability counters and per-tree JL sums of Lemma 4.2. The
// per-node finish of both estimates (debiased numerator, floored
// denominator, Bernstein width) is DeltaFinisher, also written once.
#ifndef CFCM_ESTIMATORS_JL_KERNEL_H_
#define CFCM_ESTIMATORS_JL_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "estimators/forest_delta.h"
#include "forest/bfs_tree.h"
#include "forest/wilson.h"
#include "linalg/jl.h"
#include "runtime/forest_arena.h"
#include "runtime/mc_runtime.h"

namespace cfcm {

/// Running per-node moment sums over the forests merged so far.
struct JlMoments {
  JlMoments(NodeId n, int w);

  std::vector<double> sum_x;     ///< sum of X_f(u)
  std::vector<double> sum_sq_x;  ///< sum of X_f(u)^2
  std::vector<double> sum_y;     ///< sum of Y_f(u), node-major n x w
  std::vector<double> sum_y_sq;  ///< sum of ||Y_f(u)||^2
};

class JlForestKernel : public ForestKernel {
 public:
  /// `scaffold` and `sketch` must outlive the kernel. `slots` is
  /// McScratchSlots(pool) for the pool the kernel will run on.
  JlForestKernel(const Graph& graph, const TreeScaffold& scaffold,
                 const JlSketch& sketch, uint64_t seed, int jl_rows,
                 std::size_t slots);

  /// Restricts the X/Y moment accumulation to nodes with mask[u] != 0
  /// (null = every non-root node). The per-forest passes stay global —
  /// prefix recursions need every ancestor — but the O(w)-per-node fold
  /// and therefore the accumulator contract shrink to the subset.
  /// A node's accumulated moments at forest count r are bitwise
  /// identical with or without a mask covering it.
  void set_subset(const std::vector<char>* mask) { subset_ = mask; }

  /// Wires in a forest arena: ProcessForest replays forests below the
  /// arena's committed count (no walks, bitwise-identical statistics)
  /// and stores freshly sampled ones for later calls.
  void set_arena(ForestArena* arena) { arena_ = arena; }

  /// Incremental replay plan (DESIGN.md §16). With `clean` set, a
  /// committed forest index f is replayed only when f < clean->size()
  /// and (*clean)[f] != 0; other committed indices are *resampled* on
  /// the current graph from the independent stream Rng(resample_seed, f)
  /// and their arena slots overwritten. Indices at or beyond the
  /// committed count keep the kernel's base seed (those (seed, index)
  /// pairs were never drawn). Null `clean` restores plain replay.
  void set_replay_plan(const std::vector<char>* clean,
                       uint64_t resample_seed) {
    replay_clean_ = clean;
    resample_seed_ = resample_seed;
  }

  /// Forests replayed from the arena instead of sampled.
  int reused_forests() const {
    return reused_.load(std::memory_order_relaxed);
  }

  std::int64_t ProcessForest(std::size_t slot,
                             std::uint64_t forest_index) override;
  void Accumulate(std::size_t slot, NodeId begin, NodeId end) override;

  /// Folds the batch partials into the running sums and clears them for
  /// the next batch.
  void MergeBatch(JlMoments* moments);

 protected:
  struct Scratch {
    Scratch(const Graph& graph, int w)
        : sampler(graph),
          xbuf(static_cast<std::size_t>(graph.num_nodes())),
          sub(static_cast<std::size_t>(graph.num_nodes()) * w),
          ybuf(static_cast<std::size_t>(graph.num_nodes()) * w),
          yrow(static_cast<std::size_t>(graph.num_nodes())) {}

    ForestSampler sampler;
    const RootedForest* forest = nullptr;  ///< last sampled forest
    RootedForest replay;       ///< arena-replayed forest (when used)
    std::vector<double> xbuf;
    std::vector<double> sub;   ///< JL subtree sums, node-major n x w
    std::vector<double> ybuf;  ///< Y_f rows, node-major n x w
    std::vector<NodeId> yrow;  ///< Y_f(u) is ybuf row yrow[u]
  };

  /// Subclass hook, called inside the ordered shard commit after the
  /// X/Y moments of [begin, end) are folded. Same determinism contract.
  virtual void AccumulateExtra(const Scratch& scratch, NodeId begin,
                               NodeId end) {
    (void)scratch;
    (void)begin;
    (void)end;
  }

  const Scratch& scratch(std::size_t slot) const { return *scratch_[slot]; }
  const TreeScaffold& scaffold() const { return scaffold_; }
  int jl_rows() const { return jl_rows_; }

 private:
  const TreeScaffold& scaffold_;
  const JlSketch& sketch_;
  const uint64_t seed_;
  const int jl_rows_;
  const std::vector<char>* subset_ = nullptr;
  ForestArena* arena_ = nullptr;
  const std::vector<char>* replay_clean_ = nullptr;
  uint64_t resample_seed_ = 0;
  std::atomic<int> reused_{0};
  std::vector<std::unique_ptr<Scratch>> scratch_;
  // Batch partials — exactly one copy regardless of thread count.
  std::vector<double> partial_sum_x_;
  std::vector<double> partial_sum_sq_x_;
  std::vector<double> partial_sum_y_;  // node-major n x w
  std::vector<double> partial_sum_y_sq_;
};

/// \brief Per-node finish of ForestDelta and of SchurDelta's U nodes at
/// the final forest count r.
///
/// Finish(u, zu, num, mean_sq) subtracts the plug-in bias of the sampled
/// numerator, floors the denominator at the Neumann bound 1/(d_w(u)+1),
/// and writes z[u], numerator[u], delta[u] and the relative
/// empirical-Bernstein half-width rel[u] (Lemma 3.6) into `out`. `zu` is
/// the denominator estimate, `num` the squared norm of the numerator
/// vector (sampled mean plus any exact correction) and `mean_sq` the
/// squared norm of the sampled mean alone. log(3/delta) is computed
/// once, at construction.
class DeltaFinisher {
 public:
  DeltaFinisher(const Graph& graph, const TreeScaffold& scaffold,
                const JlMoments& moments, int forests, double delta_fail,
                DeltaEstimate* out);

  void Finish(NodeId u, double zu, double num, double mean_sq) const;

 private:
  const Graph& graph_;
  const TreeScaffold& scaffold_;
  const JlMoments& moments_;
  const int forests_;
  const double inv_r_;
  const double delta_fail_;
  const double log_term_;
  DeltaEstimate* const out_;
};

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_JL_KERNEL_H_
