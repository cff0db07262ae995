#include "estimators/jl_kernel.h"

#include <algorithm>
#include <cmath>

#include "estimators/bernstein.h"
#include "estimators/phi_estimators.h"
#include "forest/subtree.h"

namespace cfcm {

JlMoments::JlMoments(NodeId n, int w)
    : sum_x(static_cast<std::size_t>(n), 0.0),
      sum_sq_x(static_cast<std::size_t>(n), 0.0),
      sum_y(static_cast<std::size_t>(n) * w, 0.0),
      sum_y_sq(static_cast<std::size_t>(n), 0.0) {}

JlForestKernel::JlForestKernel(const Graph& graph, const TreeScaffold& scaffold,
                               const JlSketch& sketch, uint64_t seed,
                               int jl_rows, std::size_t slots)
    : scaffold_(scaffold),
      sketch_(sketch),
      seed_(seed),
      jl_rows_(jl_rows),
      partial_sum_x_(static_cast<std::size_t>(graph.num_nodes()), 0.0),
      partial_sum_sq_x_(static_cast<std::size_t>(graph.num_nodes()), 0.0),
      partial_sum_y_(static_cast<std::size_t>(graph.num_nodes()) * jl_rows,
                     0.0),
      partial_sum_y_sq_(static_cast<std::size_t>(graph.num_nodes()), 0.0) {
  scratch_.reserve(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    scratch_.push_back(std::make_unique<Scratch>(graph, jl_rows));
  }
}

std::int64_t JlForestKernel::ProcessForest(std::size_t slot,
                                           std::uint64_t forest_index) {
  Scratch& ws = *scratch_[slot];
  std::int64_t walk_steps = 0;
  const bool stored =
      arena_ != nullptr &&
      forest_index < static_cast<std::uint64_t>(arena_->committed());
  const bool replayable =
      stored &&
      (replay_clean_ == nullptr ||
       (forest_index < replay_clean_->size() &&
        (*replay_clean_)[forest_index] != 0));
  if (replayable) {
    // Replay: same (seed, index) stream would resample the identical
    // forest, so the copied slabs feed the passes bit-for-bit — only
    // the loop-erased walks are skipped.
    arena_->LoadInto(static_cast<int>(forest_index), &ws.replay);
    ws.forest = &ws.replay;
    reused_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A stored-but-dirty slot resamples from the resample stream, never
    // the base stream: (seed_, forest_index) already produced the
    // rejected forest, so drawing from it again would not be an
    // independent sample of the post-delta measure.
    Rng rng(stored ? resample_seed_ : seed_, forest_index);
    ws.forest = &ws.sampler.Sample(scaffold_.is_root, &rng);
    walk_steps = ws.sampler.last_walk_steps();
    if (arena_ != nullptr &&
        forest_index < static_cast<std::uint64_t>(arena_->capacity())) {
      arena_->Store(static_cast<int>(forest_index), *ws.forest);
    }
  }
  SubtreeJlSums(*ws.forest, scaffold_.is_root, sketch_, ws.sub.data());
  DiagJlPrefixPass(scaffold_, *ws.forest, ws.sub.data(), jl_rows_, &ws.xbuf,
                   ws.ybuf.data(), ws.yrow.data());
  return walk_steps;
}

void JlForestKernel::Accumulate(std::size_t slot, NodeId begin, NodeId end) {
  const Scratch& ws = *scratch_[slot];
  const int w = jl_rows_;
  for (NodeId u = begin; u < end; ++u) {
    if (subset_ != nullptr && !(*subset_)[u]) continue;
    if (scaffold_.is_root[u]) continue;
    const double x = ws.xbuf[u];
    partial_sum_x_[u] += x;
    partial_sum_sq_x_[u] += x * x;
    const double* yr =
        ws.ybuf.data() + static_cast<std::size_t>(ws.yrow[u]) * w;
    double* acc = partial_sum_y_.data() + static_cast<std::size_t>(u) * w;
    double sq = 0;
    for (int j = 0; j < w; ++j) {
      acc[j] += yr[j];
      sq += yr[j] * yr[j];
    }
    partial_sum_y_sq_[u] += sq;
  }
  AccumulateExtra(ws, begin, end);
}

void JlForestKernel::MergeBatch(JlMoments* moments) {
  for (std::size_t u = 0; u < partial_sum_x_.size(); ++u) {
    moments->sum_x[u] += partial_sum_x_[u];
    moments->sum_sq_x[u] += partial_sum_sq_x_[u];
    moments->sum_y_sq[u] += partial_sum_y_sq_[u];
  }
  for (std::size_t i = 0; i < partial_sum_y_.size(); ++i) {
    moments->sum_y[i] += partial_sum_y_[i];
  }
  std::fill(partial_sum_x_.begin(), partial_sum_x_.end(), 0.0);
  std::fill(partial_sum_sq_x_.begin(), partial_sum_sq_x_.end(), 0.0);
  std::fill(partial_sum_y_.begin(), partial_sum_y_.end(), 0.0);
  std::fill(partial_sum_y_sq_.begin(), partial_sum_y_sq_.end(), 0.0);
}

DeltaFinisher::DeltaFinisher(const Graph& graph, const TreeScaffold& scaffold,
                             const JlMoments& moments, int forests,
                             double delta_fail, DeltaEstimate* out)
    : graph_(graph),
      scaffold_(scaffold),
      moments_(moments),
      forests_(forests),
      inv_r_(1.0 / static_cast<double>(forests)),
      delta_fail_(delta_fail),
      log_term_(std::log(3.0 / delta_fail)),
      out_(out) {}

void DeltaFinisher::Finish(NodeId u, double zu, double num,
                           double mean_sq) const {
  // Aggregate variance across sketch rows: sum_j Var(Y_j) = mean
  // ||Y_f||^2 - ||mean Y||^2. Used both to debias the numerator and as
  // the Bernstein variance proxy.
  const double v_tot =
      std::max(0.0, moments_.sum_y_sq[u] * inv_r_ - mean_sq);
  // E[sum_j Ybar_j^2] = ||E Y||^2 + sum_j Var(Y_j)/r: subtract the
  // plug-in bias (it scales with depth^2 and would systematically favor
  // deep nodes on high-diameter graphs).
  if (forests_ > 1) {
    num = std::max(num - v_tot / static_cast<double>(forests_ - 1), 0.0);
  }
  out_->z[u] = zu;
  out_->numerator[u] = num;
  // (L^{-1}_{-S})_uu >= 1/d_w(u) by the Neumann-series bound (paper
  // Lemma 3.9; weighted degree = Laplacian diagonal); clamp the
  // denominator so sampling noise cannot blow up the ratio.
  const double z_floor = 1.0 / (graph_.weighted_degree(u) + 1.0);
  out_->delta[u] = num / std::max(zu, z_floor);

  const double sup_x = 2.0 * scaffold_.resistance_depth[u];
  const double hz = EmpiricalBernsteinHalfWidth(
      forests_, moments_.sum_x[u], moments_.sum_sq_x[u], sup_x, delta_fail_);
  const double h_base = 2.0 * log_term_ * v_tot * inv_r_;
  const double h_num = 2.0 * std::sqrt(num * h_base) + h_base;
  out_->rel[u] = h_num / std::max(num, 1e-300) + hz / std::max(zu, z_floor);
}

}  // namespace cfcm
