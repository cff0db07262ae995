#include "estimators/reuse_delta.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>

#include "estimators/phi_estimators.h"
#include "forest/bfs_tree.h"
#include "forest/subtree.h"
#include "linalg/jl.h"
#include "runtime/mc_runtime.h"

namespace cfcm {

namespace {

// Replays arena forests with v's up-edge cut and folds importance-
// weighted X/Y moments for the candidate set. Same ordered-commit
// determinism contract as the sampling kernels, but no sampler: the
// "forest" comes from the arena and the walk-step count is always 0.
class ReuseKernel final : public ForestKernel {
 public:
  ReuseKernel(const Graph& graph, const TreeScaffold& scaffold,
              const JlSketch& sketch, NodeId v,
              const std::vector<char>& candidates, const ForestArena& arena,
              int jl_rows, std::size_t slots)
      : graph_(graph),
        scaffold_(scaffold),
        sketch_(sketch),
        v_(v),
        candidates_(candidates),
        arena_(arena),
        jl_rows_(jl_rows),
        wsum_x_(static_cast<std::size_t>(graph.num_nodes()), 0.0),
        wsum_sq_x_(static_cast<std::size_t>(graph.num_nodes()), 0.0),
        wsum_y_(static_cast<std::size_t>(graph.num_nodes()) * jl_rows, 0.0),
        wsum_y_sq_(static_cast<std::size_t>(graph.num_nodes()), 0.0) {
    scratch_.reserve(slots);
    const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
    for (std::size_t t = 0; t < slots; ++t) {
      auto ws = std::make_unique<Scratch>();
      ws->member.assign(n, 0);
      ws->xbuf.assign(n, 0.0);
      ws->sub.assign(n * jl_rows, 0.0);
      ws->ybuf.assign(n * jl_rows, 0.0);
      ws->yrow.assign(n, 0);
      scratch_.push_back(std::move(ws));
    }
  }

  std::int64_t ProcessForest(std::size_t slot,
                             std::uint64_t forest_index) override {
    Scratch& ws = *scratch_[slot];
    arena_.LoadInto(static_cast<int>(forest_index), &ws.forest);
    RootedForest& f = ws.forest;

    // Membership of v's subtree under the stored forest: reversed
    // leaves-first order visits parents before children.
    std::fill(ws.member.begin(), ws.member.end(), 0);
    ws.member[v_] = 1;
    for (auto it = f.leaves_first.rbegin(); it != f.leaves_first.rend();
         ++it) {
      const NodeId u = *it;
      if (u != v_ && ws.member[f.parent[u]]) ws.member[u] = 1;
    }

    // W_out(v): conductance from v to outside its (cut) tree. Each such
    // edge is one way to reconnect, so it is the importance tilt.
    const auto adj = graph_.neighbors(v_);
    const auto wts = graph_.weights(v_);
    double w_out = 0.0;
    for (std::size_t k = 0; k < adj.size(); ++k) {
      if (!ws.member[adj[k]]) w_out += wts.empty() ? 1.0 : wts[k];
    }
    ws.weight = w_out > 0.0 ? 1.0 / w_out : 0.0;
    if (ws.weight == 0.0) return 0;  // unreachable under the cut map

    // Cut: v becomes a root of the replayed forest. leaves_first must
    // drop v (SubtreeJlSums dereferences parent unconditionally).
    f.parent[v_] = -1;
    f.leaves_first.erase(
        std::find(f.leaves_first.begin(), f.leaves_first.end(), v_));

    SubtreeJlSums(f, scaffold_.is_root, sketch_, ws.sub.data());
    DiagPrefixPass(scaffold_, f, &ws.xbuf);
    JlPrefixPass(scaffold_, f, ws.sub.data(), jl_rows_, ws.ybuf.data(),
                 ws.yrow.data());
    return 0;
  }

  void Accumulate(std::size_t slot, NodeId begin, NodeId end) override {
    const Scratch& ws = *scratch_[slot];
    const double wgt = ws.weight;
    if (wgt == 0.0) return;
    const int w = jl_rows_;
    for (NodeId u = begin; u < end; ++u) {
      if (!candidates_[u] || scaffold_.is_root[u]) continue;
      const double x = ws.xbuf[u];
      wsum_x_[u] += wgt * x;
      wsum_sq_x_[u] += wgt * x * x;
      const double* yr =
          ws.ybuf.data() + static_cast<std::size_t>(ws.yrow[u]) * w;
      double* acc = wsum_y_.data() + static_cast<std::size_t>(u) * w;
      double sq = 0;
      for (int j = 0; j < w; ++j) {
        acc[j] += wgt * yr[j];
        sq += yr[j] * yr[j];
      }
      wsum_y_sq_[u] += wgt * sq;
    }
  }

  void AccumulateTail(std::size_t slot) override {
    const double wgt = scratch_[slot]->weight;
    wsum_ += wgt;
    wsum_sq_ += wgt * wgt;
    if (wgt == 0.0) ++zero_weight_;
  }

  double wsum() const { return wsum_; }
  double wsum_sq() const { return wsum_sq_; }
  int zero_weight() const { return zero_weight_; }
  double wx(NodeId u) const { return wsum_x_[u]; }
  double wxx(NodeId u) const { return wsum_sq_x_[u]; }
  const double* wy(NodeId u) const {
    return wsum_y_.data() + static_cast<std::size_t>(u) * jl_rows_;
  }
  double wysq(NodeId u) const { return wsum_y_sq_[u]; }

 private:
  struct Scratch {
    RootedForest forest;
    std::vector<char> member;
    std::vector<double> xbuf;
    std::vector<double> sub;
    std::vector<double> ybuf;
    std::vector<NodeId> yrow;
    double weight = 0.0;
  };

  const Graph& graph_;
  const TreeScaffold& scaffold_;
  const JlSketch& sketch_;
  const NodeId v_;
  const std::vector<char>& candidates_;
  const ForestArena& arena_;
  const int jl_rows_;
  std::vector<std::unique_ptr<Scratch>> scratch_;
  std::vector<double> wsum_x_;
  std::vector<double> wsum_sq_x_;
  std::vector<double> wsum_y_;  // node-major n x w
  std::vector<double> wsum_y_sq_;
  double wsum_ = 0.0;
  double wsum_sq_ = 0.0;
  int zero_weight_ = 0;
};

}  // namespace

ReuseEstimate ReuseDelta(const Graph& graph,
                         const std::vector<NodeId>& s_new, NodeId v_new,
                         const std::vector<char>& candidates,
                         const ForestArena& arena,
                         const EstimatorOptions& options, ThreadPool& pool) {
  const NodeId n = graph.num_nodes();
  ReuseEstimate result;
  result.gain.assign(static_cast<std::size_t>(n), 0.0);
  result.rel.assign(static_cast<std::size_t>(n),
                    std::numeric_limits<double>::infinity());
  result.forests = arena.committed();
  if (result.forests <= 1) return result;

  const TreeScaffold scaffold = MakeTreeScaffold(graph, s_new);
  const int w = ResolveJlRows(options, n);
  const double delta_fail = ResolveBernsteinDelta(options, n);
  // Same sketch-seed convention as ForestDelta's fresh call this round,
  // so an accepted pre-screen and a fallback refresh are exchangeable.
  const JlSketch sketch(w, n, options.seed ^ 0x9d2c5680a76b3f01ULL);

  ReuseKernel kernel(graph, scaffold, sketch, v_new, candidates, arena, w,
                     McScratchSlots(pool));
  McRunOptions run;
  run.num_nodes = n;
  RunForestBatch(pool, run, 0, result.forests, kernel);

  result.zero_weight = kernel.zero_weight();
  const double wsum = kernel.wsum();
  const double wsum_sq = kernel.wsum_sq();
  if (wsum <= 0.0 || wsum_sq <= 0.0) return result;
  result.ess = wsum * wsum / wsum_sq;
  if (result.ess < 2.0) return result;
  result.usable = true;

  const double log_term = std::log(3.0 / delta_fail);
  const double inv_w = 1.0 / wsum;
  for (NodeId u = 0; u < n; ++u) {
    if (!candidates[u] || scaffold.is_root[u]) continue;
    const double zbar = kernel.wx(u) * inv_w;
    const double var_x =
        std::max(0.0, kernel.wxx(u) * inv_w - zbar * zbar);
    const double* yu = kernel.wy(u);
    double raw_num = 0;
    for (int j = 0; j < w; ++j) {
      const double m = yu[j] * inv_w;
      raw_num += m * m;
    }
    const double v_tot = std::max(0.0, kernel.wysq(u) * inv_w - raw_num);
    const double num =
        std::max(raw_num - v_tot / (result.ess - 1.0), 0.0);
    const double z_floor = 1.0 / (graph.weighted_degree(u) + 1.0);
    result.gain[u] = num / std::max(zbar, z_floor);
    // Bernstein-style widths at the effective sample size: heuristic
    // (IS weights are not i.i.d. bounded samples) but conservative in
    // r_eff, which collapses when the weights are skewed.
    const double sup_x = 2.0 * scaffold.resistance_depth[u];
    const double hz = std::sqrt(2.0 * var_x * log_term / result.ess) +
                      3.0 * sup_x * log_term / result.ess;
    const double h_base = 2.0 * log_term * v_tot / result.ess;
    const double h_num = 2.0 * std::sqrt(num * h_base) + h_base;
    result.rel[u] =
        h_num / std::max(num, 1e-300) + hz / std::max(zbar, z_floor);
  }
  return result;
}

}  // namespace cfcm
