#include "estimators/schur_delta.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "estimators/jl_kernel.h"
#include "forest/bfs_tree.h"
#include "linalg/jl.h"
#include "linalg/ldlt.h"

namespace cfcm {

namespace {

// JlForestKernel plus the Schur-specific statistics of Lemma 4.2: the
// rooted-probability counters F~(u, t) and one per-tree JL sum (a forest
// sample of W F) committed in forest order through the tail slot.
class SchurKernel final : public JlForestKernel {
 public:
  SchurKernel(const Graph& graph, const TreeScaffold& scaffold,
              const JlSketch& sketch, uint64_t seed, int jl_rows,
              std::size_t slots, const std::vector<NodeId>& t_nodes,
              const std::vector<int>& t_index)
      : JlForestKernel(graph, scaffold, sketch, seed, jl_rows, slots),
        t_nodes_(t_nodes),
        t_index_(t_index),
        nt_(static_cast<int>(t_nodes.size())),
        partial_counts_(
            static_cast<std::size_t>(graph.num_nodes()) * t_nodes.size(), 0),
        partial_sum_wf_(static_cast<std::size_t>(jl_rows) * t_nodes.size(),
                        0.0) {}

  void AccumulateTail(std::size_t slot) override {
    // Per-tree JL sums: subtree sums at roots t in T are exactly
    // sum_{v rooted at t} W_[:,v], i.e. one forest sample of (W F).
    const Scratch& ws = scratch(slot);
    const int w = jl_rows();
    for (int t = 0; t < nt_; ++t) {
      const double* st =
          ws.sub.data() + static_cast<std::size_t>(t_nodes_[t]) * w;
      for (int j = 0; j < w; ++j) {
        partial_sum_wf_[static_cast<std::size_t>(j) * nt_ + t] += st[j];
      }
    }
  }

  /// Folds the Schur partials into the running accumulators and clears
  /// them (companion to JlForestKernel::MergeBatch).
  void MergeSchurBatch(std::vector<uint32_t>* counts,
                       std::vector<double>* sum_wf) {
    for (std::size_t i = 0; i < partial_counts_.size(); ++i) {
      (*counts)[i] += partial_counts_[i];
    }
    for (std::size_t i = 0; i < partial_sum_wf_.size(); ++i) {
      (*sum_wf)[i] += partial_sum_wf_[i];
    }
    std::fill(partial_counts_.begin(), partial_counts_.end(), 0u);
    std::fill(partial_sum_wf_.begin(), partial_sum_wf_.end(), 0.0);
  }

 protected:
  void AccumulateExtra(const Scratch& ws, NodeId begin, NodeId end) override {
    // Rooted-probability counter (Lemma 4.2): rho_u = t.
    for (NodeId u = begin; u < end; ++u) {
      if (scaffold().is_root[u]) continue;
      const int ti = t_index_[ws.forest->root_of[u]];
      if (ti >= 0) {
        ++partial_counts_[static_cast<std::size_t>(u) * nt_ + ti];
      }
    }
  }

 private:
  const std::vector<NodeId>& t_nodes_;
  const std::vector<int>& t_index_;
  const int nt_;
  std::vector<uint32_t> partial_counts_;  // root-of counters, node-major
  std::vector<double> partial_sum_wf_;    // per-tree JL sums, w x |T|
};

// Inverts the estimated Schur complement, escalating a diagonal ridge if
// sampling noise made it numerically indefinite.
DenseMatrix InvertWithRidge(DenseMatrix schur, double* ridge_used) {
  const int nt = schur.rows();
  double max_diag = 0;
  for (int i = 0; i < nt; ++i) {
    max_diag = std::max(max_diag, std::abs(schur(i, i)));
  }
  double ridge = 0;
  for (int attempt = 0; attempt < 9; ++attempt) {
    DenseMatrix trial = schur;
    for (int i = 0; i < nt; ++i) trial(i, i) += ridge;
    auto ldlt = LdltFactorization::Compute(trial);
    if (ldlt.ok()) {
      *ridge_used = ridge;
      return ldlt->Inverse();
    }
    ridge = (ridge == 0) ? 1e-8 * std::max(1.0, max_diag) : ridge * 10.0;
  }
  // Last resort: few forests can leave the estimate indefinite even at a
  // ridge of 0.1 max_diag. LDL^T reads the lower triangle, mirrored; a
  // ridge past that matrix's largest Gershgorin excess makes it strictly
  // diagonally dominant, hence positive definite, with every pivot at
  // least the dominance margin. Flagged via ridge_used.
  double excess = 0;
  for (int i = 0; i < nt; ++i) {
    double radius = 0;
    for (int j = 0; j < i; ++j) radius += std::abs(schur(i, j));
    for (int j = i + 1; j < nt; ++j) radius += std::abs(schur(j, i));
    excess = std::max(excess, radius - schur(i, i));
  }
  ridge = excess + 0.1 * std::max(1.0, max_diag);
  for (int i = 0; i < nt; ++i) schur(i, i) += ridge;
  auto ldlt = LdltFactorization::Compute(schur);
  assert(ldlt.ok());
  *ridge_used = ridge;
  return ldlt->Inverse();
}

}  // namespace

SchurDeltaEstimate SchurDelta(const Graph& graph,
                              const std::vector<NodeId>& s_nodes,
                              const std::vector<NodeId>& t_nodes,
                              const EstimatorOptions& options,
                              ThreadPool& pool, const DeltaScope& scope) {
  const NodeId n = graph.num_nodes();
  const int nt = static_cast<int>(t_nodes.size());
  assert(!s_nodes.empty() && nt > 0);

  std::vector<NodeId> roots = s_nodes;
  roots.insert(roots.end(), t_nodes.begin(), t_nodes.end());
  const TreeScaffold scaffold = MakeTreeScaffold(graph, roots);
  assert(static_cast<NodeId>(scaffold.roots.size()) ==
             static_cast<NodeId>(s_nodes.size()) + nt &&
         "S and T must be disjoint");

  const int w = ResolveJlRows(options, n);
  const int target = ResolveTargetForests(options, n, scope.forest_scale);
  const double delta_fail = ResolveBernsteinDelta(options, n);
  const JlSketch sketch(w, n, options.seed ^ 0xc4ceb9fe1a85ec53ULL);

  // Q in R^{w x |T|}: the JL block covering the T coordinates (Alg. 4
  // line 4); W covers U through `sketch` (roots carry zero weight).
  std::vector<double> q(static_cast<std::size_t>(w) * nt);
  {
    Rng rng(options.seed ^ 0x2545f4914f6cdd1dULL);
    const double scale = 1.0 / std::sqrt(static_cast<double>(w));
    for (double& v : q) v = rng.NextBool() ? scale : -scale;
  }

  std::vector<int> t_index(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < nt; ++i) t_index[t_nodes[i]] = i;
  std::vector<char> in_s(static_cast<std::size_t>(n), 0);
  for (NodeId s : s_nodes) in_s[s] = 1;

  const std::vector<char>* subset = scope.subset;
  SchurKernel kernel(graph, scaffold, sketch, options.seed, w,
                     McScratchSlots(pool), t_nodes, t_index);
  kernel.set_subset(subset);
  if (scope.arena != nullptr) {
    scope.arena->BeginRound(n, roots, options.seed, target);
    kernel.set_arena(scope.arena);
  }

  JlMoments moments(n, w);
  std::vector<uint32_t> counts(static_cast<std::size_t>(n) * nt, 0);
  std::vector<double> sum_wf(static_cast<std::size_t>(w) * nt, 0.0);

  SchurDeltaEstimate result;
  result.jl_rows = w;
  result.auxiliary_roots = nt;
  result.delta.assign(static_cast<std::size_t>(n), 0.0);
  result.z.assign(static_cast<std::size_t>(n), 0.0);
  result.numerator.assign(static_cast<std::size_t>(n), 0.0);
  result.rel.assign(static_cast<std::size_t>(n), 0.0);

  const McRunStats run =
      RunForestSchedule(pool, n, options.min_batch, target, kernel, [&] {
        kernel.MergeBatch(&moments);
        kernel.MergeSchurBatch(&counts, &sum_wf);
      });
  const int total = run.forests;
  result.walk_steps = run.walk_steps;

  // Block reconstruction of Eq. (11) at the final sample count r, and
  // each node's relative empirical-Bernstein width on the forest-sampled
  // parts.
  const double inv_r = 1.0 / static_cast<double>(total);

  // Schur complement from rooted probabilities, Eq. (15):
  // S~(i,j) = L(t_i,t_j) - sum_{u ~ t_i, u in U} w(t_i,u) F~(u, j).
  DenseMatrix schur(nt, nt);
  for (int i = 0; i < nt; ++i) {
    const NodeId ti = t_nodes[i];
    const auto adj = graph.neighbors(ti);
    const auto wts = graph.weights(ti);
    schur(i, i) = graph.weighted_degree(ti);
    for (std::size_t k = 0; k < adj.size(); ++k) {
      const int j = t_index[adj[k]];
      if (j >= 0) schur(i, j) = wts.empty() ? -1.0 : -wts[k];
    }
    for (std::size_t k = 0; k < adj.size(); ++k) {
      const NodeId u = adj[k];
      if (scaffold.is_root[u]) continue;  // only u in U contribute
      const double w_tu = wts.empty() ? 1.0 : wts[k];
      const uint32_t* row = counts.data() + static_cast<std::size_t>(u) * nt;
      for (int j = 0; j < nt; ++j) {
        schur(i, j) -= w_tu * (static_cast<double>(row[j]) * inv_r);
      }
    }
  }
  const DenseMatrix g = InvertWithRidge(std::move(schur), &result.ridge);

  // M = (W F~ + Q) G  in R^{w x |T|}.
  DenseMatrix wfq(w, nt);
  for (int j = 0; j < w; ++j) {
    for (int t = 0; t < nt; ++t) {
      wfq(j, t) = sum_wf[static_cast<std::size_t>(j) * nt + t] * inv_r +
                  q[static_cast<std::size_t>(j) * nt + t];
    }
  }
  const DenseMatrix m = wfq.Multiply(g);

  const DeltaFinisher finisher(graph, scaffold, moments, total, delta_fail,
                               &result);
  std::vector<int> nz;
  nz.reserve(static_cast<std::size_t>(nt));
  std::vector<double> ycorr(static_cast<std::size_t>(w));
  for (NodeId u = 0; u < n; ++u) {
    if (in_s[u]) {
      result.delta[u] = result.z[u] = result.numerator[u] = 0.0;
      continue;
    }
    if (subset != nullptr && !(*subset)[u]) continue;  // stays 0
    const int tu = t_index[u];
    double zu = 0, num = 0;
    if (tu >= 0) {
      // u in T: column t of L^{-1}_{-S} is [F G e_t ; G e_t] (Eq. 11).
      zu = g(tu, tu);
      for (int j = 0; j < w; ++j) num += m(j, tu) * m(j, tu);
      result.z[u] = zu;
      result.numerator[u] = num;
      result.delta[u] = num / std::max(zu, 1e-12);
      continue;
    }
    // u in U: z_u = (L^{-1}_UU)_uu + f_u^T G f_u,
    //         Y_j(u) = Phi_{W_j}(u) + (M f_u)_j, with f_u = counts/r.
    const uint32_t* row = counts.data() + static_cast<std::size_t>(u) * nt;
    nz.clear();
    for (int t = 0; t < nt; ++t) {
      if (row[t] != 0) nz.push_back(t);
    }
    double corr_z = 0;
    for (int a : nz) {
      const double fa = static_cast<double>(row[a]) * inv_r;
      for (int b : nz) {
        corr_z += fa * static_cast<double>(row[b]) * inv_r * g(a, b);
      }
    }
    zu = moments.sum_x[u] * inv_r + corr_z;
    std::fill(ycorr.begin(), ycorr.end(), 0.0);
    for (int a : nz) {
      const double fa = static_cast<double>(row[a]) * inv_r;
      for (int j = 0; j < w; ++j) ycorr[j] += m(j, a) * fa;
    }
    const double* yu = moments.sum_y.data() + static_cast<std::size_t>(u) * w;
    double mean_sq = 0;
    for (int j = 0; j < w; ++j) {
      const double mj = yu[j] * inv_r;
      mean_sq += mj * mj;
      const double v = mj + ycorr[j];
      num += v * v;
    }
    // Only the sampled part carries the plug-in bias (see DeltaFinisher).
    finisher.Finish(u, zu, num, mean_sq);
  }
  // T nodes carry no Bernstein stream of their own (their values come
  // out of the Schur algebra); give them the widest U width so the
  // lazy layer never under-inflates a T candidate's stale key.
  double max_rel = 0.0;
  for (NodeId u = 0; u < n; ++u) max_rel = std::max(max_rel, result.rel[u]);
  for (NodeId t : t_nodes) {
    if (subset != nullptr && !(*subset)[t]) continue;
    result.rel[t] = max_rel;
  }
  result.forests = total;
  result.reused_forests = kernel.reused_forests();
  if (scope.arena != nullptr) scope.arena->Commit(total);
  return result;
}

}  // namespace cfcm
