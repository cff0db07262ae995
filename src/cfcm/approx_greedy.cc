#include "cfcm/approx_greedy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "cfcm/cfcc.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace cfcm {

StatusOr<ApproxGreedyResult> ApproxGreedyMaximize(const Graph& graph, int k,
                                                  const CfcmOptions& options,
                                                  const CgOptions& cg) {
  CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
  Timer timer;
  const NodeId n = graph.num_nodes();
  const std::size_t nn = static_cast<std::size_t>(n);
  const EstimatorOptions est = ToEstimatorOptions(options);
  const int w = ResolveJlRows(est, n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(w));
  // Weighted incidence: L = B^T W_e B, so sketch rows are scaled by
  // sqrt(w_e) per edge (1.0 on unit-weighted graphs, bit-identical to
  // the unweighted sketch).
  const auto edges = graph.WeightedEdges();
  std::vector<double> sqrt_w(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    sqrt_w[e] = std::sqrt(edges[e].weight);
  }

  ApproxGreedyResult result;
  ThreadPool& pool = ResolveSamplingPool(options);
  // A step's w solves run across the pool in chunks of at most
  // kChunkPerThread systems per pool thread. Each solution is kept in its
  // own row until its chunk joins; the chunk is then folded in index
  // order, so every sum is the serial loop's. The buffer is bounded by
  // the pool size, not by w: at most 8 * kChunkPerThread = 128 bytes per
  // node per executor, under each executor's own 184 bytes of lane
  // arrays. A chunk of only kCgLanes systems per thread left no lane
  // refills and ran ~1.5x slower at 4 threads (BA(4000,4), k = 8).
  constexpr int kChunkPerThread = 4 * kCgLanes;
  const int chunk =
      std::min(w, static_cast<int>(pool.num_threads()) * kChunkPerThread);
  Vector solutions(static_cast<std::size_t>(chunk) * nn);
  std::vector<int> iterations(static_cast<std::size_t>(chunk));
  using BlockFn =
      std::function<void(int count, const CgLoadFn&, const CgStoreFn&)>;
  // Solves systems 0..w-1 of one step through `block` and adds
  // sum_i x_i(u)^2 into *acc.
  auto solve_step = [&](const BlockFn& block, const CgLoadFn& load,
                        std::vector<double>* acc) {
    for (int base = 0; base < w; base += chunk) {
      const int count = std::min(chunk, w - base);
      block(
          count,
          [&](int j, Vector* rhs, Vector* x) { load(base + j, rhs, x); },
          [&](int j, const Vector& x, const CgSummary& summary) {
            std::copy(x.begin(), x.end(),
                      solutions.begin() + static_cast<std::ptrdiff_t>(j * nn));
            iterations[static_cast<std::size_t>(j)] = summary.iterations;
          });
      for (int j = 0; j < count; ++j) {
        const double* sol =
            solutions.data() + static_cast<std::size_t>(j) * nn;
        for (std::size_t u = 0; u < nn; ++u) (*acc)[u] += sol[u] * sol[u];
        result.cg_iterations += iterations[static_cast<std::size_t>(j)];
      }
    }
    result.solver_calls += w;
  };

  // ---- Pick 1: L†_uu ≈ sum_i (L† B^T W_e^{1/2} q_i)_u^2.
  std::vector<double> score(nn, 0.0);
  solve_step(
      [&](int count, const CgLoadFn& load, const CgStoreFn& store) {
        SolveLaplacianPseudoinverseBlock(graph, count, load, store, pool, cg);
      },
      [&](int i, Vector* rhs, Vector*) {
        Rng rng(options.seed ^ 0x1f123bb5ULL, static_cast<uint64_t>(i));
        for (std::size_t e = 0; e < edges.size(); ++e) {
          const double q = rng.NextBool() ? scale : -scale;
          (*rhs)[edges[e].u] += sqrt_w[e] * q;
          (*rhs)[edges[e].v] -= sqrt_w[e] * q;
        }
      },
      &score);
  std::vector<char> in_s(nn, 0);
  const NodeId first = static_cast<NodeId>(
      std::min_element(score.begin(), score.end()) - score.begin());
  result.selected.push_back(first);
  in_s[first] = 1;

  // ---- Picks 2..k.
  std::vector<double> numerator(nn), denominator(nn), sqrt_boundary(nn);
  for (int pick = 1; pick < k; ++pick) {
    LaplacianSubmatrixOp op(graph, in_s);
    const BlockFn grounded = [&](int count, const CgLoadFn& load,
                                 const CgStoreFn& store) {
      SolveGroundedBlock(op, count, load, store, pool, cg);
    };
    std::fill(numerator.begin(), numerator.end(), 0.0);
    std::fill(denominator.begin(), denominator.end(), 0.0);

    // Numerator: ||W L_{-S}^{-1} e_u||^2, rows of W are Rademacher/sqrt(w)
    // over V \ S.
    solve_step(
        grounded,
        [&](int i, Vector* rhs, Vector*) {
          Rng rng(options.seed ^ 0x53a5ca9dULL,
                  (static_cast<uint64_t>(pick) << 32) |
                      static_cast<uint64_t>(i));
          for (NodeId u = 0; u < n; ++u) {
            if (!in_s[u]) (*rhs)[u] = rng.NextBool() ? scale : -scale;
          }
        },
        &numerator);
    // Denominator: (L_{-S}^{-1})_uu = ||B~ L_{-S}^{-1} e_u||^2 with
    // B~^T B~ = L_{-S}: interior incidence rows + sqrt(b_u) boundary rows.
    // b_u = total conductance from u into S (the grounding term of
    // L_{-S}); integer edge count when unit-weighted. 0 marks no row.
    for (NodeId u = 0; u < n; ++u) {
      double boundary = 0;
      if (!in_s[u]) {
        const auto adj = graph.neighbors(u);
        const auto wts = graph.weights(u);
        for (std::size_t k = 0; k < adj.size(); ++k) {
          if (in_s[adj[k]]) boundary += wts.empty() ? 1.0 : wts[k];
        }
      }
      sqrt_boundary[u] = boundary > 0 ? std::sqrt(boundary) : 0.0;
    }
    solve_step(
        grounded,
        [&](int i, Vector* rhs, Vector*) {
          Rng rng(options.seed ^ 0x7ee39a1bULL,
                  (static_cast<uint64_t>(pick) << 32) |
                      static_cast<uint64_t>(i));
          for (std::size_t e = 0; e < edges.size(); ++e) {
            if (in_s[edges[e].u] || in_s[edges[e].v]) continue;
            const double q = rng.NextBool() ? scale : -scale;
            (*rhs)[edges[e].u] += sqrt_w[e] * q;
            (*rhs)[edges[e].v] -= sqrt_w[e] * q;
          }
          for (NodeId u = 0; u < n; ++u) {
            if (sqrt_boundary[u] > 0) {
              const double q = rng.NextBool() ? scale : -scale;
              (*rhs)[u] += sqrt_boundary[u] * q;
            }
          }
        },
        &denominator);

    NodeId best = -1;
    double best_delta = -1;
    for (NodeId u = 0; u < n; ++u) {
      if (in_s[u]) continue;
      const double floor = 1.0 / (graph.weighted_degree(u) + 1.0);
      const double delta = numerator[u] / std::max(denominator[u], floor);
      if (delta > best_delta) {
        best_delta = delta;
        best = u;
      }
    }
    result.selected.push_back(best);
    in_s[best] = 1;
  }
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace cfcm
