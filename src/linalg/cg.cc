#include "linalg/cg.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace cfcm {

namespace {

// Subtracts the mean so the vector is orthogonal to the all-ones kernel.
void ProjectAgainstOnes(Vector* v) {
  double mean = 0;
  for (double x : *v) mean += x;
  mean /= static_cast<double>(v->size());
  for (double& x : *v) x -= mean;
}

// ap = L_{-S} p on W interleaved lanes (node u, lane l at u * W + l) and
// pap[l] = <p_l, ap_l>. Per lane these are exactly the operations of
// LaplacianSubmatrixOp::Apply followed by Dot, in node order; one
// neighbour load and mask test serve all W lanes.
template <int W, bool kWeighted>
void ApplyLanes(const Graph& graph, const std::vector<char>& removed,
                const Vector& diag, const double* p, double* ap,
                double* pap) {
  const NodeId n = graph.num_nodes();
  const EdgeId* offsets = graph.offsets().data();
  const NodeId* adj = graph.raw_neighbors().data();
  const double* weights = graph.raw_weights().data();
  std::array<double, W> dot{};
  for (NodeId u = 0; u < n; ++u) {
    const double* pu = p + static_cast<std::size_t>(u) * W;
    std::array<double, W> acc{};
    if (!removed[u]) {
      for (int l = 0; l < W; ++l) acc[l] = diag[u] * pu[l];
      for (EdgeId k = offsets[u]; k < offsets[u + 1]; ++k) {
        const NodeId v = adj[k];
        if (removed[v]) continue;
        const double* pv = p + static_cast<std::size_t>(v) * W;
        if constexpr (kWeighted) {
          for (int l = 0; l < W; ++l) acc[l] -= weights[k] * pv[l];
        } else {
          for (int l = 0; l < W; ++l) acc[l] -= pv[l];
        }
      }
    }
    double* apu = ap + static_cast<std::size_t>(u) * W;
    for (int l = 0; l < W; ++l) {
      apu[l] = acc[l];
      dot[l] += pu[l] * acc[l];
    }
  }
  for (int l = 0; l < W; ++l) pap[l] = dot[l];
}

// Lane-blocked Jacobi PCG: the one CG recurrence in this repository.
//
// W systems advance together on interleaved n x W arrays. Each lane runs
// the textbook single-vector recurrence with its operations in their
// order — sums in node order, r / weighted_degree, the residual test at
// the top of each iteration, the !(pap > 0) breakdown exit, the
// max_iterations cap, the b_norm == 0 early exit — so its iterates are
// bit-identical to W = 1 whatever the other lanes hold. A lane that
// finishes stores its solution and loads the next system at the top of
// the following iteration. `project` re-projects x and r against the
// all-ones vector every iteration (the pseudoinverse solve).
template <int W>
void BlockPcg(const LaplacianSubmatrixOp& op, bool project, int count,
              const CgLoadFn& load, const CgStoreFn& store,
              const CgOptions& options) {
  const Graph& graph = op.graph();
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<char> removed(n);
  Vector diag(n);
  for (std::size_t u = 0; u < n; ++u) {
    removed[u] = op.removed(static_cast<NodeId>(u)) ? 1 : 0;
    diag[u] = graph.weighted_degree(static_cast<NodeId>(u));
  }

  Vector x(n * W, 0.0), r(n * W, 0.0), z(n * W, 0.0), p(n * W, 0.0),
      ap(n * W, 0.0);
  Vector b_in(n), x_in(n), ap_in(n);  // one system, contiguous

  // Lane state; job < 0 marks an idle lane (kIdle once its arrays are
  // zero, so it computes zeros without touching denormals or NaNs).
  constexpr int kIdle = -1;
  constexpr int kRetired = -2;
  std::array<int, W> job, iterations;
  std::array<double, W> b_norm{}, rz{}, rr{}, rel{}, alpha{}, beta{},
      pap{}, rz_next{};
  job.fill(kIdle);
  iterations.fill(0);
  int next = 0;

  auto lane = [](Vector& v, std::size_t u, int l) -> double& {
    return v[u * W + static_cast<std::size_t>(l)];
  };
  auto retire = [&](int l, bool converged) {
    for (std::size_t u = 0; u < n; ++u) x_in[u] = lane(x, u, l);
    store(job[l], x_in, CgSummary{iterations[l], rel[l], converged});
    job[l] = kRetired;
  };
  // Loads the next system into lane l; false when none is left. Systems
  // with b = 0 finish here without entering a lane.
  auto start = [&](int l) {
    while (next < count) {
      const int j = next++;
      std::fill(b_in.begin(), b_in.end(), 0.0);
      std::fill(x_in.begin(), x_in.end(), 0.0);
      load(j, &b_in, &x_in);
      assert(b_in.size() == n && x_in.size() == n);
      for (std::size_t u = 0; u < n; ++u) {
        if (removed[u]) b_in[u] = x_in[u] = 0;
      }
      if (project) {
        ProjectAgainstOnes(&b_in);
        ProjectAgainstOnes(&x_in);
      }
      const double norm = Norm2(b_in);
      if (norm == 0.0) {
        x_in.assign(n, 0.0);
        store(j, x_in, CgSummary{0, 0.0, true});
        continue;
      }
      // r = b - A x. With x = +0 every product and difference in A x is
      // +0, so r = b bitwise and the adjacency pass is skipped.
      if (std::any_of(x_in.begin(), x_in.end(), [](double v) {
            return v != 0.0 || std::signbit(v);
          })) {
        op.Apply(x_in, &ap_in);
        for (std::size_t u = 0; u < n; ++u) ap_in[u] = b_in[u] - ap_in[u];
      } else {
        ap_in = b_in;
      }
      op.ApplyJacobi(ap_in, &b_in);  // r in ap_in, z in b_in
      for (std::size_t u = 0; u < n; ++u) {
        lane(x, u, l) = x_in[u];
        lane(r, u, l) = ap_in[u];
        lane(z, u, l) = lane(p, u, l) = b_in[u];
      }
      job[l] = j;
      iterations[l] = 0;
      b_norm[l] = norm;
      rz[l] = Dot(ap_in, b_in);
      rr[l] = Dot(ap_in, ap_in);
      return true;
    }
    return false;
  };

  for (;;) {
    // Top of iteration: residual test, cap, and refill of finished lanes.
    bool any_active = false;
    for (int l = 0; l < W; ++l) {
      for (;;) {
        if (job[l] < 0 && !start(l)) {
          if (job[l] == kRetired) {
            for (Vector* v : {&x, &r, &z, &p}) {
              for (std::size_t u = 0; u < n; ++u) lane(*v, u, l) = 0.0;
            }
            job[l] = kIdle;
          }
          break;
        }
        rel[l] = std::sqrt(rr[l]) / b_norm[l];
        if (rel[l] <= options.tolerance) {
          retire(l, true);
        } else if (iterations[l] >= options.max_iterations) {
          retire(l, false);
        } else {
          any_active = true;
          break;
        }
      }
    }
    if (!any_active) return;

    if (graph.is_unit_weighted()) {
      ApplyLanes<W, false>(graph, removed, diag, p.data(), ap.data(),
                           pap.data());
    } else {
      ApplyLanes<W, true>(graph, removed, diag, p.data(), ap.data(),
                          pap.data());
    }
    for (int l = 0; l < W; ++l) {
      alpha[l] = 0.0;
      if (job[l] < 0) continue;
      if (!(pap[l] > 0)) {  // lost positive-definiteness numerically
        retire(l, false);
        continue;
      }
      alpha[l] = rz[l] / pap[l];
    }

    rz_next.fill(0.0);
    rr.fill(0.0);
    if (!project) {
      for (std::size_t u = 0; u < n; ++u) {
        for (int l = 0; l < W; ++l) {
          const std::size_t i = u * W + static_cast<std::size_t>(l);
          x[i] += alpha[l] * p[i];
          r[i] += -alpha[l] * ap[i];
          z[i] = removed[u] ? 0.0 : r[i] / diag[u];
          rz_next[l] += r[i] * z[i];
          rr[l] += r[i] * r[i];
        }
      }
    } else {
      // Re-project every iteration: rounding slowly leaks mass into the
      // all-ones null space and would stall convergence.
      std::array<double, W> mean_x{}, mean_r{};
      for (std::size_t u = 0; u < n; ++u) {
        for (int l = 0; l < W; ++l) {
          const std::size_t i = u * W + static_cast<std::size_t>(l);
          x[i] += alpha[l] * p[i];
          r[i] += -alpha[l] * ap[i];
          mean_x[l] += x[i];
          mean_r[l] += r[i];
        }
      }
      for (int l = 0; l < W; ++l) {
        mean_x[l] /= static_cast<double>(n);
        mean_r[l] /= static_cast<double>(n);
      }
      for (std::size_t u = 0; u < n; ++u) {
        for (int l = 0; l < W; ++l) {
          const std::size_t i = u * W + static_cast<std::size_t>(l);
          x[i] -= mean_x[l];
          r[i] -= mean_r[l];
          z[i] = removed[u] ? 0.0 : r[i] / diag[u];
          rz_next[l] += r[i] * z[i];
          rr[l] += r[i] * r[i];
        }
      }
    }

    for (int l = 0; l < W; ++l) {
      beta[l] = 0.0;
      if (job[l] < 0) continue;
      beta[l] = rz_next[l] / rz[l];
      rz[l] = rz_next[l];
      ++iterations[l];
    }
    for (std::size_t u = 0; u < n; ++u) {
      for (int l = 0; l < W; ++l) {
        const std::size_t i = u * W + static_cast<std::size_t>(l);
        p[i] = z[i] + beta[l] * p[i];
      }
    }
  }
}

// One system through the 1-lane kernel; *x is the initial guess and
// receives the solution.
CgSummary SolveOne(const LaplacianSubmatrixOp& op, bool project,
                   const Vector& b, Vector* x, const CgOptions& options) {
  CgSummary summary;
  BlockPcg<1>(
      op, project, 1,
      [&](int, Vector* b_in, Vector* x_in) {
        *b_in = b;
        *x_in = *x;
      },
      [&](int, const Vector& solution, const CgSummary& s) {
        *x = solution;
        summary = s;
      },
      options);
  return summary;
}

}  // namespace

CgSummary SolveGroundedLaplacian(const LaplacianSubmatrixOp& op,
                                 const Vector& b, Vector* x,
                                 const CgOptions& options) {
  return SolveOne(op, /*project=*/false, b, x, options);
}

void SolveGroundedBlock(const LaplacianSubmatrixOp& op, int count,
                        const CgLoadFn& load, const CgStoreFn& store,
                        const CgOptions& options) {
  BlockPcg<kCgLanes>(op, /*project=*/false, count, load, store, options);
}

CgSummary SolveLaplacianPseudoinverse(const Graph& graph, const Vector& b,
                                      Vector* x, const CgOptions& options) {
  const LaplacianSubmatrixOp op(
      graph, std::vector<char>(static_cast<std::size_t>(graph.num_nodes()), 0));
  return SolveOne(op, /*project=*/true, b, x, options);
}

}  // namespace cfcm
