#include "linalg/hutchinson.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "obs/metrics.h"
#include "runtime/shared_pool.h"

namespace cfcm {

namespace {

obs::Counter& CgIterationsCounter() {
  static obs::Counter* const c =
      &obs::MetricsRegistry::Global().counter("engine.linalg.cg_iterations");
  return *c;
}

// Mean and standard error of the per-probe samples, summed in probe order.
TraceEstimate Summarize(const std::vector<double>& samples) {
  const int probes = static_cast<int>(samples.size());
  double sum = 0;
  double sum_sq = 0;
  for (const double sample : samples) {
    sum += sample;
    sum_sq += sample * sample;
  }
  TraceEstimate est;
  est.probes = probes;
  est.trace = sum / probes;
  if (probes > 1) {
    const double var =
        std::max(0.0, (sum_sq - sum * sum / probes) / (probes - 1));
    est.std_error = std::sqrt(var / probes);
  }
  return est;
}

}  // namespace

TraceEstimate HutchinsonTraceInverse(const Graph& graph,
                                     const std::vector<NodeId>& removed,
                                     int probes, uint64_t seed,
                                     const CgOptions& cg, ThreadPool* pool) {
  assert(!removed.empty());
  assert(probes >= 1);
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<char> mask(n, 0);
  for (NodeId s : removed) mask[static_cast<std::size_t>(s)] = 1;
  LaplacianSubmatrixOp op(graph, mask);

  // Probe p: one Rademacher draw per kept node, in node order. Drawn
  // again when its solution comes back instead of kept per lane.
  auto fill_probe = [&](int p, Vector* z) {
    Rng rng(seed, static_cast<uint64_t>(p));
    for (std::size_t u = 0; u < n; ++u) {
      (*z)[u] = op.removed(static_cast<NodeId>(u))
                    ? 0.0
                    : (rng.NextBool() ? 1.0 : -1.0);
    }
  };
  // load/store run concurrently on distinct probes: each writes only its
  // own slots.
  std::vector<double> samples(static_cast<std::size_t>(probes));
  std::vector<int> probe_iterations(static_cast<std::size_t>(probes));
  SolveGroundedBlock(
      op, probes, [&](int p, Vector* b, Vector*) { fill_probe(p, b); },
      [&](int p, const Vector& x, const CgSummary& summary) {
        Vector z(n);
        fill_probe(p, &z);
        samples[static_cast<std::size_t>(p)] = Dot(z, x);
        probe_iterations[static_cast<std::size_t>(p)] = summary.iterations;
      },
      pool != nullptr ? *pool : SharedThreadPool(0), cg);
  const std::int64_t iterations =
      std::accumulate(probe_iterations.begin(), probe_iterations.end(),
                      std::int64_t{0});
  CgIterationsCounter().Add(static_cast<uint64_t>(iterations));
  TraceEstimate est = Summarize(samples);
  est.cg_iterations = iterations;
  return est;
}

TraceEstimate HutchinsonTraceInverse(const Graph& graph,
                                     const std::vector<NodeId>& removed,
                                     int probes, uint64_t seed,
                                     SolverBackend backend,
                                     const CgOptions& cg, ThreadPool* pool) {
  if (backend == SolverBackend::kAuto || backend == SolverBackend::kCg) {
    return HutchinsonTraceInverse(graph, removed, probes, seed, cg, pool);
  }
  assert(!removed.empty());
  assert(probes >= 1);
  auto solver = MakeGroundedSolver(graph, removed, backend, cg);
  assert(solver.ok() && "L_{-S} is SPD for connected graphs");
  if (!solver.ok()) {
    return HutchinsonTraceInverse(graph, removed, probes, seed, cg, pool);
  }
  const NodeId n = graph.num_nodes();
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (NodeId s : removed) mask[static_cast<std::size_t>(s)] = 1;
  const int dim = (*solver)->dim();

  std::vector<double> samples(static_cast<std::size_t>(probes));
  Vector z(static_cast<std::size_t>(dim));
  for (int p = 0; p < probes; ++p) {
    // Same probe vectors as the CG path: one Rademacher draw per kept
    // node, in node order.
    Rng rng(seed, static_cast<uint64_t>(p));
    int at = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (mask[static_cast<std::size_t>(u)]) continue;
      z[static_cast<std::size_t>(at++)] = rng.NextBool() ? 1.0 : -1.0;
    }
    const Vector x = (*solver)->Solve(z);
    double sample = 0;
    for (int i = 0; i < dim; ++i) sample += z[i] * x[i];
    samples[static_cast<std::size_t>(p)] = sample;
  }
  return Summarize(samples);
}

}  // namespace cfcm
