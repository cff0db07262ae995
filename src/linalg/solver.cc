#include "linalg/solver.h"

#include <functional>
#include <utility>

#include "linalg/laplacian.h"
#include "linalg/ldlt.h"
#include "linalg/sparse_ldlt.h"
#include "obs/metrics.h"

namespace cfcm {

namespace {

// Static-local resolution: the registry mutex is only paid once per
// process for each name (the obs hot-path pattern).
obs::Counter& FactorizationsCounter() {
  static obs::Counter* const c =
      &obs::MetricsRegistry::Global().counter("engine.linalg.factorizations");
  return *c;
}

obs::Counter& SolvesCounter() {
  static obs::Counter* const c =
      &obs::MetricsRegistry::Global().counter("engine.linalg.solves");
  return *c;
}

obs::Counter& CgIterationsCounter() {
  static obs::Counter* const c =
      &obs::MetricsRegistry::Global().counter("engine.linalg.cg_iterations");
  return *c;
}

class DenseSolver final : public LaplacianSolver {
 public:
  DenseSolver(LdltFactorization ldlt) : ldlt_(std::move(ldlt)) {}

  SolverBackend backend() const override { return SolverBackend::kDense; }
  int dim() const override { return ldlt_.dim(); }

  Vector Solve(const Vector& b) const override {
    SolvesCounter().Add(1);
    return ldlt_.Solve(b);
  }

  DenseMatrix SolveMatrix(const DenseMatrix& b) const override {
    SolvesCounter().Add(static_cast<uint64_t>(b.cols()));
    return ldlt_.SolveMatrix(b);
  }

  Vector InverseDiagonal() const override {
    const DenseMatrix inv = ldlt_.Inverse();
    Vector d(static_cast<std::size_t>(inv.rows()));
    for (int i = 0; i < inv.rows(); ++i) d[i] = inv(i, i);
    return d;
  }

  double TraceInverse() const override {
    // Same reduction as the pinned ExactTraceInverseSubmatrix reference:
    // full inverse, then Trace() — bit-identical scoring.
    return ldlt_.Inverse().Trace();
  }

  std::int64_t MemoryBytes() const override {
    const std::int64_t n = ldlt_.dim();
    return n * n * static_cast<std::int64_t>(sizeof(double)) +
           n * static_cast<std::int64_t>(sizeof(double));
  }

 private:
  LdltFactorization ldlt_;
};

class SparseLdltSolver final : public LaplacianSolver {
 public:
  explicit SparseLdltSolver(SparseLdlt factor) : factor_(std::move(factor)) {}

  SolverBackend backend() const override { return SolverBackend::kSparseLdlt; }
  int dim() const override { return factor_.dim(); }

  Vector Solve(const Vector& b) const override {
    SolvesCounter().Add(1);
    return factor_.Solve(b);
  }

  DenseMatrix SolveMatrix(const DenseMatrix& b) const override {
    SolvesCounter().Add(static_cast<uint64_t>(b.cols()));
    return factor_.SolveMatrix(b);
  }

  Vector InverseDiagonal() const override { return factor_.InverseDiagonal(); }

  double TraceInverse() const override { return factor_.TraceInverse(); }

  std::int64_t MemoryBytes() const override { return factor_.MemoryBytes(); }

 private:
  SparseLdlt factor_;
};

class CgSolver final : public LaplacianSolver {
 public:
  CgSolver(const Graph& graph, std::vector<char> mask,
           std::vector<NodeId> kept, CgOptions options)
      : op_(graph, std::move(mask)),
        kept_(std::move(kept)),
        options_(options) {}

  SolverBackend backend() const override { return SolverBackend::kCg; }
  int dim() const override { return static_cast<int>(kept_.size()); }

  Vector Solve(const Vector& b) const override {
    SolvesCounter().Add(1);
    const std::size_t n = static_cast<std::size_t>(op_.n());
    Vector full(n, 0.0), x(n, 0.0);
    for (std::size_t i = 0; i < kept_.size(); ++i) full[kept_[i]] = b[i];
    const CgSummary summary = SolveGroundedLaplacian(op_, full, &x, options_);
    CgIterationsCounter().Add(static_cast<uint64_t>(summary.iterations));
    Vector out(kept_.size());
    for (std::size_t i = 0; i < kept_.size(); ++i) out[i] = x[kept_[i]];
    return out;
  }

  DenseMatrix SolveMatrix(const DenseMatrix& b) const override {
    DenseMatrix x(b.rows(), b.cols());
    SolveColumns(
        b.cols(),
        [&](int j, Vector* full) {
          for (int i = 0; i < b.rows(); ++i) (*full)[kept_[i]] = b(i, j);
        },
        [&](int j, const Vector& sol) {
          for (int i = 0; i < b.rows(); ++i) x(i, j) = sol[kept_[i]];
        });
    return x;
  }

  Vector InverseDiagonal() const override {
    // One CG solve per column, kCgLanes columns per adjacency pass: exact
    // modulo the CG tolerance. This is the documented expensive path —
    // cg exists for low-memory solves, not trace extraction.
    Vector d(kept_.size());
    SolveColumns(
        dim(), [&](int j, Vector* full) { (*full)[kept_[j]] = 1.0; },
        [&](int j, const Vector& sol) { d[j] = sol[kept_[j]]; });
    return d;
  }

  std::int64_t MemoryBytes() const override {
    // Matrix-free: the operator borrows the graph; the solver state is
    // the mask plus CG's four work vectors.
    return static_cast<std::int64_t>(op_.n()) *
           static_cast<std::int64_t>(sizeof(char) + 4 * sizeof(double));
  }

 private:
  // Solves `count` systems through the lane-blocked kernel: `fill`
  // writes column j's right-hand side into a zeroed full-length vector,
  // `take` reads its full-length solution. Each column is bit-identical
  // to Solve() on it.
  void SolveColumns(
      int count, const std::function<void(int, Vector*)>& fill,
      const std::function<void(int, const Vector&)>& take) const {
    std::int64_t iterations = 0;
    SolveGroundedBlock(
        op_, count, [&](int j, Vector* b, Vector*) { fill(j, b); },
        [&](int j, const Vector& x, const CgSummary& summary) {
          take(j, x);
          iterations += summary.iterations;
        },
        options_);
    SolvesCounter().Add(static_cast<uint64_t>(count));
    CgIterationsCounter().Add(static_cast<uint64_t>(iterations));
  }

  LaplacianSubmatrixOp op_;
  std::vector<NodeId> kept_;
  CgOptions options_;
};

}  // namespace

const char* SolverBackendName(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::kAuto:
      return "auto";
    case SolverBackend::kDense:
      return "dense";
    case SolverBackend::kSparseLdlt:
      return "sparse_ldlt";
    case SolverBackend::kCg:
      return "cg";
  }
  return "auto";
}

std::optional<SolverBackend> ParseSolverBackend(std::string_view name) {
  if (name == "auto") return SolverBackend::kAuto;
  if (name == "dense" || name == "full") return SolverBackend::kDense;
  if (name == "sparse_ldlt") return SolverBackend::kSparseLdlt;
  if (name == "cg") return SolverBackend::kCg;
  return std::nullopt;
}

SolverBackend ResolveSolverBackend(SolverBackend requested, NodeId dim) {
  if (requested != SolverBackend::kAuto) return requested;
  return dim <= kDenseBackendMaxN ? SolverBackend::kDense
                                  : SolverBackend::kSparseLdlt;
}

double LaplacianSolver::TraceInverse() const {
  const Vector d = InverseDiagonal();
  double trace = 0.0;
  for (const double v : d) trace += v;
  return trace;
}

StatusOr<std::unique_ptr<LaplacianSolver>> MakeGroundedSolver(
    const Graph& graph, const std::vector<NodeId>& removed,
    SolverBackend backend, const CgOptions& cg_options) {
  const NodeId n = graph.num_nodes();
  if (removed.empty()) {
    return Status::InvalidArgument(
        "grounded solver needs a non-empty removed set (L itself is "
        "singular)");
  }
  for (NodeId s : removed) {
    if (s < 0 || s >= n) {
      return Status::OutOfRange("removed node " + std::to_string(s) +
                                " outside [0, " + std::to_string(n) + ")");
    }
  }
  const SubmatrixIndex index = MakeSubmatrixIndex(n, removed);
  const NodeId dim = static_cast<NodeId>(index.kept.size());
  if (dim == 0) {
    return Status::InvalidArgument(
        "L_{-S} is empty: the group covers every node");
  }
  switch (ResolveSolverBackend(backend, dim)) {
    case SolverBackend::kDense: {
      StatusOr<LdltFactorization> ldlt =
          LdltFactorization::Compute(DenseLaplacianSubmatrix(graph, index));
      if (!ldlt.ok()) return ldlt.status();
      FactorizationsCounter().Add(1);
      return std::unique_ptr<LaplacianSolver>(
          new DenseSolver(std::move(*ldlt)));
    }
    case SolverBackend::kSparseLdlt: {
      StatusOr<SparseLdlt> factor = SparseLdlt::FactorGrounded(graph, index);
      if (!factor.ok()) return factor.status();
      FactorizationsCounter().Add(1);
      return std::unique_ptr<LaplacianSolver>(
          new SparseLdltSolver(std::move(*factor)));
    }
    case SolverBackend::kCg: {
      std::vector<char> mask(static_cast<std::size_t>(n), 0);
      for (NodeId s : removed) mask[s] = 1;
      FactorizationsCounter().Add(1);  // operator setup, for symmetry
      return std::unique_ptr<LaplacianSolver>(
          new CgSolver(graph, std::move(mask), index.kept, cg_options));
    }
    case SolverBackend::kAuto:
      break;  // unreachable: resolved above
  }
  return Status::InvalidArgument("unresolved solver backend");
}

StatusOr<double> TraceInverseSubmatrix(const Graph& graph,
                                       const std::vector<NodeId>& removed,
                                       SolverBackend backend) {
  StatusOr<std::unique_ptr<LaplacianSolver>> solver =
      MakeGroundedSolver(graph, removed, backend);
  if (!solver.ok()) return solver.status();
  return (*solver)->TraceInverse();
}

}  // namespace cfcm
