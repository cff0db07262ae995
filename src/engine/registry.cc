#include "engine/registry.h"

#include <algorithm>
#include <utility>

#include "cfcm/approx_greedy.h"
#include "cfcm/cfcc.h"
#include "cfcm/exact_greedy.h"
#include "cfcm/forest_cfcm.h"
#include "cfcm/heuristics.h"
#include "cfcm/optimum.h"
#include "cfcm/schur_cfcm.h"
#include "common/timer.h"

namespace cfcm::engine {
namespace {

// Above this size the dense O(n^3) paths (exact heuristic ranking) switch
// to their sampled counterparts. See DESIGN.md "Engineering constants".
constexpr NodeId kDenseHeuristicMaxN = 512;

// Adapters lifting the baselines' own result structs into CfcmResult.
// ForestCFCM and SchurCFCM already return one and are registered as-is.

StatusOr<CfcmResult> SolveExact(const Graph& graph, int k,
                                const CfcmOptions& options) {
  StatusOr<ExactGreedyResult> result = ExactGreedyMaximize(graph, k, options);
  if (!result.ok()) return result.status();
  CfcmResult out;
  out.selected = std::move(result->selected);
  out.seconds = result->seconds;
  out.solver_backend = SolverBackendName(result->backend);
  return out;
}

StatusOr<CfcmResult> SolveApprox(const Graph& graph, int k,
                                 const CfcmOptions& options) {
  StatusOr<ApproxGreedyResult> result =
      ApproxGreedyMaximize(graph, k, options);
  if (!result.ok()) return result.status();
  CfcmResult out;
  out.selected = std::move(result->selected);
  out.seconds = result->seconds;
  out.solver_calls = result->solver_calls;
  // APPROXGREEDY's Laplacian systems always run matrix-free CG.
  out.solver_backend = SolverBackendName(SolverBackend::kCg);
  return out;
}

StatusOr<CfcmResult> SolveDegree(const Graph& graph, int k,
                                 const CfcmOptions& /*options*/) {
  CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
  Timer timer;
  CfcmResult out;
  out.selected = DegreeSelect(graph, k);
  out.seconds = timer.Seconds();
  return out;
}

StatusOr<CfcmResult> SolveTopCfcc(const Graph& graph, int k,
                                  const CfcmOptions& options) {
  CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
  Timer timer;
  CfcmResult out;
  out.selected = graph.num_nodes() <= kDenseHeuristicMaxN
                     ? TopCfccSelectExact(graph, k)
                     : TopCfccSelectEstimated(graph, k, options);
  out.seconds = timer.Seconds();
  return out;
}

StatusOr<CfcmResult> SolveOptimum(const Graph& graph, int k,
                                  const CfcmOptions& options) {
  StatusOr<OptimumResult> result = OptimumSearch(graph, k, options);
  if (!result.ok()) return result.status();
  CfcmResult out;
  out.selected = std::move(result->best);
  out.seconds = result->seconds;
  out.solver_backend = SolverBackendName(result->backend);
  return out;
}

}  // namespace

// One entry per algorithm, listed in name order (Names() and solvers()
// promise ascending names).
SolverRegistry::SolverRegistry() {
  const auto add = [this](const char* name, const char* description,
                          SolverCapabilities caps, Solver::SolveFn solve) {
    solvers_.push_back(std::make_unique<Solver>(name, description,
                                                std::move(caps), solve));
  };
  add("approx",
      "APPROXGREEDY baseline (Li et al.): JL-sketched greedy on Laplacian "
      "solves",
      {.randomized = true,
       .approximation_guarantee = true,
       .complexity = "O(k eps^-2 log n) Laplacian solves"},
      &SolveApprox);
  add("degree", "DEGREE heuristic: the k nodes of largest (weighted) degree",
      {.deterministic = true, .complexity = "O(n log n)"}, &SolveDegree);
  add("exact",
      "EXACT baseline: greedy via Sherman-Morrison downdates (dense inverse "
      "or factored-solve backend, DESIGN.md §14)",
      {.deterministic = true,
       .approximation_guarantee = true,
       .complexity = "O(n^3 + k n^2) dense; O(n (fill + solve) + k n) sparse"},
      &SolveExact);
  add("forest",
      "ForestCFCM (Alg. 3): greedy maximization by spanning forest sampling",
      {.randomized = true,
       .approximation_guarantee = true,
       .complexity = "~O(k m eps^-2 log n) expected"},
      &ForestCfcmMaximize);
  add("optimum", "Exhaustive optimum over all C(n, k) groups (tiny graphs)",
      {.optimal = true,
       .deterministic = true,
       .approximation_guarantee = true,
       .complexity = "O(C(n, k) n^2); rejects n > 128",
       .max_recommended_n = 128},
      &SolveOptimum);
  add("schur",
      "SchurCFCM (Alg. 5): forest sampling accelerated by a Schur complement "
      "on hub roots",
      {.randomized = true,
       .approximation_guarantee = true,
       .complexity = "~O(k m eps^-2 log n) expected, smaller constants on "
                     "scale-free graphs"},
      &SchurCfcmMaximize);
  add("topcfcc",
      "TOP-CFCC heuristic: the k nodes of largest single-node CFCC (dense "
      "when n <= 512, forest-estimated above)",
      {.randomized = true,
       .complexity = "O(n^3) dense / sampled above n = 512"},
      &SolveTopCfcc);
}

const SolverRegistry& SolverRegistry::Global() {
  static const SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const auto& solver : solvers_) names.push_back(solver->name());
  return names;
}

bool SolverRegistry::Contains(const std::string& name) const {
  return std::any_of(solvers_.begin(), solvers_.end(),
                     [&](const auto& s) { return s->name() == name; });
}

StatusOr<const Solver*> SolverRegistry::Find(const std::string& name) const {
  for (const auto& solver : solvers_) {
    if (solver->name() == name) return solver.get();
  }
  std::string valid;
  for (const auto& solver : solvers_) {
    if (!valid.empty()) valid += ", ";
    valid += solver->name();
  }
  return Status::NotFound("unknown solver '" + name + "'; valid names: " +
                          valid);
}

}  // namespace cfcm::engine
