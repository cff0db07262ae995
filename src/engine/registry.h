// Solver registry: every CFCM maximization algorithm behind one
// name -> function table (DESIGN.md §6).
#ifndef CFCM_ENGINE_REGISTRY_H_
#define CFCM_ENGINE_REGISTRY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cfcm/options.h"
#include "common/status.h"
#include "graph/graph.h"

namespace cfcm::engine {

/// \brief What a solver promises and how it scales.
///
/// Lets callers (CLI, engine, tests) enumerate and pick algorithms
/// without hard-coding the concrete free functions.
struct SolverCapabilities {
  bool optimal = false;      ///< returns the true optimum (exhaustive)
  bool deterministic = false;  ///< output independent of options.seed
  bool randomized = false;   ///< Monte-Carlo; deterministic per seed
  bool approximation_guarantee = false;  ///< (1 - k/((k-1)e) - eps) w.h.p.
  std::string complexity;    ///< human-readable cost, e.g. "O(n^3 + k n^2)"
  NodeId max_recommended_n = 0;  ///< soft size ceiling; 0 = no limit
};

/// \brief One registered maximization algorithm: a name, its
/// capabilities and the free function in src/cfcm/ that runs it.
///
/// The functions are stateless, so Solve() is safe to call concurrently
/// from many jobs; randomized solvers are fully deterministic in
/// options.seed.
class Solver {
 public:
  using SolveFn = StatusOr<CfcmResult> (*)(const Graph& graph, int k,
                                           const CfcmOptions& options);

  Solver(std::string name, std::string description, SolverCapabilities caps,
         SolveFn solve)
      : name_(std::move(name)),
        description_(std::move(description)),
        capabilities_(std::move(caps)),
        solve_(solve) {}

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }
  const SolverCapabilities& capabilities() const { return capabilities_; }

  /// Selects a k-node group on `graph` approximately (or exactly)
  /// maximizing C(S).
  StatusOr<CfcmResult> Solve(const Graph& graph, int k,
                             const CfcmOptions& options) const {
    return solve_(graph, k, options);
  }

 private:
  std::string name_;
  std::string description_;
  SolverCapabilities capabilities_;
  SolveFn solve_;
};

/// \brief Immutable name -> Solver table of all built-in algorithms:
/// "forest", "schur", "exact", "approx", "degree", "topcfcc", "optimum".
class SolverRegistry {
 public:
  /// The process-wide registry (built once, never mutated afterwards).
  static const SolverRegistry& Global();

  /// Registered names, ascending.
  std::vector<std::string> Names() const;

  /// True if `name` is registered.
  bool Contains(const std::string& name) const;

  /// Looks up a solver; NotFound (listing the valid names) otherwise.
  StatusOr<const Solver*> Find(const std::string& name) const;

  /// All solvers, ordered by name. Borrowed pointers, registry-owned.
  const std::vector<std::unique_ptr<Solver>>& solvers() const {
    return solvers_;
  }

 private:
  SolverRegistry();
  std::vector<std::unique_ptr<Solver>> solvers_;  // sorted by name()
};

}  // namespace cfcm::engine

#endif  // CFCM_ENGINE_REGISTRY_H_
