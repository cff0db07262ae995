// Public configuration and result types for CFCM solvers.
#ifndef CFCM_CFCM_OPTIONS_H_
#define CFCM_CFCM_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "estimators/options.h"
#include "graph/graph.h"
#include "linalg/solver.h"

namespace cfcm {

/// How the sampled solvers run the greedy argmax of rounds 2..k.
///
/// kLazy is the CELF-style lazy evaluation of DESIGN.md §13: stale
/// gains upper-bound current gains (submodularity), so candidates are
/// re-scored in small batches until the refreshed top provably beats
/// every stale key. kExhaustive re-scores every candidate every round
/// (the paper's literal Alg. 3/5 loop); it remains the reference the
/// lazy path is pinned against.
enum class SelectionMode { kLazy, kExhaustive };

/// "lazy" / "exhaustive".
const char* SelectionModeName(SelectionMode mode);

/// Inverse of SelectionModeName; nullopt for unknown strings.
std::optional<SelectionMode> ParseSelectionMode(std::string_view name);

/// \brief Options shared by ForestCFCM / SchurCFCM (and, where relevant,
/// the baselines).
///
/// Thread-count knobs are pure performance knobs: the sampling runtime's
/// ordered reduction (DESIGN.md §9) makes every selection and estimate
/// bitwise identical for any pool size.
struct CfcmOptions {
  double eps = 0.2;      ///< paper's error parameter epsilon
  uint64_t seed = 1;     ///< base RNG seed (full determinism per seed)
  int num_threads = 0;   ///< sampling workers; 0 = hardware concurrency
                         ///< (ignored when `pool` is set)

  /// Borrowed worker pool to run sampling on; nullptr = the shared
  /// process pool sized by num_threads. The engine injects its cached
  /// GraphSession pool here — solvers never construct pools themselves.
  ThreadPool* pool = nullptr;

  // -- sampling engineering knobs (see DESIGN.md "Engineering constants").
  int min_batch = 32;
  int max_forests = 1024;
  double forest_factor = 1.0;
  int jl_rows = 0;       ///< 0 = auto
  int max_jl_rows = 64;
  bool adaptive = true;

  // -- SchurCFCM only.
  int t_size = 0;  ///< |T|; 0 = the |T*| = argmin {|T| - dmax(T)} rule

  // -- greedy selection (sampled solvers; DESIGN.md §13). The lazy
  // loop's batch, margin and width-cap constants live in
  // cfcm/lazy_greedy.{h,cc}; the warm repair's in cfcm/incremental.cc.
  SelectionMode selection = SelectionMode::kLazy;

  // -- exact linear algebra (DESIGN.md §14).
  /// Which kernel backs the exact Laplacian paths (EXACT/OPTIMUM
  /// selection, exact scoring, Schur assembly, augment). kAuto resolves
  /// by kept dimension: dense up to kDenseBackendMaxN, sparse_ldlt
  /// above. Every backend computes the same numbers; this is a
  /// time/memory knob, not an accuracy knob.
  SolverBackend solver_backend = SolverBackend::kAuto;
};

/// \brief The result of every maximization algorithm: the chosen group
/// plus per-iteration and total diagnostics. Fields that do not apply to
/// a given algorithm keep their defaults.
struct CfcmResult {
  std::vector<NodeId> selected;          ///< greedy order, size k
  std::vector<int> forests_per_iteration;
  std::int64_t total_forests = 0;
  std::int64_t total_walk_steps = 0;  ///< loop-erased walk steps sampled
  std::int64_t solver_calls = 0;      ///< Laplacian systems (APPROXGREEDY)
  double seconds = 0.0;
  int jl_rows = 0;
  int auxiliary_roots = 0;  ///< |T| (SchurCFCM only)

  // -- selection-layer work counters (DESIGN.md §13). In exhaustive
  // mode rescored_candidates counts the full per-round scans and the
  // other two stay 0.
  std::int64_t rescored_candidates = 0;  ///< candidate gain evaluations
  std::int64_t heap_pops = 0;            ///< lazy-heap pops
  std::int64_t forests_reused = 0;       ///< arena replays (no walks)

  // -- incremental warm-start diagnostics (DESIGN.md §16). All zero on
  // cold solves.
  std::int64_t forests_resampled = 0;  ///< dirty/extension forests drawn
  std::int64_t swap_moves = 0;         ///< repair swaps applied
  bool warm_started = false;           ///< solved via warm repair
  bool cold_fallback = false;          ///< warm requested but refused

  /// Resolved Laplacian solver backend ("dense" / "sparse_ldlt" / "cg"),
  /// empty for solvers that never touch the exact kernels.
  std::string solver_backend;
};

/// One per-solve work counter: its wire key and the CfcmResult field
/// holding it.
struct SolveCounter {
  const char* key;
  std::int64_t CfcmResult::*field;
};

/// The per-solve work counters, in wire order. The solver trace span,
/// the serve solve response, the CLI's JSON solve line and the warm
/// identity fast path all iterate this table, so a new counter is one
/// CfcmResult field plus one line here (DESIGN.md §6).
inline constexpr SolveCounter kSolveCounters[] = {
    {"forests", &CfcmResult::total_forests},
    {"walk_steps", &CfcmResult::total_walk_steps},
    {"solver_calls", &CfcmResult::solver_calls},
    {"rescored_candidates", &CfcmResult::rescored_candidates},
    {"heap_pops", &CfcmResult::heap_pops},
    {"forests_reused", &CfcmResult::forests_reused},
    {"forests_resampled", &CfcmResult::forests_resampled},
    {"swap_moves", &CfcmResult::swap_moves},
};

/// Lowers CfcmOptions to the estimator-level sampling options.
EstimatorOptions ToEstimatorOptions(const CfcmOptions& options);

/// The pool a solver call runs its sampling on: the injected
/// options.pool if set, else the shared process pool for
/// options.num_threads.
ThreadPool& ResolveSamplingPool(const CfcmOptions& options);

}  // namespace cfcm

#endif  // CFCM_CFCM_OPTIONS_H_
