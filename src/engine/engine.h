// Batch-serving front end: Solve/Evaluate jobs against one shared
// GraphSession, dispatched through the SolverRegistry (DESIGN.md §6).
#ifndef CFCM_ENGINE_ENGINE_H_
#define CFCM_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cfcm/edge_addition.h"
#include "cfcm/options.h"
#include "common/status.h"
#include "engine/registry.h"
#include "engine/session.h"
#include "obs/trace.h"

namespace cfcm::engine {

/// Select a k-node group with a named algorithm from the registry.
///
/// Sampling runs on the cached GraphSession pool (the engine injects it
/// via CfcmOptions::pool), and the sampling runtime makes results
/// bitwise independent of the pool size — so there is no per-job thread
/// knob: EngineOptions::num_threads alone decides the parallelism of
/// both the batch and the sampling inside each job.
struct SolveJob {
  std::string algorithm = "forest";  ///< SolverRegistry key
  int k = 1;
  double eps = 0.2;      ///< error parameter (randomized solvers)
  uint64_t seed = 1;     ///< full determinism per seed
  /// Greedy argmax strategy of the sampled solvers (DESIGN.md §13);
  /// the others ignore it.
  SelectionMode selection = SelectionMode::kLazy;
  /// Kernel behind the exact Laplacian paths (DESIGN.md §14); sampled
  /// solvers ignore it apart from exact scoring.
  SolverBackend solver_backend = SolverBackend::kAuto;
  /// Warm-start policy (DESIGN.md §16): kOff = plain cold solve (the
  /// default keeps existing behavior byte-identical), kAuto = warm when
  /// the session holds a usable state for the pinned snapshot, kOn =
  /// warm or report cold_fallback. Only the "forest" algorithm with
  /// lazy selection honors it; every lazy forest solve still deposits a
  /// warm state for successors regardless of the mode.
  cfcm::WarmMode warm = cfcm::WarmMode::kOff;
};

/// Evaluate C(S) for a caller-provided group.
struct EvaluateJob {
  std::vector<NodeId> group;
  int probes = 0;     ///< 0 = exact evaluation (dense only up to
                      ///< EngineOptions::exact_eval_max_n remaining
                      ///< nodes; an explicit sparse_ldlt solver_backend
                      ///< lifts the ceiling); > 0 = Hutchinson probing
  uint64_t seed = 1;  ///< probe RNG seed (probes > 0 only)
  /// Kernel for the trace: exact path factors L_{-S} with it, probed
  /// path runs the probes through it (kAuto keeps the pinned defaults:
  /// dense exact below the ceiling, CG probes above).
  SolverBackend solver_backend = SolverBackend::kAuto;
};

/// Greedy edge addition for a fixed group: which k edges, added to the
/// graph, maximize C(S) — the paper's §VI open problem served as a
/// first-class job. Purely computational: the session graph is not
/// modified (the serving layer turns the result into a GraphDelta when
/// the caller asks for it to be applied).
struct AugmentJob {
  std::vector<NodeId> group;
  int k = 1;  ///< number of edges to add
  EdgeCandidates candidates = EdgeCandidates::kToGroup;
  /// Kernel for the maintained inverse (kAny candidates always run
  /// dense). A factor backend widens the admission budget — see
  /// CheckAugmentBudget.
  SolverBackend solver_backend = SolverBackend::kAuto;
};

using Job = std::variant<SolveJob, EvaluateJob, AugmentJob>;

/// Result of a SolveJob: what the solver returned plus the evaluated
/// group centrality.
struct SolveJobResult {
  std::string algorithm;
  CfcmResult output;
  double cfcc = 0.0;  ///< C(S) of output.selected (exact below
                      ///< EngineOptions::exact_eval_max_n, probed above)
};

/// Result of an EvaluateJob.
struct EvaluateJobResult {
  double cfcc = 0.0;
  double trace = 0.0;             ///< Tr(L_{-S}^{-1})
  double trace_std_error = 0.0;   ///< 0 for exact evaluation
  /// Backend that produced the trace ("dense" / "sparse_ldlt" / "cg").
  std::string solver_backend;
};

/// Result of an AugmentJob.
struct AugmentJobResult {
  std::vector<std::pair<NodeId, NodeId>> added;  ///< greedy order, u < v
  std::vector<double> trace_after;  ///< Tr(L'_{-S}^{-1}) after each edge
  double initial_trace = 0.0;       ///< before any addition
  double cfcc_before = 0.0;         ///< n / initial_trace
  double cfcc_after = 0.0;          ///< n / trace_after.back()
  double seconds = 0.0;
  /// Backend that maintained the inverse (resolved).
  std::string solver_backend;
};

using JobResult = std::variant<SolveJobResult, EvaluateJobResult,
                               AugmentJobResult>;

/// Engine-wide policy knobs.
struct EngineOptions {
  int num_threads = 0;  ///< batch pool size; 0 = hardware concurrency

  /// Solve results are scored exactly (dense LDL^T) while the remaining
  /// matrix is at most this large; above it C(S) is Hutchinson-probed.
  NodeId exact_eval_max_n = 512;
  int eval_probes = 64;  ///< probes used above the exact ceiling
                         ///< (values < 1 are clamped to 1 there)

  /// Base unit of the augment admission budget (see CheckAugmentBudget):
  /// a serving daemon must not let one wire request allocate or compute
  /// unboundedly. On the dense backend both the remaining matrix
  /// (n - |S|) and k are capped at this value — GreedyEdgeAddition then
  /// maintains a dense (n - |S|)^2 inverse in O((n-|S|)^3 + k (n-|S|)^2)
  /// time. A factor backend (explicit sparse_ldlt / cg with kToGroup
  /// candidates) never materializes the inverse and admits
  /// kSparseAugmentBudgetFactor x more remaining nodes for the same
  /// knob. Direct GreedyEdgeAddition callers are deliberately
  /// unlimited; cfcm_cli raises the ceiling to 4096 as a trusted local
  /// caller.
  NodeId augment_max_n = 1024;

  /// Base sampling options for every SolveJob; the job's eps / seed
  /// fields override the corresponding members, and the session pool
  /// overrides any `pool` / `num_threads` set here.
  CfcmOptions solver_defaults;
};

/// Factor backends admit this many times more remaining nodes than the
/// dense augment ceiling (their per-round cost is solves, not an
/// O((n-|S|)^2) dense inverse).
inline constexpr NodeId kSparseAugmentBudgetFactor = 32;

/// \brief Admission decision for an augment request — the backend-aware
/// work budget behind EngineOptions::augment_max_n.
///
/// Shared with the serve layer so wire errors can name exactly why a
/// request was refused (backend, remaining size, effective limit).
struct AugmentBudget {
  bool admitted = false;
  SolverBackend backend = SolverBackend::kDense;  ///< resolved kernel
  NodeId remaining = 0;   ///< kept nodes n - |S|
  NodeId limit = 0;       ///< ceiling on `remaining` for that backend
  NodeId k_limit = 0;     ///< ceiling on k (backend-independent)
};

/// Resolves the kernel an augment job would run on (kAny candidates
/// force dense) and checks the request against the budget: remaining
/// <= limit and k <= k_limit, where limit = augment_max_n on dense and
/// augment_max_n * kSparseAugmentBudgetFactor on factor backends.
AugmentBudget CheckAugmentBudget(const EngineOptions& options, NodeId n,
                                 std::size_t group_size, int k,
                                 SolverBackend requested,
                                 EdgeCandidates candidates);

/// \brief Serves job batches against one cached graph session.
///
/// Jobs in a batch run concurrently on the session pool, yet every
/// result is identical to running that job alone: solvers are
/// deterministic per seed and jobs share only immutable state.
///
/// Every job pins the session's current GraphSnapshot for its whole
/// run, so a concurrent GraphSession::Mutate never changes what an
/// in-flight job computes on — results are bit-for-bit those of the
/// snapshot the job started from (DESIGN.md §11).
class Engine {
 public:
  /// Owns a fresh session over `graph`.
  explicit Engine(Graph graph, EngineOptions options = {});

  /// Shares an existing session (several engines / callers may point at
  /// the same loaded graph).
  explicit Engine(std::shared_ptr<GraphSession> session,
                  EngineOptions options = {});

  const GraphSession& session() const { return *session_; }
  const EngineOptions& options() const { return options_; }

  /// Runs one job synchronously on the calling thread, pinned to the
  /// session's current snapshot.
  StatusOr<JobResult> Run(const Job& job) const;

  /// \brief Runs one job against an explicitly pinned snapshot.
  ///
  /// Callers that derive other state from the graph version (the serve
  /// layer keys its result cache by the content fingerprint) pin once
  /// and pass the snapshot here, so the key and the computation are
  /// guaranteed to describe the same graph even while mutations land
  /// concurrently.
  StatusOr<JobResult> Run(const Job& job,
                          const std::shared_ptr<const GraphSnapshot>&
                              snapshot) const;

  /// \brief Same as Run(job, snapshot), optionally traced.
  ///
  /// With a non-null `trace`, per-phase spans ("solver", "score",
  /// "evaluate", "augment") and sampling annotations (forests,
  /// walk_steps) are recorded into it; a null trace costs one branch.
  /// Every Run also feeds the engine.<job>_us latency histograms in the
  /// global metrics registry. Neither path touches the solver's inputs,
  /// so results stay bitwise identical per seed, traced or not.
  StatusOr<JobResult> Run(const Job& job,
                          const std::shared_ptr<const GraphSnapshot>& snapshot,
                          obs::TraceContext* trace) const;

  /// \brief Runs all jobs concurrently on the session pool.
  ///
  /// results[i] corresponds to jobs[i]; apart from wall-time fields each
  /// result matches a sequential Run(jobs[i]) exactly for the same seed,
  /// regardless of scheduling. A failed job yields its error Status
  /// without affecting the other jobs.
  std::vector<StatusOr<JobResult>> RunBatch(const std::vector<Job>& jobs) const;

 private:
  StatusOr<JobResult> RunSolve(
      const SolveJob& job,
      const std::shared_ptr<const GraphSnapshot>& snapshot,
      obs::TraceContext* trace) const;
  StatusOr<JobResult> RunEvaluate(const EvaluateJob& job,
                                  const GraphSnapshot& snapshot,
                                  obs::TraceContext* trace) const;
  StatusOr<JobResult> RunAugment(const AugmentJob& job,
                                 const GraphSnapshot& snapshot,
                                 obs::TraceContext* trace) const;

  /// C(S) plus trace diagnostics for `group` on the pinned `snapshot`;
  /// exact or probed per EngineOptions (see SolveJobResult::cfcc).
  /// `backend` routes the linear algebra (kAuto = pinned defaults).
  StatusOr<EvaluateJobResult> EvaluateGroup(const GraphSnapshot& snapshot,
                                            const std::vector<NodeId>& group,
                                            int probes, uint64_t seed,
                                            SolverBackend backend) const;

  std::shared_ptr<GraphSession> session_;
  EngineOptions options_;
};

}  // namespace cfcm::engine

#endif  // CFCM_ENGINE_ENGINE_H_
