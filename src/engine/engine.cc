#include "engine/engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cfcm/cfcc.h"
#include "common/timer.h"
#include "linalg/laplacian.h"
#include "obs/metrics.h"

namespace cfcm::engine {

namespace {

// Group sanity shared by evaluate and augment jobs: in-range, distinct
// ids leaving at least one free node.
Status ValidateGroup(NodeId n, const std::vector<NodeId>& group) {
  if (group.empty()) {
    return Status::InvalidArgument("group must be non-empty");
  }
  if (static_cast<NodeId>(group.size()) >= n) {
    return Status::InvalidArgument("group must leave at least one free node");
  }
  for (NodeId u : group) {
    if (u < 0 || u >= n) {
      return Status::OutOfRange("group node " + std::to_string(u) +
                                " outside [0, " + std::to_string(n) + ")");
    }
  }
  std::vector<NodeId> sorted = group;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("group contains duplicate node ids");
  }
  return Status::Ok();
}

}  // namespace

AugmentBudget CheckAugmentBudget(const EngineOptions& options, NodeId n,
                                 std::size_t group_size, int k,
                                 SolverBackend requested,
                                 EdgeCandidates candidates) {
  AugmentBudget budget;
  budget.remaining = n - static_cast<NodeId>(group_size);
  budget.backend = ResolveSolverBackend(requested, budget.remaining);
  // kAny scans arbitrary off-diagonal M_uv entries: dense only.
  if (candidates == EdgeCandidates::kAny) {
    budget.backend = SolverBackend::kDense;
  }
  budget.limit = budget.backend == SolverBackend::kDense
                     ? options.augment_max_n
                     : options.augment_max_n * kSparseAugmentBudgetFactor;
  budget.k_limit = options.augment_max_n;
  budget.admitted = budget.remaining <= budget.limit &&
                    k <= static_cast<int>(budget.k_limit);
  return budget;
}

Engine::Engine(Graph graph, EngineOptions options)
    : session_(std::make_shared<GraphSession>(std::move(graph),
                                              options.num_threads)),
      options_(std::move(options)) {}

Engine::Engine(std::shared_ptr<GraphSession> session, EngineOptions options)
    : session_(std::move(session)), options_(std::move(options)) {}

StatusOr<JobResult> Engine::Run(const Job& job) const {
  // Pin the snapshot: a concurrent Mutate swaps the session's current
  // snapshot but cannot change (or free) the graph this job runs on.
  return Run(job, session_->snapshot());
}

StatusOr<JobResult> Engine::Run(
    const Job& job,
    const std::shared_ptr<const GraphSnapshot>& snapshot) const {
  return Run(job, snapshot, nullptr);
}

StatusOr<JobResult> Engine::Run(
    const Job& job, const std::shared_ptr<const GraphSnapshot>& snapshot,
    obs::TraceContext* trace) const {
  // Per-kind latency histograms, resolved once per process. Values are
  // microseconds; observation only, never fed back into the job.
  static obs::LatencyHistogram* const solve_us =
      &obs::MetricsRegistry::Global().histogram("engine.solve_us");
  static obs::LatencyHistogram* const evaluate_us =
      &obs::MetricsRegistry::Global().histogram("engine.evaluate_us");
  static obs::LatencyHistogram* const augment_us =
      &obs::MetricsRegistry::Global().histogram("engine.augment_us");

  Timer timer;
  if (const auto* solve = std::get_if<SolveJob>(&job)) {
    auto result = RunSolve(*solve, snapshot, trace);
    solve_us->Record(timer.Micros());
    return result;
  }
  if (const auto* augment = std::get_if<AugmentJob>(&job)) {
    auto result = RunAugment(*augment, *snapshot, trace);
    augment_us->Record(timer.Micros());
    return result;
  }
  auto result = RunEvaluate(std::get<EvaluateJob>(job), *snapshot, trace);
  evaluate_us->Record(timer.Micros());
  return result;
}

std::vector<StatusOr<JobResult>> Engine::RunBatch(
    const std::vector<Job>& jobs) const {
  // Fill per-index slots from the pool, then move into the result vector
  // (StatusOr is not default-constructible, so resize() is unavailable).
  std::vector<std::optional<StatusOr<JobResult>>> slots(jobs.size());
  session_->pool().ParallelFor(jobs.size(), [&](std::size_t i) {
    slots[i].emplace(Run(jobs[i]));
  });
  std::vector<StatusOr<JobResult>> results;
  results.reserve(jobs.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

StatusOr<JobResult> Engine::RunSolve(
    const SolveJob& job,
    const std::shared_ptr<const GraphSnapshot>& snapshot,
    obs::TraceContext* trace) const {
  if (!snapshot->is_connected()) {
    return Status::FailedPrecondition(
        "session graph must be connected and non-empty");
  }
  // Registry lookup even for the warm-routed forest path, so unknown
  // algorithm names fail with the same NotFound either way.
  StatusOr<const Solver*> solver = SolverRegistry::Global().Find(job.algorithm);
  if (!solver.ok()) return solver.status();

  CfcmOptions options = options_.solver_defaults;
  options.eps = job.eps;
  options.seed = job.seed;
  options.selection = job.selection;
  options.solver_backend = job.solver_backend;
  // Sampling reuses the cached session pool; nested ParallelFor is safe
  // (see ThreadPool) and results are invariant to the pool size.
  options.pool = &session_->pool();

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("solver");
  StatusOr<CfcmResult> output = Status::FailedPrecondition("unset");
  if (job.algorithm == "forest") {
    // The forest solver runs through the incremental pipeline
    // (DESIGN.md §16): it consumes the session's warm state for this
    // exact snapshot (mode permitting) and deposits the successor
    // state for the next solve/mutation, warm or cold.
    std::shared_ptr<const cfcm::WarmState> warm;
    if (job.warm != cfcm::WarmMode::kOff) {
      warm = session_->WarmStateFor(snapshot.get());
    }
    std::shared_ptr<const cfcm::WarmState> deposit;
    output = cfcm::ForestSolveWithWarm(snapshot->graph(), job.k, options,
                                       job.warm, warm, &deposit);
    if (output.ok() && deposit != nullptr) {
      session_->DepositWarmState(snapshot, std::move(deposit));
    }
  } else {
    output = (*solver)->Solve(snapshot->graph(), job.k, options);
  }
  if (trace != nullptr) {
    if (output.ok()) {
      for (const SolveCounter& counter : kSolveCounters) {
        trace->Annotate(counter.key, (*output).*counter.field);
      }
      // Selection strategy (DESIGN.md §13): 1 = lazy, 0 = exhaustive.
      trace->Annotate("selection",
                      job.selection == SelectionMode::kLazy ? 1 : 0);
      // Incremental warm-start outcome (DESIGN.md §16).
      trace->Annotate("warm_started", output->warm_started ? 1 : 0);
      trace->Annotate("cold_fallback", output->cold_fallback ? 1 : 0);
      // Resolved exact kernel as its enum ordinal (annotations are
      // integers); absent when the solver never touched the exact paths.
      if (const auto backend = ParseSolverBackend(output->solver_backend)) {
        trace->Annotate("solver_backend", static_cast<int64_t>(*backend));
      }
    }
    trace->EndSpan(span);
  }
  if (!output.ok()) return output.status();

  SolveJobResult result;
  result.algorithm = job.algorithm;
  result.output = std::move(*output);

  // Policy: exact scoring below the ceiling, probed above. At least one
  // probe when probing is required, so a misconfigured eval_probes never
  // turns a finished solve into an evaluation error. An explicit
  // sparse_ldlt backend scores exactly at any size (no dense inverse).
  const NodeId remaining =
      snapshot->num_nodes() -
      static_cast<NodeId>(result.output.selected.size());
  const bool exact_score =
      remaining <= options_.exact_eval_max_n ||
      job.solver_backend == SolverBackend::kSparseLdlt;
  const int probes = exact_score ? 0 : std::max(1, options_.eval_probes);
  std::size_t score_span = 0;
  if (trace != nullptr) score_span = trace->BeginSpan("score");
  StatusOr<EvaluateJobResult> eval = EvaluateGroup(
      *snapshot, result.output.selected, probes, job.seed, job.solver_backend);
  if (trace != nullptr) trace->EndSpan(score_span);
  if (!eval.ok()) return eval.status();
  result.cfcc = eval->cfcc;
  return JobResult(std::move(result));
}

StatusOr<JobResult> Engine::RunEvaluate(const EvaluateJob& job,
                                        const GraphSnapshot& snapshot,
                                        obs::TraceContext* trace) const {
  if (!snapshot.is_connected()) {
    return Status::FailedPrecondition(
        "session graph must be connected and non-empty");
  }
  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("evaluate");
  StatusOr<EvaluateJobResult> eval = EvaluateGroup(
      snapshot, job.group, job.probes, job.seed, job.solver_backend);
  if (trace != nullptr) trace->EndSpan(span);
  if (!eval.ok()) return eval.status();
  return JobResult(std::move(*eval));
}

StatusOr<JobResult> Engine::RunAugment(const AugmentJob& job,
                                       const GraphSnapshot& snapshot,
                                       obs::TraceContext* trace) const {
  // GreedyEdgeAddition re-checks connectivity, but rejecting here keeps
  // the error identical to the other job kinds.
  if (!snapshot.is_connected()) {
    return Status::FailedPrecondition(
        "session graph must be connected and non-empty");
  }
  // Validate the group BEFORE the size gate: duplicate ids would shrink
  // `remaining` below the true kept-node count and bypass the dense-
  // allocation ceiling.
  const NodeId n = snapshot.num_nodes();
  Status group_ok = ValidateGroup(n, job.group);
  if (!group_ok.ok()) return group_ok;
  const AugmentBudget budget =
      CheckAugmentBudget(options_, n, job.group.size(), job.k,
                         job.solver_backend, job.candidates);
  if (!budget.admitted) {
    // Structured refusal: name the backend, sizes and limits so the
    // caller can see which knob to turn (the serve layer re-derives the
    // same budget to attach machine-readable details).
    return Status::InvalidArgument(
        "augment work budget exceeded: backend=" +
        std::string(SolverBackendName(budget.backend)) + " remaining=" +
        std::to_string(budget.remaining) + " (limit " +
        std::to_string(budget.limit) + "), k=" + std::to_string(job.k) +
        " (limit " + std::to_string(budget.k_limit) + "), n=" +
        std::to_string(n) +
        "; request solver_backend=sparse_ldlt for the wider factor budget "
        "or raise augment_max_n");
  }
  CfcmOptions augment_options = options_.solver_defaults;
  augment_options.solver_backend = job.solver_backend;
  augment_options.pool = &session_->pool();
  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("augment");
  StatusOr<EdgeAdditionResult> added =
      GreedyEdgeAddition(snapshot.graph(), job.group, job.k, job.candidates,
                         augment_options);
  if (trace != nullptr) {
    if (added.ok()) {
      trace->Annotate("edges_added",
                      static_cast<int64_t>(added->added.size()));
      trace->Annotate("solver_backend",
                      static_cast<int64_t>(added->backend));
    }
    trace->EndSpan(span);
  }
  if (!added.ok()) return added.status();

  AugmentJobResult result;
  result.solver_backend = SolverBackendName(added->backend);
  result.added = std::move(added->added);
  result.trace_after = std::move(added->trace_after);
  result.initial_trace = added->initial_trace;
  const double nodes = static_cast<double>(n);
  result.cfcc_before =
      result.initial_trace > 0 ? nodes / result.initial_trace : 0.0;
  result.cfcc_after = !result.trace_after.empty() && result.trace_after.back() > 0
                          ? nodes / result.trace_after.back()
                          : result.cfcc_before;
  result.seconds = added->seconds;
  return JobResult(std::move(result));
}

StatusOr<EvaluateJobResult> Engine::EvaluateGroup(
    const GraphSnapshot& snapshot, const std::vector<NodeId>& group,
    int probes, uint64_t seed, SolverBackend backend) const {
  const NodeId n = snapshot.num_nodes();
  Status group_ok = ValidateGroup(n, group);
  if (!group_ok.ok()) return group_ok;

  EvaluateJobResult result;
  if (probes <= 0) {
    const NodeId remaining = n - static_cast<NodeId>(group.size());
    // The dense ceiling guards the default path; an explicit factor
    // backend never allocates the dense inverse and is admitted at any
    // size (DESIGN.md §14).
    const bool factor_backend = backend == SolverBackend::kSparseLdlt ||
                                backend == SolverBackend::kCg;
    if (remaining > options_.exact_eval_max_n && !factor_backend) {
      return Status::InvalidArgument(
          "exact evaluation needs a dense " + std::to_string(remaining) +
          "^2 inverse (ceiling " + std::to_string(options_.exact_eval_max_n) +
          "); set probes > 0 for Hutchinson estimation or request "
          "solver_backend=sparse_ldlt");
    }
    const SolverBackend resolved = ResolveSolverBackend(
        backend == SolverBackend::kAuto ? SolverBackend::kDense : backend,
        remaining);
    auto trace_or = TraceInverseSubmatrix(snapshot.graph(), group, resolved);
    if (!trace_or.ok()) return trace_or.status();
    result.trace = *trace_or;
    result.cfcc = static_cast<double>(n) / result.trace;
    result.solver_backend = SolverBackendName(resolved);
  } else {
    const ApproxCfcc approx =
        ApproximateGroupCfcc(snapshot.graph(), group, probes, seed, backend);
    result.cfcc = approx.cfcc;
    result.trace = approx.trace;
    result.trace_std_error = approx.trace_std_error;
    result.solver_backend = SolverBackendName(
        backend == SolverBackend::kAuto ? SolverBackend::kCg : backend);
  }
  return result;
}

}  // namespace cfcm::engine
