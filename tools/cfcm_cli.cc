// cfcm_cli: command-line front end for the CFCM engine.
//
// Loads an edge list or a named built-in dataset, runs one or a batch of
// maximization / evaluation jobs through the solver registry, and prints
// a table or JSON.
//
//   cfcm_cli --graph karate --algo forest,schur,exact --k 5 --json
//   cfcm_cli --graph ba:2000,4 --algo schur --k 10 --eps 0.1 --seed 3
//   cfcm_cli --graph path/to/edges.txt --lcc --algo forest --k 8
//   cfcm_cli --graph karate --evaluate 0,33,2
//   cfcm_cli --graph karate --group 0,33 --augment 2 --candidates any
//   cfcm_cli --list
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/status.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/spec.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace {

using cfcm::Graph;
using cfcm::NodeId;
using cfcm::Status;
using cfcm::StatusOr;

struct CliOptions {
  std::string graph_source;
  std::string weighted_spec;  // "lo,hi[,seed]": random conductances
  std::vector<std::string> algorithms;
  std::vector<std::vector<NodeId>> evaluate_groups;
  int k = 5;
  double eps = 0.2;
  uint64_t seed = 1;
  cfcm::SelectionMode selection = cfcm::SelectionMode::kLazy;
  cfcm::SolverBackend solver_backend = cfcm::SolverBackend::kAuto;
  int probes = 0;       // EvaluateJob probes (0 = exact)
  int threads = 0;      // engine pool size; 0 = hardware concurrency
  int augment = 0;      // edges to add greedily (0 = no augment job)
  std::vector<NodeId> augment_group;          // --group, for --augment
  cfcm::EdgeCandidates candidates = cfcm::EdgeCandidates::kToGroup;
  bool candidates_set = false;  // --candidates given explicitly
  bool take_lcc = false;
  bool json = false;
  bool list = false;
  bool verbose = false;
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: cfcm_cli --graph <name|path> [options]\n"
               "\n"
               "  --graph S     built-in (karate, karate-w, usa, zebra,\n"
               "                dolphins), generator spec (ba:<n>,<m>[,<seed>]\n"
               "                | ws:<n>,<k>,<beta>[,<seed>] | grid:<r>x<c>),\n"
               "                or an edge-list file path (an optional third\n"
               "                column per line is the edge conductance)\n"
               "  --weighted L,H[,S]  assign uniform random conductances in\n"
               "                [L, H] to the loaded graph (seed S, default 1)\n"
               "  --algo A,B    comma-separated registry names (default forest)\n"
               "  --k N         group size (default 5)\n"
               "  --eps X       error parameter (default 0.2)\n"
               "  --seed N      base RNG seed (default 1)\n"
               "  --selection M greedy argmax strategy for the sampled\n"
               "                solvers: 'lazy' (CELF heap, default) or\n"
               "                'exhaustive' (re-score every candidate each\n"
               "                round); both select identical groups per seed\n"
               "  --solver-backend B  Laplacian kernel for the exact paths\n"
               "                (exact/optimum solve, exact --evaluate,\n"
               "                --augment): 'auto' (default; dense below\n"
               "                513 free nodes, sparse LDLT above),\n"
               "                'dense' (alias 'full'), 'sparse_ldlt'\n"
               "                (fill-reducing factorization) or 'cg'\n"
               "                (Jacobi-preconditioned CG). Explicit\n"
               "                sparse_ldlt/cg also lifts the dense-only\n"
               "                size ceilings on exact evaluate/augment\n"
               "  --evaluate G  evaluate C(S) of group 'u1,u2,...' (repeatable)\n"
               "  --probes N    Hutchinson probes for --evaluate (0 = exact)\n"
               "  --augment N   greedily add the N edges maximizing C(S) of\n"
               "                the --group nodes (paper §VI edge selection);\n"
               "                prints the chosen edges and the trace after\n"
               "                each addition. Dense backend: up to 4096\n"
               "                free nodes; --solver-backend sparse_ldlt\n"
               "                raises the budget 32x\n"
               "  --group G     fixed group 'u1,u2,...' for --augment\n"
               "  --candidates C  'group' (non-edges into the group, default)\n"
               "                or 'any' (any non-edge) for --augment\n"
               "  --threads N   worker pool size shared by the job batch and\n"
               "                the sampling inside each job; 0 = hardware\n"
               "                concurrency (default). Results never depend\n"
               "                on this value\n"
               "  --lcc         reduce the input to its largest component\n"
               "  --verbose     per-phase timing breakdown on stderr (load,\n"
               "                derived-state build, solver / score phases\n"
               "                with forest and walk-step counts); jobs run\n"
               "                sequentially so phases never interleave.\n"
               "                Results are unchanged\n"
               "  --json        machine-readable output\n"
               "  --list-solvers  list registered solvers (capabilities from\n"
               "                the registry) and exit; --list is an alias\n");
}

// Shared strict parsing helpers (same implementations the spec loader
// and cfcm_serve use).
using cfcm::ParseFloat64;
using cfcm::ParseInt64;
using cfcm::SplitString;

// Escaping for JSON string literals (algorithm names, file paths and
// Status messages are user-influenced) — the serving codec's escaper,
// so CLI output and server output stay byte-compatible.
using cfcm::serve::JsonEscapeString;

StatusOr<std::vector<NodeId>> ParseGroup(const std::string& spec,
                                         const char* flag) {
  std::vector<NodeId> group;
  for (const std::string& part : SplitString(spec, ',')) {
    long long value = 0;
    if (!ParseInt64(part, &value) || value < 0 ||
        value > std::numeric_limits<NodeId>::max()) {
      // Narrowing without the range check would silently address a
      // DIFFERENT valid node (2^32 -> 0).
      return Status::InvalidArgument("bad node id '" + part + "' in " +
                                     flag);
    }
    group.push_back(static_cast<NodeId>(value));
  }
  return group;
}

// Structured failure shared with the serving protocol: under --json a
// top-level {"error":{"code","message"}} object goes to stdout (exit
// stays nonzero) so scripted callers parse one error shape everywhere;
// otherwise a human-readable line goes to stderr.
int FailWith(const Status& status, bool json, int exit_code) {
  if (json) {
    cfcm::serve::JsonValue::Object error;
    error["error"] = cfcm::serve::StatusToJsonError(status);
    std::printf("%s\n", cfcm::serve::JsonValue(std::move(error))
                            .Serialize()
                            .c_str());
  } else {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
  return exit_code;
}

StatusOr<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  auto need_value = [&](int i) -> StatusOr<std::string> {
    if (i + 1 >= argc) {
      return Status::InvalidArgument(std::string(argv[i]) +
                                     " requires a value");
    }
    return std::string(argv[i + 1]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(0);
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--list" || arg == "--list-solvers") {
      options.list = true;
    } else if (arg == "--lcc") {
      options.take_lcc = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--graph" || arg == "--algo" || arg == "--k" ||
               arg == "--eps" || arg == "--seed" || arg == "--probes" ||
               arg == "--threads" || arg == "--evaluate" ||
               arg == "--weighted" || arg == "--augment" ||
               arg == "--group" || arg == "--candidates" ||
               arg == "--selection" || arg == "--solver-backend") {
      StatusOr<std::string> value = need_value(i);
      if (!value.ok()) return value.status();
      ++i;
      if (arg == "--graph") {
        options.graph_source = *value;
      } else if (arg == "--weighted") {
        options.weighted_spec = *value;
      } else if (arg == "--algo") {
        options.algorithms = SplitString(*value, ',');
      } else if (arg == "--eps") {
        if (!ParseFloat64(*value, &options.eps)) {
          return Status::InvalidArgument("bad number for --eps: '" + *value +
                                         "'");
        }
      } else if (arg == "--evaluate") {
        StatusOr<std::vector<NodeId>> group = ParseGroup(*value, "--evaluate");
        if (!group.ok()) return group.status();
        options.evaluate_groups.push_back(std::move(*group));
      } else if (arg == "--group") {
        StatusOr<std::vector<NodeId>> group = ParseGroup(*value, "--group");
        if (!group.ok()) return group.status();
        options.augment_group = std::move(*group);
      } else if (arg == "--selection") {
        const std::optional<cfcm::SelectionMode> parsed =
            cfcm::ParseSelectionMode(*value);
        if (!parsed.has_value()) {
          return Status::InvalidArgument(
              "--selection must be 'lazy' or 'exhaustive', got '" + *value +
              "'");
        }
        options.selection = *parsed;
      } else if (arg == "--solver-backend") {
        const std::optional<cfcm::SolverBackend> parsed =
            cfcm::ParseSolverBackend(*value);
        if (!parsed.has_value()) {
          return Status::InvalidArgument(
              "--solver-backend must be 'auto', 'dense' (alias 'full'), "
              "'sparse_ldlt' or 'cg', got '" + *value + "'");
        }
        options.solver_backend = *parsed;
      } else if (arg == "--candidates") {
        options.candidates_set = true;
        if (*value == "group") {
          options.candidates = cfcm::EdgeCandidates::kToGroup;
        } else if (*value == "any") {
          options.candidates = cfcm::EdgeCandidates::kAny;
        } else {
          return Status::InvalidArgument(
              "--candidates must be 'group' or 'any', got '" + *value + "'");
        }
      } else {
        long long number = 0;
        if (!ParseInt64(*value, &number)) {
          return Status::InvalidArgument("bad integer for " + arg + ": '" +
                                         *value + "'");
        }
        if (arg == "--k") options.k = static_cast<int>(number);
        if (arg == "--seed") options.seed = static_cast<uint64_t>(number);
        if (arg == "--probes") options.probes = static_cast<int>(number);
        if (arg == "--threads") options.threads = static_cast<int>(number);
        if (arg == "--augment") {
          // Range-check BEFORE narrowing: a wrapped value would either
          // silently drop the request (<= 0: no augment job AND no
          // default solve) or run with an unintended k.
          if (number < 1 || number > std::numeric_limits<int>::max()) {
            return Status::InvalidArgument(
                "--augment must be a positive int, got " + *value);
          }
          options.augment = static_cast<int>(number);
        }
      }
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  return options;
}

void ListSolvers() {
  std::printf("%-9s %-9s %-44s %s\n", "name", "kind", "complexity",
              "description");
  for (const auto& solver : cfcm::engine::SolverRegistry::Global().solvers()) {
    const auto& caps = solver->capabilities();
    const char* kind = caps.optimal       ? "optimal"
                       : caps.randomized  ? "sampled"
                                          : "exact";
    std::printf("%-9s %-9s %-44s %s\n", solver->name().c_str(), kind,
                caps.complexity.c_str(), solver->description().c_str());
  }
}

void PrintJsonGroup(const std::vector<NodeId>& group) {
  std::printf("[");
  for (std::size_t i = 0; i < group.size(); ++i) {
    std::printf("%s%d", i ? "," : "", group[i]);
  }
  std::printf("]");
}

void PrintJsonEdges(const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::printf("[");
  for (std::size_t i = 0; i < edges.size(); ++i) {
    std::printf("%s[%d,%d]", i ? "," : "", edges[i].first, edges[i].second);
  }
  std::printf("]");
}

// Writes one JSON object per job result; `spec` describes the request.
void PrintJsonJob(const cfcm::engine::Job& spec,
                  const StatusOr<cfcm::engine::JobResult>& result, bool last) {
  std::printf("    {");
  if (const auto* solve = std::get_if<cfcm::engine::SolveJob>(&spec)) {
    std::printf(
        "\"type\":\"solve\",\"algorithm\":\"%s\",\"k\":%d,\"eps\":%g,"
        "\"seed\":%llu,\"selection\":\"%s\",",
        JsonEscapeString(solve->algorithm).c_str(), solve->k, solve->eps,
        static_cast<unsigned long long>(solve->seed),
        cfcm::SelectionModeName(solve->selection));
  } else if (const auto* augment =
                 std::get_if<cfcm::engine::AugmentJob>(&spec)) {
    std::printf("\"type\":\"augment\",\"k\":%d,\"candidates\":\"%s\","
                "\"group\":",
                augment->k,
                augment->candidates == cfcm::EdgeCandidates::kAny ? "any"
                                                                  : "group");
    PrintJsonGroup(augment->group);
    std::printf(",");
  } else {
    const auto& eval = std::get<cfcm::engine::EvaluateJob>(spec);
    std::printf("\"type\":\"evaluate\",\"group\":");
    PrintJsonGroup(eval.group);
    std::printf(",\"probes\":%d,", eval.probes);
  }
  if (!result.ok()) {
    std::printf("\"status\":\"error\",\"error\":\"%s\"}%s\n",
                JsonEscapeString(result.status().ToString()).c_str(),
                last ? "" : ",");
    return;
  }
  if (const auto* solve =
          std::get_if<cfcm::engine::SolveJobResult>(&*result)) {
    std::printf("\"status\":\"ok\",\"selected\":");
    PrintJsonGroup(solve->output.selected);
    std::printf(",\"cfcc\":%.9g", solve->cfcc);
    for (const cfcm::SolveCounter& counter : cfcm::kSolveCounters) {
      std::printf(",\"%s\":%lld", counter.key,
                  static_cast<long long>(solve->output.*counter.field));
    }
    std::printf(
        ",\"warm_started\":%s,\"cold_fallback\":%s,"
        "\"solver_backend\":\"%s\",\"seconds\":%.6f}",
        solve->output.warm_started ? "true" : "false",
        solve->output.cold_fallback ? "true" : "false",
        JsonEscapeString(solve->output.solver_backend).c_str(),
        solve->output.seconds);
  } else if (const auto* augment =
                 std::get_if<cfcm::engine::AugmentJobResult>(&*result)) {
    std::printf("\"status\":\"ok\",\"added\":");
    PrintJsonEdges(augment->added);
    std::printf(",\"initial_trace\":%.9g,\"trace_after\":[",
                augment->initial_trace);
    for (std::size_t i = 0; i < augment->trace_after.size(); ++i) {
      std::printf("%s%.9g", i ? "," : "", augment->trace_after[i]);
    }
    std::printf("],\"cfcc_before\":%.9g,\"cfcc_after\":%.9g,"
                "\"solver_backend\":\"%s\",\"seconds\":%.6f}",
                augment->cfcc_before, augment->cfcc_after,
                JsonEscapeString(augment->solver_backend).c_str(),
                augment->seconds);
  } else {
    const auto& eval = std::get<cfcm::engine::EvaluateJobResult>(*result);
    std::printf(
        "\"status\":\"ok\",\"cfcc\":%.9g,\"trace\":%.9g,"
        "\"trace_std_error\":%.3g,\"solver_backend\":\"%s\"}",
        eval.cfcc, eval.trace, eval.trace_std_error,
        JsonEscapeString(eval.solver_backend).c_str());
  }
  std::printf("%s\n", last ? "" : ",");
}

void PrintTextJob(const cfcm::engine::Job& spec,
                  const StatusOr<cfcm::engine::JobResult>& result) {
  std::string label;
  if (const auto* solve = std::get_if<cfcm::engine::SolveJob>(&spec)) {
    label = solve->algorithm;
  } else if (std::holds_alternative<cfcm::engine::AugmentJob>(spec)) {
    label = "augment";
  } else {
    label = "evaluate";
  }
  if (!result.ok()) {
    std::printf("%-10s FAILED: %s\n", label.c_str(),
                result.status().ToString().c_str());
    return;
  }
  if (const auto* augment =
          std::get_if<cfcm::engine::AugmentJobResult>(&*result)) {
    std::printf("%-10s C(S) %.6f -> %.6f  added = {", label.c_str(),
                augment->cfcc_before, augment->cfcc_after);
    for (std::size_t i = 0; i < augment->added.size(); ++i) {
      std::printf("%s(%d, %d)", i ? ", " : "", augment->added[i].first,
                  augment->added[i].second);
    }
    std::printf("}  (%.3fs)\n", augment->seconds);
    return;
  }
  if (const auto* solve =
          std::get_if<cfcm::engine::SolveJobResult>(&*result)) {
    std::printf("%-10s C(S) = %.6f  S = {", label.c_str(), solve->cfcc);
    for (std::size_t i = 0; i < solve->output.selected.size(); ++i) {
      std::printf("%s%d", i ? ", " : "", solve->output.selected[i]);
    }
    std::printf("}  (%.3fs", solve->output.seconds);
    if (solve->output.total_forests > 0) {
      std::printf(", %lld forests, %lld walk steps",
                  static_cast<long long>(solve->output.total_forests),
                  static_cast<long long>(solve->output.total_walk_steps));
    }
    std::printf(")\n");
  } else {
    const auto& eval = std::get<cfcm::engine::EvaluateJobResult>(*result);
    std::printf("%-10s C(S) = %.6f  trace = %.6f", label.c_str(), eval.cfcc,
                eval.trace);
    if (eval.trace_std_error > 0) {
      std::printf(" +/- %.3g", eval.trace_std_error);
    }
    std::printf("\n");
  }
}

// --verbose breakdown: prints every span recorded since `first`, one
// stderr line each, so the timing never mixes with the stdout table or
// JSON. The spans come from the same obs::TraceContext machinery the
// daemon's "trace":true path fills — CLI and server report through one
// code path.
void PrintSpans(const cfcm::obs::TraceContext& trace, std::size_t first,
                const std::string& prefix) {
  const auto& spans = trace.spans();
  for (std::size_t i = first; i < spans.size(); ++i) {
    const cfcm::obs::TraceSpan& span = spans[i];
    std::fprintf(stderr, "verbose: %s%-14s %10.3f ms", prefix.c_str(),
                 span.name.c_str(),
                 static_cast<double>(span.duration_ns) / 1e6);
    for (const auto& [key, value] : span.annotations) {
      std::fprintf(stderr, "  %s=%lld", key.c_str(),
                   static_cast<long long>(value));
    }
    std::fprintf(stderr, "\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Error formatting must work before ParseArgs succeeds, so detect
  // --json directly.
  bool json_errors = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_errors = true;
  }

  StatusOr<CliOptions> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    if (!json_errors) PrintUsage(stderr);
    return FailWith(parsed.status(), json_errors, 2);
  }
  const CliOptions& cli = *parsed;

  if (cli.list) {
    ListSolvers();
    return 0;
  }
  if (cli.graph_source.empty()) {
    if (!json_errors) PrintUsage(stderr);
    return FailWith(Status::InvalidArgument("--graph is required"),
                    json_errors, 2);
  }
  // Unknown solvers fail up front with the shared error shape instead of
  // surfacing later as one per-job failure among many.
  for (const std::string& algorithm : cli.algorithms) {
    if (!cfcm::engine::SolverRegistry::Global().Contains(algorithm)) {
      return FailWith(
          cfcm::engine::SolverRegistry::Global().Find(algorithm).status(),
          cli.json, 1);
    }
  }

  // One trace carries every phase of the run under --verbose; without it
  // the context sits unused (BeginSpan is never called).
  cfcm::obs::TraceContext trace;
  std::size_t load_span = 0;
  if (cli.verbose) load_span = trace.BeginSpan("load");

  StatusOr<Graph> loaded = cfcm::LoadGraphFromSpec(cli.graph_source);
  if (!loaded.ok()) {
    return FailWith(loaded.status(), cli.json, 1);
  }
  Graph graph = std::move(*loaded);
  if (!cli.weighted_spec.empty()) {
    const auto args = SplitString(cli.weighted_spec, ',');
    double lo = 0, hi = 0;
    long long wseed = 1;
    if (args.size() < 2 || args.size() > 3 || !ParseFloat64(args[0], &lo) ||
        !ParseFloat64(args[1], &hi) ||
        (args.size() == 3 && !ParseInt64(args[2], &wseed)) ||
        !std::isfinite(lo) || !std::isfinite(hi) || lo <= 0 || hi < lo) {
      return FailWith(
          Status::InvalidArgument(
              "--weighted expects <lo>,<hi>[,<seed>] with 0 < lo <= hi"),
          cli.json, 2);
    }
    graph = cfcm::AssignUniformWeights(graph, lo, hi,
                                       static_cast<uint64_t>(wseed));
  }
  // With --lcc all ids the user sees stay in the original numbering:
  // evaluate groups are translated into LCC ids before running and
  // selected groups are translated back before printing.
  std::vector<NodeId> to_original;   // LCC id -> input id; empty = identity
  std::vector<NodeId> from_original; // input id -> LCC id or -1
  if (cli.take_lcc && !cfcm::IsConnected(graph)) {
    cfcm::LccResult lcc = cfcm::LargestConnectedComponent(graph);
    from_original.assign(graph.num_nodes(), -1);
    for (NodeId i = 0; i < lcc.graph.num_nodes(); ++i) {
      from_original[lcc.to_original[i]] = i;
    }
    to_original = std::move(lcc.to_original);
    graph = std::move(lcc.graph);
  }
  if (cli.verbose) {
    // Load covers parse/generate + optional reweight + LCC reduction.
    trace.EndSpan(load_span);
    PrintSpans(trace, trace.spans().size() - 1, "");
  }

  if (cli.augment > 0 && cli.augment_group.empty()) {
    return FailWith(
        Status::InvalidArgument("--augment requires --group u1,u2,..."),
        cli.json, 2);
  }
  if (cli.augment == 0 && (!cli.augment_group.empty() || cli.candidates_set)) {
    // Silently ignoring these and running a default solve would answer
    // a question the user did not ask.
    return FailWith(
        Status::InvalidArgument("--group/--candidates require --augment N"),
        cli.json, 2);
  }

  std::vector<cfcm::engine::Job> jobs;
  std::vector<std::string> algorithms = cli.algorithms;
  if (algorithms.empty() && cli.evaluate_groups.empty() && cli.augment == 0) {
    algorithms.push_back("forest");
  }
  for (const std::string& algorithm : algorithms) {
    cfcm::engine::SolveJob job;
    job.algorithm = algorithm;
    job.k = cli.k;
    job.eps = cli.eps;
    job.seed = cli.seed;
    job.selection = cli.selection;
    job.solver_backend = cli.solver_backend;
    jobs.emplace_back(std::move(job));
  }
  for (const std::vector<NodeId>& group : cli.evaluate_groups) {
    cfcm::engine::EvaluateJob job;
    job.group = group;
    job.probes = cli.probes;
    job.seed = cli.seed;
    job.solver_backend = cli.solver_backend;
    jobs.emplace_back(std::move(job));
  }
  if (cli.augment > 0) {
    cfcm::engine::AugmentJob job;
    job.group = cli.augment_group;
    job.k = cli.augment;
    job.candidates = cli.candidates;
    job.solver_backend = cli.solver_backend;
    jobs.emplace_back(std::move(job));
  }

  // `jobs` keeps the user's numbering for display; `exec_jobs` carries
  // the LCC-translated ids actually run.
  std::vector<cfcm::engine::Job> exec_jobs = jobs;
  if (!to_original.empty()) {
    for (cfcm::engine::Job& job : exec_jobs) {
      std::vector<NodeId>* group = nullptr;
      const char* flag = "--evaluate";
      if (auto* eval = std::get_if<cfcm::engine::EvaluateJob>(&job)) {
        group = &eval->group;
      } else if (auto* augment =
                     std::get_if<cfcm::engine::AugmentJob>(&job)) {
        group = &augment->group;
        flag = "--group";
      }
      if (!group) continue;
      for (NodeId& u : *group) {
        if (u < 0 || u >= static_cast<NodeId>(from_original.size()) ||
            from_original[u] < 0) {
          return FailWith(
              Status::OutOfRange(std::string(flag) + " node " +
                                 std::to_string(u) +
                                 " is not in the largest connected component"),
              cli.json, 1);
        }
        u = from_original[u];
      }
    }
  }

  cfcm::engine::EngineOptions engine_options;
  engine_options.num_threads = cli.threads;  // 0 = hardware concurrency
  // The CLI is a trusted local caller: raise the serving daemon's
  // conservative augment ceiling. 4096 free nodes is a ~134 MB dense
  // inverse and minutes of O(n^3) work — a sane local limit; beyond it
  // the engine's rejection names the ceiling.
  engine_options.augment_max_n = 4096;
  std::size_t build_span = 0;
  if (cli.verbose) build_span = trace.BeginSpan("derived_state");
  cfcm::engine::Engine engine{std::move(graph), engine_options};
  if (cli.verbose) {
    // Touch the Laplacian so the derived-state phase is charged here
    // rather than lazily inside the first job's solver span.
    (void)engine.session().laplacian();
    trace.EndSpan(build_span);
    PrintSpans(trace, trace.spans().size() - 1, "");
  }

  std::vector<StatusOr<cfcm::engine::JobResult>> results;
  if (cli.verbose) {
    // Sequential traced execution: one job at a time against a single
    // pinned snapshot, so the span stream reads as a clean per-job
    // breakdown. Per-seed results are scheduling-invariant, so the
    // output matches the concurrent batch exactly.
    const auto snapshot = engine.session().snapshot();
    results.reserve(exec_jobs.size());
    for (std::size_t i = 0; i < exec_jobs.size(); ++i) {
      const std::size_t first = trace.spans().size();
      results.push_back(engine.Run(exec_jobs[i], snapshot, &trace));
      PrintSpans(trace, first, "job" + std::to_string(i) + " ");
    }
    std::fprintf(stderr, "verbose: %-18s %10.3f ms\n", "total",
                 static_cast<double>(trace.ElapsedNs()) / 1e6);
  } else {
    results = engine.RunBatch(exec_jobs);
  }
  if (!to_original.empty()) {
    // Translate selected groups / added edges back into the input
    // numbering.
    for (auto& result : results) {
      if (!result.ok()) continue;
      if (auto* solve = std::get_if<cfcm::engine::SolveJobResult>(&*result)) {
        for (NodeId& u : solve->output.selected) u = to_original[u];
      } else if (auto* augment =
                     std::get_if<cfcm::engine::AugmentJobResult>(&*result)) {
        for (auto& [u, v] : augment->added) {
          u = to_original[u];
          v = to_original[v];
          if (u > v) std::swap(u, v);
        }
      }
    }
  }

  const auto& session = engine.session();
  const NodeId dmax = session.num_nodes() > 0
                          ? session.graph().degree(session.degree_order()[0])
                          : 0;
  // The pool is already materialized (RunBatch ran on it); its size is
  // the resolved --threads value.
  const int resolved_threads = static_cast<int>(session.pool().num_threads());
  if (cli.json) {
    std::printf("{\n  \"graph\":{\"source\":\"%s\",\"nodes\":%d,"
                "\"edges\":%lld,\"dmax\":%d,\"weighted\":%s,"
                "\"total_weight\":%.9g,\"connected\":%s,\"lcc\":%s},\n"
                "  \"threads\":%d,\n"
                "  \"jobs\":[\n",
                JsonEscapeString(cli.graph_source).c_str(), session.num_nodes(),
                static_cast<long long>(session.num_edges()), dmax,
                session.is_weighted() ? "true" : "false",
                session.total_weight(),
                session.is_connected() ? "true" : "false",
                to_original.empty() ? "false" : "true", resolved_threads);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      PrintJsonJob(jobs[i], results[i], i + 1 == jobs.size());
    }
    std::printf("  ]\n}\n");
  } else {
    std::printf("graph %s: n=%d, m=%lld, dmax=%d, threads=%d",
                cli.graph_source.c_str(), session.num_nodes(),
                static_cast<long long>(session.num_edges()), dmax,
                resolved_threads);
    if (session.is_weighted()) {
      std::printf(", total_weight=%.6g", session.total_weight());
    }
    std::printf("%s\n", to_original.empty() ? "" : " (largest component)");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      PrintTextJob(jobs[i], results[i]);
    }
  }

  int failures = 0;
  for (const auto& result : results) {
    if (!result.ok()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
