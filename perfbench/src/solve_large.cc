// solve_large: the paper's headline use. One set = cold ForestCFCM and
// SchurCFCM solves on nproc threads, both again on 1 thread, and a
// timed C(S) evaluation (Hutchinson, 128 probes) of the forest group.
// One untimed warm-up set, then timed sets while --seconds allows, at
// least three; each metric is the median over the sets. The three
// groups the quality gate compares are evaluated on the clock as well.
// The traced run adds the layer ledger: a replica of the lazy selection
// with a timing LazyDeltaFn, a separate EstimateFirstPick, and the
// per-forest split of ledger.h.
#include <algorithm>
#include <cmath>
#include <memory>

#include "cfcm/cfcc.h"
#include "cfcm/forest_cfcm.h"
#include "cfcm/heuristics.h"
#include "cfcm/lazy_greedy.h"
#include "cfcm/schur_cfcm.h"
#include "common/thread_pool.h"
#include "estimators/first_pick.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "ledger.h"
#include "workloads.h"

namespace perfbench {

namespace {

// BA(4000, 4) at eps 0.3 rather than BA(8000, 4) at eps 0.2: one set
// then takes about 4 s instead of 25 s, so a run holds enough sets
// for its medians to ride out the stalls of a shared host.
constexpr cfcm::NodeId kNodes = 4000;
constexpr cfcm::NodeId kAttach = 4;
constexpr int kGroup = 12;
constexpr double kEps = 0.3;
constexpr int kSetups = 31;
constexpr int kEvalProbes = 128;
constexpr int kLedgerForests = 96;
constexpr int kMinSets = 3;

struct Leg {
  Samples seconds;
  cfcm::CfcmResult last;
  std::map<std::string, uint64_t> counters_before, counters_after;
  CpuTimes cpu;  ///< CPU spent by the last solve
};

// Runs one cold solve, timed from the call to the return.
template <typename Solve>
bool TimedSolve(Report& report, const char* what, Solve solve, Leg* leg) {
  report.Attempt();
  leg->counters_before = CounterSnapshot();
  const CpuTimes cpu0 = ProcessCpu();
  const double t0 = NowSeconds();
  cfcm::StatusOr<cfcm::CfcmResult> result = solve();
  const double elapsed = NowSeconds() - t0;
  const CpuTimes cpu1 = ProcessCpu();
  leg->counters_after = CounterSnapshot();
  if (!result.ok()) {
    report.Fail();
    report.Check(std::string(what) + "_solve", result.status().ToString());
    return false;
  }
  leg->seconds.Add(elapsed);
  leg->last = std::move(*result);
  leg->cpu = {cpu1.user - cpu0.user, cpu1.sys - cpu0.sys};
  return true;
}

}  // namespace

void RunSolveLarge(Report& report) {
  const Args& args = report.args();
  const int nproc = Nproc();
  const uint64_t graph_seed = 0x5eed0000ULL + args.seed;

  // Set-up: graph generation, connectivity check and both pools.
  Samples setup;
  cfcm::Graph graph;
  std::unique_ptr<cfcm::ThreadPool> pool_n;
  std::unique_ptr<cfcm::ThreadPool> pool_1;
  for (int i = 0; i < kSetups; ++i) {
    pool_n.reset();
    pool_1.reset();
    const double t0 = NowSeconds();
    graph = cfcm::BarabasiAlbert(kNodes, kAttach, graph_seed);
    const bool connected = cfcm::IsConnected(graph);
    pool_n = std::make_unique<cfcm::ThreadPool>(BatchPoolWorkers());
    pool_1 = std::make_unique<cfcm::ThreadPool>(1);
    setup.Add(NowSeconds() - t0);
    if (!connected) report.Check("graph_connected", "generated graph is disconnected");
  }
  report.Info("config", "graph ba:" + std::to_string(kNodes) + "," +
                            std::to_string(kAttach) + "," +
                            std::to_string(graph_seed) + " k " +
                            std::to_string(kGroup) + " eps " + Num(kEps) +
                            " threads " + std::to_string(nproc) +
                            " (pool " + std::to_string(BatchPoolWorkers()) +
                            " + caller) and 1");

  cfcm::CfcmOptions options_n;
  options_n.eps = kEps;
  options_n.seed = args.seed;
  options_n.pool = pool_n.get();
  cfcm::CfcmOptions options_1 = options_n;
  options_1.pool = pool_1.get();

  // Set 0 warms caches and the allocator and is not timed. Timed sets
  // repeat while the next one fits in --seconds; the legs interleave so
  // that each sees the same host.
  // Each evaluation is timed: it is the library's answer to "what is
  // C(S) of this group", a single-threaded CG solve per probe.
  const uint64_t eval_seed = 0xe7a1ULL + args.seed;
  Samples eval_seconds;
  auto evaluate = [&](const std::vector<cfcm::NodeId>& group) {
    const double t0 = NowSeconds();
    cfcm::ApproxCfcc value =
        cfcm::ApproximateGroupCfcc(graph, group, kEvalProbes, eval_seed);
    eval_seconds.Add(NowSeconds() - t0);
    return value;
  };

  Leg forest_n, forest_1, schur_n, schur_1, warmup;
  const double deadline = NowSeconds() + args.seconds;
  for (int set = 0;; ++set) {
    const double set_start = NowSeconds();
    Leg* fn = set == 0 ? &warmup : &forest_n;
    Leg* sn = set == 0 ? &warmup : &schur_n;
    Leg* f1 = set == 0 ? &warmup : &forest_1;
    Leg* s1 = set == 0 ? &warmup : &schur_1;
    TimedSolve(report, "forest", [&] {
      return cfcm::ForestCfcmMaximize(graph, kGroup, options_n);
    }, fn);
    TimedSolve(report, "schur", [&] {
      return cfcm::SchurCfcmMaximize(graph, kGroup, options_n);
    }, sn);
    TimedSolve(report, "forest_1t", [&] {
      return cfcm::ForestCfcmMaximize(graph, kGroup, options_1);
    }, f1);
    TimedSolve(report, "schur_1t", [&] {
      return cfcm::SchurCfcmMaximize(graph, kGroup, options_1);
    }, s1);
    if (set > 0 && !fn->last.selected.empty()) evaluate(fn->last.selected);
    const double now = NowSeconds();
    if (set >= kMinSets && now + (now - set_start) > deadline) break;
  }

  std::vector<cfcm::NodeId> forest_group = forest_n.last.selected;
  if (report.injected("wrong_selection") && !forest_group.empty()) {
    forest_group.back() = (forest_group.back() + 1) % kNodes;
  }

  // Correctness: group shape and thread-count determinism.
  report.Check("forest_group", CheckGroup(forest_group, kGroup, kNodes));
  report.Check("schur_group", CheckGroup(schur_n.last.selected, kGroup, kNodes));
  report.Check("forest_1t_equals_nproc",
               CheckSameSelection(forest_1.last.selected, forest_group));
  report.Check("schur_1t_equals_nproc",
               CheckSameSelection(schur_1.last.selected, schur_n.last.selected));
  const std::vector<cfcm::NodeId> degree_group =
      cfcm::DegreeSelect(graph, kGroup);
  // One probe seed for all three groups, so their probe noise cancels in
  // the comparison (Hutchinson: an exact trace is too slow to repeat here).
  const cfcm::ApproxCfcc degree_cfcc = evaluate(degree_group);
  const cfcm::ApproxCfcc forest_cfcc = evaluate(forest_group);
  const cfcm::ApproxCfcc schur_cfcc = evaluate(schur_n.last.selected);
  // Quality gate: the paper's guarantee, C(S) >= (1 - k/((k-1)e) - eps)
  // * OPT, with the top-degree group's C(S) standing in as a lower
  // bound on OPT. Where the sampled group lands below the top-degree
  // group itself, that is reported on a "note" line and in
  // quality_ratio, not gated: the solvers do not promise it.
  const double factor =
      1.0 - kGroup / ((kGroup - 1) * std::exp(1.0)) - kEps;
  report.Check("forest_cfcc_within_paper_factor",
               CheckNotBelow(forest_cfcc.cfcc, factor * degree_cfcc.cfcc, 0.0));
  report.Check("schur_cfcc_within_paper_factor",
               CheckNotBelow(schur_cfcc.cfcc, factor * degree_cfcc.cfcc, 0.0));
  for (const auto& [name, value] : {std::pair{"forest", forest_cfcc.cfcc},
                                    std::pair{"schur", schur_cfcc.cfcc}}) {
    const double gap = value / degree_cfcc.cfcc - 1.0;
    if (gap < -3.0 * degree_cfcc.trace_std_error / degree_cfcc.trace) {
      report.Info("note", std::string(name) + "_cfcc below top-degree cfcc by " +
                              Num(-100.0 * gap) + "%");
    }
  }

  const double forest_s = forest_n.seconds.Median();
  const double forest_1t_s = forest_1.seconds.Median();
  const double schur_s = schur_n.seconds.Median();
  const double schur_1t_s = schur_1.seconds.Median();
  const double eval_s = eval_seconds.Median();
  report.Named("setup_s", setup.Median(), "s", setup.count());
  report.Named("forest_solve_s", forest_s, "s", forest_n.seconds.count());
  report.Named("forest_solve_1t_s", forest_1t_s, "s", forest_1.seconds.count());
  report.Named("schur_solve_s", schur_s, "s", schur_n.seconds.count());
  report.Named("schur_solve_1t_s", schur_1t_s, "s", schur_1.seconds.count());
  report.Named("cfcc_eval_s", eval_s, "s", eval_seconds.count());
  for (const auto& [name, leg] : {std::pair{"forest_solve_s", &forest_n},
                                  std::pair{"schur_solve_s", &schur_n},
                                  std::pair{"forest_solve_1t_s", &forest_1},
                                  std::pair{"schur_solve_1t_s", &schur_1}}) {
    std::string values;
    for (double v : leg->seconds.values()) {
      values.push_back(' ');
      values.append(Num(v));
    }
    report.Info("samples", std::string(name) + values);
  }
  report.Info("forests", "forest " + std::to_string(forest_n.last.total_forests) +
                             " walk_steps " +
                             std::to_string(forest_n.last.total_walk_steps) +
                             " schur " + std::to_string(schur_n.last.total_forests));
  report.Named("forest_cfcc", forest_cfcc.cfcc, "cfcc");
  report.Named("schur_cfcc", schur_cfcc.cfcc, "cfcc");
  report.Named("degree_cfcc", degree_cfcc.cfcc, "cfcc");
  const double ok_frac =
      1.0 - static_cast<double>(report.failed()) /
                static_cast<double>(std::max<int64_t>(report.attempted(), 1));
  report.Named("error_frac", 1.0 - ok_frac, "frac", report.attempted());
  report.Named("peak_rss_mb", PeakRssMb(), "MB");

  report.Role("setup_s", setup.Median());
  report.Role("ok_frac", ok_frac);
  // The bounded roles are single-threaded. On a shared 4-core host the
  // nproc-thread solves swing by half their median from run to run
  // (their batch commit turnstile spins on a descheduled peer), so
  // forest_solve_s and schur_solve_s are printed above, not bounded.
  report.Role("primary_ms", forest_1t_s * 1e3);
  report.Role("secondary_ms", schur_1t_s * 1e3);
  report.Role("tertiary_ms", eval_s * 1e3);
  report.Role("quality_ratio",
              std::min(forest_cfcc.cfcc, schur_cfcc.cfcc) / degree_cfcc.cfcc);

  if (args.trace) {
    // Replica of ForestCfcmMaximize's lazy path with a timing
    // LazyDeltaFn; it must select exactly what the untraced call did.
    // An untraced solve right before it prices the tracing.
    Leg adjacent;
    TimedSolve(report, "forest", [&] {
      return cfcm::ForestCfcmMaximize(graph, kGroup, options_n);
    }, &adjacent);
    DeltaTally tally;
    const double t0 = NowSeconds();
    cfcm::StatusOr<cfcm::CfcmResult> replica = cfcm::LazyGreedySelect(
        graph, kGroup, options_n, *pool_n,
        TimedForestDelta(graph, options_n, *pool_n, &tally),
        /*allow_forest_reuse=*/true);
    const double replica_s = NowSeconds() - t0;
    report.Attempt();
    if (!replica.ok()) {
      report.Fail();
      report.Check("traced_replica", replica.status().ToString());
      replica = cfcm::CfcmResult{};
    }
    report.Check("traced_replica_equals_untraced",
                 CheckSameSelection(replica->selected, forest_group));

    const double fp0 = NowSeconds();
    const cfcm::FirstPickResult first = cfcm::EstimateFirstPick(
        graph, cfcm::ToEstimatorOptions(options_n), *pool_n);
    const double first_pick_s = NowSeconds() - fp0;
    report.Check("first_pick_equals_selection",
                 forest_group.empty() || first.best == forest_group[0]
                     ? ""
                     : "first pick " + std::to_string(first.best));

    // Per-forest split on the root set of the middle greedy round.
    const std::vector<cfcm::NodeId> roots(
        forest_group.begin(), forest_group.begin() + kGroup / 2);
    const ForestLedger fl = MeasureForestLayers(graph, roots, options_n,
                                                kLedgerForests, *pool_1,
                                                *pool_n);

    const cfcm::CfcmResult& fr = forest_n.last;
    report.Layer("forest.sample_us_per_forest", fl.sample_us);
    report.Layer("forest.walk_steps", static_cast<double>(fr.total_walk_steps));
    report.Layer("forest.subtree_jl_us_per_forest", fl.subtree_jl_us);
    report.Layer("linalg.jl_rows", fr.jl_rows);
    report.Layer("estimators.process_forest_us", fl.process_us);
    report.Layer("estimators.prefix_pass_us",
                 fl.process_us - fl.sample_us - fl.subtree_jl_us);
    report.Layer("estimators.accumulate_us_per_forest", fl.accumulate_us);
    report.Layer("estimators.first_pick_s", first_pick_s);
    report.Layer("estimators.delta_s", tally.seconds);
    report.Layer("estimators.delta_calls", tally.calls);
    report.Layer("estimators.forests",
                 static_cast<double>(tally.forests + first.forests));
    report.Layer("estimators.converged_frac",
                 tally.calls > 0 ? static_cast<double>(tally.converged) /
                                       tally.calls
                                 : 0.0);
    const double slot_wall = static_cast<double>(fl.slots) * fl.batch_wall_s;
    report.Layer("runtime.busy_frac", slot_wall > 0 ? fl.busy_s / slot_wall : 0.0);
    report.Layer("runtime.wait_s", slot_wall - fl.busy_s);
    const double cpu = forest_n.cpu.user + forest_n.cpu.sys;
    report.Layer("runtime.sys_cpu_frac", cpu > 0 ? forest_n.cpu.sys / cpu : 0.0);
    report.Layer("runtime.speedup", forest_s > 0 ? forest_1t_s / forest_s : 0.0);
    report.Layer("runtime.chunks",
                 static_cast<double>(CounterDelta(forest_n.counters_before,
                                                  forest_n.counters_after,
                                                  "runtime.chunks")));
    report.Layer("cfcm.select_self_s", replica_s - tally.seconds - first_pick_s);
    report.Layer("cfcm.rescored_candidates",
                 static_cast<double>(fr.rescored_candidates));
    report.Layer("cfcm.heap_pops", static_cast<double>(fr.heap_pops));
    report.Layer("cfcm.reuse_frac",
                 fr.total_forests > 0 ? static_cast<double>(fr.forests_reused) /
                                            static_cast<double>(fr.total_forests)
                                      : 0.0);
    report.Layer("cfcm.schur.aux_roots", schur_n.last.auxiliary_roots);
    const double untraced_s = adjacent.seconds.Median();
    report.Layer("obs.trace_overhead_frac",
                 untraced_s > 0 ? replica_s / untraced_s - 1.0 : 0.0);
    report.Named("traced_replica_s", replica_s, "s", 1);
  }
  report.Role("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
