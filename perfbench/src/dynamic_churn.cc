// dynamic_churn: writes beside reads. One closed-loop caller drives
// ServeHandler::HandleLine in process on BA(2000, 4). Each round sends
// a seeded delta (1-edge reweight, ~1% edge churn, or a node add) and
// then a "warm":"auto" re-solve; after some reweight-only deltas it
// also reads a staleness-tolerant cached answer. This runs graph
// apply, snapshot swap, incremental forest reuse and swap repair, and
// the result cache's stale path: the arena and cache code the other two
// workloads use differently.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cfcm/cfcc.h"
#include "cfcm/forest_cfcm.h"
#include "common/rng.h"
#include "engine/session.h"
#include "graph/components.h"
#include "graph/delta.h"
#include "graph/spec.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cfcm::serve::JsonValue;

constexpr int kNodes = 2000;
constexpr int kAttach = 4;
constexpr int kGroup = 8;
// eps 0.4 and single-threaded solves keep each re-solve a steady,
// single-core cost, so a 45 s run holds about two hundred rounds.
constexpr double kEps = 0.4;
constexpr int kSetups = 5;
// Edges removed and added by one churn delta (~1% of BA(2000, 4)).
constexpr int kChurnEdges = 40;
// Every kQualityEvery-th round also solves cold off the clock, to
// compare the warm group's C(S) with the cold group's on one snapshot.
constexpr int kQualityEvery = 16;
constexpr int kQualityProbes = 128;
// Every kStaleEvery-th reweight round primes and reads a stale answer.
constexpr int kStaleEvery = 4;

std::string Weight(double w) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", w);
  return buf;
}

// Appends "[u,v]" to a comma-separated JSON pair list.
void AppendPair(std::string* list, cfcm::NodeId u, cfcm::NodeId v) {
  if (!list->empty()) list->push_back(',');
  list->push_back('[');
  list->append(std::to_string(u));
  list->push_back(',');
  list->append(std::to_string(v));
  list->push_back(']');
}

// A seeded delta against `graph`, as a GraphDelta and as mutate JSON.
struct Delta {
  const char* kind = "";
  cfcm::GraphDelta delta;
  std::string json;
  bool reweight_only = false;
};

enum class DeltaKind { kReweight, kChurn, kNodeAdd };
constexpr int kDeltaKinds = 3;

// The kinds repeat in this fixed order (5 reweights, 3 churns, 2 node
// adds per 10 rounds), so every run of a given length applies the same
// mix; the seed picks the edges, weights and peers.
constexpr DeltaKind kCycle[] = {
    DeltaKind::kReweight, DeltaKind::kChurn,    DeltaKind::kReweight,
    DeltaKind::kNodeAdd,  DeltaKind::kReweight, DeltaKind::kChurn,
    DeltaKind::kReweight, DeltaKind::kNodeAdd,  DeltaKind::kReweight,
    DeltaKind::kChurn};

Delta MakeDelta(const cfcm::Graph& graph, DeltaKind kind, cfcm::Rng& rng) {
  const cfcm::NodeId n = graph.num_nodes();
  auto random_edge = [&](cfcm::NodeId* u, cfcm::NodeId* v) {
    do {
      *u = static_cast<cfcm::NodeId>(rng.NextBounded(static_cast<uint32_t>(n)));
    } while (graph.degree(*u) == 0);
    const auto nb = graph.neighbors(*u);
    *v = nb[rng.NextBounded(static_cast<uint32_t>(nb.size()))];
  };
  Delta d;
  if (kind == DeltaKind::kReweight) {
    d.kind = "reweight";
    d.reweight_only = true;
    cfcm::NodeId a, b;
    random_edge(&a, &b);
    const double w = 0.5 + 1.5 * rng.NextDouble();
    d.delta.ReweightEdge(a, b, w);
    d.json = "\"reweight\":[[" + std::to_string(a) + "," + std::to_string(b) +
             "," + Weight(w) + "]]";
  } else if (kind == DeltaKind::kChurn) {
    d.kind = "churn";
    std::set<std::pair<cfcm::NodeId, cfcm::NodeId>> removed, added;
    std::string rm, add;
    while (static_cast<int>(removed.size()) < kChurnEdges) {
      cfcm::NodeId a, b;
      random_edge(&a, &b);
      if (graph.degree(a) < 3 || graph.degree(b) < 3) continue;
      if (!removed.insert({std::min(a, b), std::max(a, b)}).second) continue;
      d.delta.RemoveEdge(a, b);
      AppendPair(&rm, a, b);
    }
    while (static_cast<int>(added.size()) < kChurnEdges) {
      const auto a = static_cast<cfcm::NodeId>(rng.NextBounded(n));
      const auto b = static_cast<cfcm::NodeId>(rng.NextBounded(n));
      if (a == b || graph.HasEdge(a, b)) continue;
      if (!added.insert({std::min(a, b), std::max(a, b)}).second) continue;
      d.delta.AddEdge(a, b);
      AppendPair(&add, a, b);
    }
    d.json = "\"remove\":[" + rm + "],\"add\":[" + add + "]";
  } else {
    d.kind = "node_add";
    d.delta.AddNodes(1);
    std::set<cfcm::NodeId> peers;
    while (peers.size() < 3) {
      peers.insert(static_cast<cfcm::NodeId>(rng.NextBounded(n)));
    }
    std::string add;
    for (cfcm::NodeId p : peers) {
      d.delta.AddEdge(n, p);
      AppendPair(&add, n, p);
    }
    d.json = "\"add_nodes\":1,\"add\":[" + add + "]";
  }
  return d;
}

std::string SolveLine(const char* algorithm, uint64_t seed, const char* extra) {
  return std::string(R"({"op":"solve","graph":"g","algorithm":")") + algorithm +
         R"(","k":)" + std::to_string(kGroup) + R"(,"eps":)" + Num(kEps) +
         R"(,"seed":)" + std::to_string(seed) + extra + "}";
}

std::vector<cfcm::NodeId> Selection(const JsonValue& response) {
  std::vector<cfcm::NodeId> group;
  if (const JsonValue* sel = response.Find("selection"); sel && sel->is_array()) {
    for (const JsonValue& v : sel->array()) {
      group.push_back(static_cast<cfcm::NodeId>(v.as_int()));
    }
  }
  return group;
}

double Member(const JsonValue& response, const char* key) {
  const JsonValue* v = response.Find(key);
  if (v == nullptr) return 0.0;
  if (v->is_bool()) return v->as_bool() ? 1.0 : 0.0;
  return v->is_number() ? v->as_double() : 0.0;
}

// Duration of the first span called `name` in a traced response, ms.
double SpanMs(const JsonValue& response, const char* name) {
  const JsonValue* trace = response.Find("trace");
  const JsonValue* spans = trace ? trace->Find("spans") : nullptr;
  if (spans == nullptr || !spans->is_array()) return -1.0;
  for (const JsonValue& span : spans->array()) {
    const JsonValue* n = span.Find("name");
    const JsonValue* d = span.Find("duration_us");
    if (n && d && n->is_string() && n->as_string() == name) {
      return d->as_double() * 1e-3;
    }
  }
  return -1.0;
}

}  // namespace

void RunDynamicChurn(Report& report) {
  const Args& args = report.args();
  const uint64_t graph_seed = 0xc4a70000ULL + args.seed;
  const std::string spec = "ba:" + std::to_string(kNodes) + "," +
                           std::to_string(kAttach) + "," +
                           std::to_string(graph_seed);
  const uint64_t solve_seed = args.seed;

  auto ok = [](const JsonValue& r) {
    const JsonValue* s = r.Find("status");
    return s != nullptr && s->is_string() && s->as_string() == "ok";
  };
  auto send = [&](cfcm::serve::ServeHandler& h, const std::string& line) {
    report.Attempt();
    JsonValue response = h.HandleLine(line);
    if (!ok(response)) {
      report.Fail();
      report.Check("request", line + " -> " + response.Serialize());
    }
    return response;
  };

  // Set-up: handler, graph load, and the initial (cold) solve that
  // deposits the first warm state; repeated, the last one is used.
  Samples setup;
  std::unique_ptr<cfcm::serve::ServeHandler> handler;
  JsonValue initial;
  for (int i = 0; i < kSetups; ++i) {
    handler.reset();
    const double t0 = NowSeconds();
    cfcm::serve::HandlerOptions hopt;
    // Solves run inline on the caller: with nproc-thread batches the
    // re-solve times swung by half their median from run to run.
    hopt.catalog.num_threads = 1;
    handler = std::make_unique<cfcm::serve::ServeHandler>(hopt);
    send(*handler, R"({"op":"load","graph":"g","source":")" + spec + R"("})");
    initial = send(*handler, SolveLine("forest", solve_seed, R"(,"warm":"auto")"));
    setup.Add(NowSeconds() - t0);
  }
  auto session = handler->catalog().Acquire("g");
  auto mirror = cfcm::LoadGraphFromSpec(spec);
  if (!session.ok() || !mirror.ok()) {
    report.Check("setup", "graph unavailable");
    return;
  }
  cfcm::Graph graph = std::move(*mirror);
  cfcm::ThreadPool& pool = (*session)->pool();
  cfcm::CfcmOptions cold_options;
  cold_options.eps = kEps;
  cold_options.seed = solve_seed;
  cold_options.pool = &pool;
  // The off-clock cold reference must be the engine's cold solve.
  {
    auto cold = cfcm::ForestCfcmMaximize(graph, kGroup, cold_options);
    report.Check("reference_equals_engine_cold",
                 cold.ok() ? CheckSameSelection(cold->selected, Selection(initial))
                           : cold.status().ToString());
  }
  report.Info("config", "graph " + spec + " k " + std::to_string(kGroup) +
                            " eps " + Num(kEps) + " threads " +
                            std::to_string(Nproc()));

  Samples mutate_ms, resolve_ms, stale_ms, quality, apply_ms, derive_ms;
  Samples untraced_resolve_ms, solver_ms, score_ms, commit_ms;
  Samples resolve_by_kind[kDeltaKinds];
  Samples resolve_warm_ms, resolve_cold_ms;
  Samples parse_us, lookup_us, serialize_us, stats_us, evaluate_ms;
  double warm = 0, fallbacks = 0, swaps = 0, reused = 0, resampled = 0;
  int rounds = 0, reweights = 0, stale_hits = 0, stale_reads = 0;
  std::string group_failure, stale_failure, mirror_failure;
  cfcm::Rng rng(args.seed, 0xc4a7);
  const double deadline = NowSeconds() + args.seconds;
  while (NowSeconds() < deadline) {
    ++rounds;
    // A traced run alternates traced and untraced whole delta cycles, so
    // the tracing overhead is priced on the same mix of deltas.
    const bool traced =
        args.trace && ((rounds - 1) / std::size(kCycle)) % 2 == 1;
    const DeltaKind kind = kCycle[(rounds - 1) % std::size(kCycle)];
    Delta d = MakeDelta(graph, kind, rng);
    double t0 = NowSeconds();
    auto next = graph.Apply(d.delta);
    double apply = NowSeconds() - t0;
    for (int retry = 0; next.ok() && !cfcm::IsConnected(*next) && retry < 8; ++retry) {
      d = MakeDelta(graph, kind, rng);
      t0 = NowSeconds();
      next = graph.Apply(d.delta);
      apply = NowSeconds() - t0;
    }
    if (!next.ok() || !cfcm::IsConnected(*next)) {
      report.Check("delta", "no connected delta found");
      break;
    }
    apply_ms.Add(apply * 1e3);
    if (args.trace) {
      cfcm::engine::GraphSnapshot snapshot(*next);
      const double s0 = NowSeconds();
      snapshot.laplacian();
      snapshot.fingerprint();
      snapshot.is_connected();
      derive_ms.Add((NowSeconds() - s0) * 1e3);
    }

    const bool stale_round = d.reweight_only && ++reweights % kStaleEvery == 0;
    if (stale_round) send(*handler, SolveLine("degree", solve_seed, ""));

    const char* trace_member = traced ? R"(,"trace":true)" : "";
    const double r0 = NowSeconds();
    const JsonValue mutated = send(
        *handler, R"({"op":"mutate","graph":"g",)" + d.json + trace_member + "}");
    const double r1 = NowSeconds();
    const JsonValue solved = send(
        *handler, SolveLine("forest", solve_seed,
                            traced ? R"(,"warm":"auto","trace":true)"
                                   : R"(,"warm":"auto")"));
    const double r2 = NowSeconds();
    graph = std::move(*next);

    if (!args.trace || traced) {
      mutate_ms.Add((r1 - r0) * 1e3);
      resolve_ms.Add((r2 - r0) * 1e3);
      resolve_by_kind[static_cast<int>(kind)].Add((r2 - r0) * 1e3);
      (Member(solved, "warm_started") > 0 ? resolve_warm_ms : resolve_cold_ms)
          .Add((r2 - r0) * 1e3);
    } else {
      untraced_resolve_ms.Add((r2 - r0) * 1e3);
    }
    if (traced) {
      if (double v = SpanMs(mutated, "commit"); v >= 0) commit_ms.Add(v);
      if (double v = SpanMs(solved, "solver"); v >= 0) solver_ms.Add(v);
      if (double v = SpanMs(solved, "score"); v >= 0) score_ms.Add(v);
    }
    warm += Member(solved, "warm_started");
    fallbacks += Member(solved, "cold_fallback");
    swaps += Member(solved, "swap_moves");
    reused += Member(solved, "forests_reused");
    resampled += Member(solved, "forests_resampled");

    std::vector<cfcm::NodeId> warm_group = Selection(solved);
    if (report.injected("warm_group") && warm_group.size() > 1) {
      warm_group[1] = warm_group[0];
    }
    const std::string group_why = CheckGroup(warm_group, kGroup, graph.num_nodes());
    if (!group_why.empty() && group_failure.empty()) {
      group_failure = std::string(d.kind) + " round " + std::to_string(rounds) +
                      ": " + group_why;
    }

    if (traced && group_why.empty()) {
      // The serve and obs layers on the handler path: parsing and the
      // cache probe of the re-solve (its spans), the JSON writer on its
      // response, a stats call, and a probed evaluate of the warm group.
      if (double v = SpanMs(solved, "parse"); v >= 0) parse_us.Add(v * 1e3);
      if (double v = SpanMs(solved, "cache_lookup"); v >= 0) lookup_us.Add(v * 1e3);
      double t = NowSeconds();
      const std::size_t bytes = solved.Serialize().size();
      serialize_us.Add((NowSeconds() - t) * 1e6);
      if (bytes == 0) report.Check("serialize", "empty serialization");
      t = NowSeconds();
      send(*handler, R"({"op":"stats"})");
      stats_us.Add((NowSeconds() - t) * 1e6);
      std::string group;
      for (cfcm::NodeId v : warm_group) {
        if (!group.empty()) group.push_back(',');
        group += std::to_string(v);
      }
      const JsonValue evaluated = send(
          *handler, R"({"op":"evaluate","graph":"g","group":[)" + group +
                        R"(],"probes":8,"seed":)" + std::to_string(rounds) +
                        R"(,"trace":true})");
      if (double v = SpanMs(evaluated, "evaluate"); v >= 0) evaluate_ms.Add(v);
    }

    if (stale_round) {
      const double s0 = NowSeconds();
      const JsonValue stale = send(
          *handler, SolveLine("degree", solve_seed, R"(,"staleness":{"max_epochs":1})"));
      stale_ms.Add((NowSeconds() - s0) * 1e3);
      ++stale_reads;
      const JsonValue* cache = stale.Find("cache");
      if (cache != nullptr && cache->is_string() && cache->as_string() == "stale") {
        ++stale_hits;
      } else if (stale_failure.empty()) {
        stale_failure = "reweight-only delta did not answer stale: " +
                        stale.Serialize();
      }
    }

    if (rounds % kQualityEvery == 0 && !args.trace) {
      // Off the clock: the cold reference runs on the snapshot the server
      // just solved on, which must be the mirror graph byte for byte.
      const auto served = (*session)->snapshot();
      if (served->fingerprint() != cfcm::engine::GraphSnapshot(graph).fingerprint() &&
          mirror_failure.empty()) {
        mirror_failure = "served graph differs from the mirror at round " +
                         std::to_string(rounds);
      }
      const cfcm::Graph& g = served->graph();
      auto cold = cfcm::ForestCfcmMaximize(g, kGroup, cold_options);
      if (cold.ok() && CheckGroup(warm_group, kGroup, g.num_nodes()).empty()) {
        const uint64_t probe_seed = 0xe7a1ULL + static_cast<uint64_t>(rounds);
        const double warm_cfcc =
            cfcm::ApproximateGroupCfcc(g, warm_group, kQualityProbes, probe_seed).cfcc;
        const double cold_cfcc = cfcm::ApproximateGroupCfcc(
            g, cold->selected, kQualityProbes, probe_seed).cfcc;
        quality.Add(warm_cfcc / cold_cfcc);
      }
    }
  }
  report.Check("warm_groups_well_formed", group_failure);
  report.Check("stale_reads_answer_stale", stale_failure);
  report.Check("mirror_matches_served_graph", mirror_failure);

  const double ok_frac =
      1.0 - static_cast<double>(report.failed()) /
                static_cast<double>(std::max<int64_t>(report.attempted(), 1));
  report.Named("setup_s", setup.Median(), "s", setup.count());
  report.Named("mutate_p50_ms", mutate_ms.Median(), "ms", mutate_ms.count());
  report.Named("resolve_p50_ms", resolve_ms.Median(), "ms", resolve_ms.count());
  report.Named("resolve_p90_ms", resolve_ms.Percentile(0.9), "ms",
               resolve_ms.count());
  for (const auto& [name, kind] :
       {std::pair{"reweight", DeltaKind::kReweight},
        std::pair{"churn", DeltaKind::kChurn},
        std::pair{"node_add", DeltaKind::kNodeAdd}}) {
    const Samples& s = resolve_by_kind[static_cast<int>(kind)];
    report.Named(std::string("resolve_") + name + "_p50_ms", s.Median(), "ms",
                 s.count());
  }
  report.Named("resolve_warm_p50_ms", resolve_warm_ms.Median(), "ms",
               resolve_warm_ms.count());
  report.Named("resolve_cold_p50_ms", resolve_cold_ms.Median(), "ms",
               resolve_cold_ms.count());
  report.Named("stale_read_p50_ms", stale_ms.Median(), "ms", stale_ms.count());
  report.Named("warm_cfcc_ratio", quality.Median(), "ratio", quality.count());
  report.Named("error_frac", 1.0 - ok_frac, "frac", report.attempted());
  report.Named("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("samples_beyond",
              "resolve_p90 " + std::to_string(resolve_ms.Beyond(0.9)));
  report.Info("rounds", std::to_string(rounds) + " warm " + Num(warm) +
                            " stale_reads " + std::to_string(stale_reads) +
                            " stale_hits " + std::to_string(stale_hits));

  report.Role("setup_s", setup.Median());
  report.Role("ok_frac", ok_frac);
  report.Role("primary_ms", resolve_ms.Median());
  report.Role("secondary_ms", resolve_ms.Percentile(0.9));
  report.Role("tertiary_ms", mutate_ms.Median());
  report.Role("quality_ratio", quality.Median());

  if (args.trace) {
    const double solves = std::max(rounds, 1);
    report.Layer("cfcm.incremental.warm_frac", warm / solves);
    report.Layer("cfcm.incremental.clean_frac",
                 reused + resampled > 0 ? reused / (reused + resampled) : 0.0);
    report.Layer("cfcm.incremental.swap_moves", swaps);
    report.Layer("cfcm.incremental.cold_fallbacks", fallbacks);
    report.Layer("engine.solver_ms", solver_ms.Mean());
    report.Layer("engine.score_ms", score_ms.Mean());
    report.Layer("engine.snapshot_derive_ms", derive_ms.Mean());
    report.Layer("graph.apply_ms", apply_ms.Mean());
    report.Layer("serve.mutate_commit_ms", commit_ms.Mean());
    report.Layer("serve.parse_us", parse_us.Mean());
    report.Layer("serve.cache_lookup_us", lookup_us.Mean());
    report.Layer("serve.serialize_us", serialize_us.Mean());
    report.Layer("obs.stats_us", stats_us.Mean());
    report.Layer("engine.evaluate_ms", evaluate_ms.Mean());
    report.Layer("obs.trace_overhead_frac",
                 untraced_resolve_ms.Median() > 0
                     ? resolve_ms.Median() / untraced_resolve_ms.Median() - 1.0
                     : 0.0);
  }
  report.Role("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
