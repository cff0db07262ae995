// Observability through the serving protocol (DESIGN.md §12): the
// `metrics` op in both formats, opt-in request tracing with span
// breakdowns, trace-id echo, and the coherent `observed` block in
// `stats`.
//
// The metrics registry is process-global and other tests in this binary
// also feed it, so every numeric assertion here is a delta or a lower
// bound, never an absolute equality against the whole-process total.
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "serve/protocol.h"

namespace cfcm::serve {
namespace {

JsonValue Call(ServeHandler& handler, const std::string& line) {
  JsonValue response = handler.HandleLine(line);
  EXPECT_TRUE(response.is_object()) << line;
  return response;
}

std::string StrField(const JsonValue& value, const std::string& key) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->is_string() ? field->as_string() : "";
}

int64_t IntField(const JsonValue& value, const std::string& key) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->is_int() ? field->as_int() : -1;
}

// A counter that no request has resolved yet is simply absent from the
// registry — read that as 0 when computing deltas.
int64_t CounterOrZero(const JsonValue& counters, const std::string& key) {
  const JsonValue* field = counters.Find(key);
  return field != nullptr && field->is_int() ? field->as_int() : 0;
}

void LoadKarate(ServeHandler& handler, const std::string& name) {
  const JsonValue loaded = Call(
      handler,
      R"({"op":"load","graph":")" + name + R"(","source":"karate"})");
  ASSERT_EQ(StrField(loaded, "status"), "ok");
}

std::string SolveLine(const std::string& graph, int seed,
                      const std::string& extra = "") {
  return R"({"op":"solve","graph":")" + graph +
         R"(","algorithm":"forest","k":3,"eps":0.3,"seed":)" +
         std::to_string(seed) + extra + "}";
}

TEST(ObservabilityTest, MetricsOpCountsSolveRequests) {
  ServeHandler handler{{}};
  LoadKarate(handler, "m1");

  const JsonValue before = Call(handler, R"({"op":"metrics"})");
  ASSERT_EQ(StrField(before, "status"), "ok");
  const int64_t requests_before =
      CounterOrZero(*before.Find("counters"), "serve.solve.requests");

  ASSERT_EQ(StrField(Call(handler, SolveLine("m1", 5)), "status"), "ok");
  ASSERT_EQ(StrField(Call(handler, SolveLine("m1", 5)), "status"), "ok");

  const JsonValue after = Call(handler, R"({"op":"metrics"})");
  const JsonValue* counters = after.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(IntField(*counters, "serve.solve.requests"),
            requests_before + 2);
  // The solve latency histogram gained samples and reports a coherent
  // shape: count >= 2 and ordered percentiles.
  const JsonValue* histograms = after.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* solve_latency = histograms->Find("serve.solve.latency_us");
  ASSERT_NE(solve_latency, nullptr);
  EXPECT_GE(IntField(*solve_latency, "count"), 2);
  EXPECT_LE(IntField(*solve_latency, "p50"), IntField(*solve_latency, "p99"));
  EXPECT_LE(IntField(*solve_latency, "p99"), IntField(*solve_latency, "max"));
  // The runtime's sampling counters flowed up through the same registry.
  EXPECT_GT(IntField(*counters, "runtime.walk_steps"), 0);
}

TEST(ObservabilityTest, FlightzRequestsHaveTheirOwnSeries) {
  ServeHandler handler{{}};
  const JsonValue before = Call(handler, R"({"op":"metrics"})");
  ASSERT_EQ(StrField(before, "status"), "ok");
  const JsonValue& counters_before = *before.Find("counters");
  const int64_t flightz_before =
      CounterOrZero(counters_before, "serve.flightz.requests");
  const int64_t other_before =
      CounterOrZero(counters_before, "serve.other.requests");

  ASSERT_EQ(StrField(Call(handler, R"({"op":"flightz","n":4})"), "status"),
            "ok");

  const JsonValue after = Call(handler, R"({"op":"metrics"})");
  const JsonValue& counters_after = *after.Find("counters");
  EXPECT_EQ(CounterOrZero(counters_after, "serve.flightz.requests"),
            flightz_before + 1);
  EXPECT_EQ(CounterOrZero(counters_after, "serve.other.requests"),
            other_before);
  // An unknown op still lands in serve.other.*.
  EXPECT_EQ(StrField(Call(handler, R"({"op":"no-such-op"})"), "status"),
            "error");
  const JsonValue last = Call(handler, R"({"op":"metrics"})");
  EXPECT_EQ(CounterOrZero(*last.Find("counters"), "serve.other.requests"),
            other_before + 1);
}

// Every op of the protocol's op table moves exactly its own
// serve.<op>.requests series (not serve.other.*), whether the request
// succeeds or is rejected; an unknown op moves only serve.other.* and
// its error lists the table's ops. Read straight from the registry, so
// the metrics op's own request does not skew its delta.
TEST(ObservabilityTest, EveryTableOpHasItsOwnRequestSeries) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& other = registry.counter("serve.other.requests");
  const std::vector<std::string_view> ops = ServeHandler::OpNames();
  ASSERT_EQ(ops.size(), 10u);
  ServeHandler handler{{}};
  for (std::string_view op : ops) {
    obs::Counter& own =
        registry.counter("serve." + std::string(op) + ".requests");
    const uint64_t own_before = own.value();
    const uint64_t other_before = other.value();
    Call(handler, R"({"op":")" + std::string(op) + R"("})");
    EXPECT_EQ(own.value(), own_before + 1) << op;
    EXPECT_EQ(other.value(), other_before) << op;
  }

  const uint64_t other_before = other.value();
  const JsonValue unknown = Call(handler, R"({"op":"no-such-op"})");
  EXPECT_EQ(other.value(), other_before + 1);
  const JsonValue* error = unknown.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(StrField(*error, "message"),
            "unknown op 'no-such-op' (expected load/unload/solve/evaluate/"
            "mutate/augment/stats/metrics/flightz/shutdown)");
}

TEST(ObservabilityTest, MetricsOpPrometheusFormat) {
  ServeHandler handler{{}};
  LoadKarate(handler, "m2");
  ASSERT_EQ(StrField(Call(handler, SolveLine("m2", 6)), "status"), "ok");

  const JsonValue response =
      Call(handler, R"({"op":"metrics","format":"prometheus"})");
  ASSERT_EQ(StrField(response, "status"), "ok");
  const std::string text = StrField(response, "text");
  EXPECT_NE(text.find("# TYPE serve_solve_latency_us histogram"),
            std::string::npos)
      << text.substr(0, 400);
  EXPECT_NE(text.find("serve_solve_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("serve_solve_requests"), std::string::npos);

  const JsonValue bad =
      Call(handler, R"({"op":"metrics","format":"xml"})");
  EXPECT_EQ(StrField(bad, "status"), "error");
}

TEST(ObservabilityTest, TraceTrueReturnsSpanBreakdown) {
  ServeHandler handler{{}};
  LoadKarate(handler, "t1");

  // Cache-miss solve: the trace must carry the solver phase with its
  // sampling annotations, and the top-level span sum must account for
  // the bulk of the reported total (phase sum ~ total: everything the
  // handler does is inside some span; only response assembly is not).
  const JsonValue traced = Call(
      handler, SolveLine("t1", 7, R"(,"trace":true,"trace_id":"req-42")"));
  ASSERT_EQ(StrField(traced, "status"), "ok");
  EXPECT_EQ(StrField(traced, "trace_id"), "req-42");
  const JsonValue* trace = traced.Find("trace");
  ASSERT_NE(trace, nullptr);
  const int64_t total_us = IntField(*trace, "total_us");
  const int64_t span_total_us = IntField(*trace, "span_total_us");
  EXPECT_GE(total_us, span_total_us);
  EXPECT_GE(2 * span_total_us, total_us)
      << "spans cover less than half the request: " << traced.Serialize();
  bool saw_solver = false;
  bool solver_has_walk_steps = false;
  for (const JsonValue& span : trace->Find("spans")->array()) {
    if (StrField(span, "name") == "solver") {
      saw_solver = true;
      solver_has_walk_steps = IntField(span, "walk_steps") > 0;
    }
  }
  EXPECT_TRUE(saw_solver) << traced.Serialize();
  EXPECT_TRUE(solver_has_walk_steps) << traced.Serialize();

  // Replay = cache hit: the trace now shows the lookup, not the solver.
  const JsonValue hit =
      Call(handler, SolveLine("t1", 7, R"(,"trace":true)"));
  ASSERT_EQ(StrField(hit, "status"), "ok");
  EXPECT_FALSE(StrField(hit, "trace_id").empty());  // generated this time
  bool saw_hit_annotation = false;
  for (const JsonValue& span : hit.Find("trace")->Find("spans")->array()) {
    if (StrField(span, "name") == "cache_lookup") {
      saw_hit_annotation = IntField(span, "hit") == 1;
    }
  }
  EXPECT_TRUE(saw_hit_annotation) << hit.Serialize();
}

TEST(ObservabilityTest, UntracedResponsesOmitTraceUnlessIdSupplied) {
  ServeHandler handler{{}};
  LoadKarate(handler, "t2");

  // No "trace" and no "trace_id": the response carries neither — this
  // is what keeps cache hits byte-identical to their misses.
  const JsonValue plain = Call(handler, SolveLine("t2", 8));
  EXPECT_EQ(plain.Find("trace"), nullptr);
  EXPECT_EQ(plain.Find("trace_id"), nullptr);

  // A client-supplied trace_id is echoed for correlation even without
  // the full span breakdown.
  const JsonValue echoed = Call(
      handler, SolveLine("t2", 8, R"(,"trace_id":"corr-7")"));
  EXPECT_EQ(StrField(echoed, "trace_id"), "corr-7");
  EXPECT_EQ(echoed.Find("trace"), nullptr);
}

TEST(ObservabilityTest, StatsObservedBlockIsCoherent) {
  ServeHandler handler{{}};
  LoadKarate(handler, "s1");
  ASSERT_EQ(StrField(Call(handler, SolveLine("s1", 9)), "status"), "ok");
  ASSERT_EQ(StrField(Call(handler, SolveLine("s1", 9)), "status"), "ok");

  const JsonValue stats = Call(handler, R"({"op":"stats"})");
  ASSERT_EQ(StrField(stats, "status"), "ok");
  const JsonValue* observed = stats.Find("observed");
  ASSERT_NE(observed, nullptr);
  const JsonValue* cache = observed->Find("cache");
  ASSERT_NE(cache, nullptr);
  // The bugfix this block exists for: hits, misses and lookups come
  // from ONE registry snapshot, so the arithmetic always closes.
  EXPECT_EQ(IntField(*cache, "lookups"),
            IntField(*cache, "hits") + IntField(*cache, "misses"));
  const JsonValue* latency = observed->Find("latency");
  ASSERT_NE(latency, nullptr);
  const JsonValue* solve = latency->Find("solve");
  ASSERT_NE(solve, nullptr);
  for (const char* key : {"count", "p50_us", "p95_us", "p99_us", "max_us"}) {
    EXPECT_GE(IntField(*solve, key), 0) << key;
  }
  EXPECT_GE(IntField(*observed->Find("requests")->Find("solve"), "total"), 2);
}

TEST(ObservabilityTest, StatsSurfaceEngineCountersUptimeAndBuild) {
  ServeHandler handler{{}};
  LoadKarate(handler, "s2");
  ASSERT_EQ(StrField(Call(handler, SolveLine("s2", 13)), "status"), "ok");

  const JsonValue stats = Call(handler, R"({"op":"stats"})");
  ASSERT_EQ(StrField(stats, "status"), "ok");
  // Engine linear-algebra counters ride in the same coherent snapshot
  // as the cache/latency numbers (DESIGN.md §15 satellite).
  const JsonValue* linalg = stats.Find("observed")->Find("engine");
  ASSERT_NE(linalg, nullptr) << stats.Serialize();
  linalg = linalg->Find("linalg");
  ASSERT_NE(linalg, nullptr) << stats.Serialize();
  for (const char* key : {"factorizations", "solves", "cg_iterations"}) {
    EXPECT_GE(IntField(*linalg, key), 0) << key;
  }
  EXPECT_GE(IntField(stats, "uptime_s"), 0);
  const JsonValue* build = stats.Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(StrField(*build, "version").empty());
  EXPECT_FALSE(StrField(*build, "compiler").empty());
  EXPECT_FALSE(StrField(*build, "build_type").empty());
  EXPECT_EQ(StrField(*build, "cxx_standard"), "c++20");
}

TEST(ObservabilityTest, FlightzOpReturnsCommittedRecords) {
  ServeHandler handler{{}};
  LoadKarate(handler, "f1");
  ASSERT_EQ(
      StrField(Call(handler, SolveLine("f1", 21,
                                       R"(,"trace_id":"flight-trace")")),
               "status"),
      "ok");
  // An op against a missing graph is an error -> pinned.
  Call(handler, R"({"op":"solve","graph":"missing","k":2})");

  const JsonValue flightz = Call(handler, R"({"op":"flightz","n":16})");
  ASSERT_EQ(StrField(flightz, "status"), "ok");
  EXPECT_GE(IntField(flightz, "committed"), 3);
  const JsonValue* records = flightz.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_FALSE(records->array().empty());
  bool saw_traced_solve = false;
  for (const JsonValue& record : records->array()) {
    if (StrField(record, "op") == "solve" &&
        StrField(record, "trace_id") == "flight-trace") {
      saw_traced_solve = true;
      EXPECT_GE(IntField(record, "latency_us"), 0);
      EXPECT_GT(IntField(record, "mono_ns"), 0);
      EXPECT_EQ(record.Find("ok")->as_bool(), true);
      // Flight records carry span timings even though the request never
      // asked for a trace (observation-only: the response had none).
      EXPECT_FALSE(record.Find("spans")->array().empty())
          << record.Serialize();
    }
  }
  EXPECT_TRUE(saw_traced_solve) << flightz.Serialize();
  // The failed solve landed in the pinned ring with its error code.
  const JsonValue* pinned = flightz.Find("pinned");
  ASSERT_NE(pinned, nullptr);
  bool saw_error = false;
  for (const JsonValue& record : pinned->array()) {
    if (StrField(record, "error_code") == "not_found") saw_error = true;
  }
  EXPECT_TRUE(saw_error) << flightz.Serialize();

  // flight_capacity 0 disables the recorder; flightz reports that.
  HandlerOptions disabled;
  disabled.flight_capacity = 0;
  ServeHandler no_flight{disabled};
  const JsonValue err = Call(no_flight, R"({"op":"flightz"})");
  EXPECT_EQ(StrField(err, "status"), "error");
}

TEST(ObservabilityTest, StatsStayCoherentUnderConcurrentTraffic) {
  // The regression this PR fixes: stats used to read cache and catalog
  // counters with separate lock acquisitions, so a reader racing live
  // traffic could see hits+misses inconsistent with each other. Hammer
  // the handler while polling stats; the observed block must close
  // arithmetically in every single poll.
  ServeHandler handler{{}};
  LoadKarate(handler, "c1");

  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&handler, t] {
      for (int i = 0; i < 40; ++i) {
        // Alternate fresh seeds (misses) and a repeated seed (hits).
        (void)handler.HandleLine(
            SolveLine("c1", i % 2 == 0 ? 1000 + t * 100 + i : 999));
      }
    });
  }
  for (int poll = 0; poll < 25; ++poll) {
    const JsonValue stats = handler.HandleLine(R"({"op":"stats"})");
    const JsonValue* cache = stats.Find("observed")->Find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(IntField(*cache, "lookups"),
              IntField(*cache, "hits") + IntField(*cache, "misses"))
        << "poll " << poll;
  }
  for (auto& writer : writers) writer.join();
}

}  // namespace
}  // namespace cfcm::serve
