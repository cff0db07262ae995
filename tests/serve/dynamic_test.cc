// Dynamic graph sessions end to end (DESIGN.md §11): the mutation
// pipeline through catalog → session → snapshot, the mutate / augment
// protocol ops, and the cache-soundness-under-mutation acceptance
// proof — byte-identical hit before mutation, guaranteed miss after,
// hit again after the inverse delta.
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/session.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace cfcm::serve {
namespace {

// Starts a server over a fresh handler on an ephemeral port.
struct TestServer {
  explicit TestServer(HandlerOptions handler_options = {})
      : handler(handler_options), server(&handler, ServerOptions{.port = 0}) {
    Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~TestServer() { server.Shutdown(); }

  ServeClient Connect() {
    auto client = ServeClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  ServeHandler handler;
  Server server;
};

JsonValue Call(ServeClient& client, const std::string& line) {
  EXPECT_TRUE(client.SendLine(line).ok());
  StatusOr<std::string> response = client.ReadLine();
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  StatusOr<JsonValue> parsed = JsonValue::Parse(*response);
  EXPECT_TRUE(parsed.ok()) << *response;
  return *parsed;
}

std::string Field(const JsonValue& response, const std::string& key) {
  const JsonValue* field = response.Find(key);
  return field != nullptr && field->is_string() ? field->as_string() : "";
}

// Acceptance: solve → byte-identical cache hit → mutate → the SAME
// request misses (fingerprint changed) → inverse delta → the original
// bytes hit again. Runs over a real loopback socket.
TEST(DynamicServeTest, MutationInvalidatesAndInverseRestoresCacheHits) {
  TestServer fixture;
  ServeClient client = fixture.Connect();

  const JsonValue loaded =
      Call(client, R"({"op":"load","graph":"g","source":"karate"})");
  ASSERT_EQ(Field(loaded, "status"), "ok");
  const std::string fp0 = Field(loaded, "fingerprint");
  ASSERT_EQ(fp0.size(), 16u);
  EXPECT_EQ(loaded.Find("epoch")->as_int(), 0);

  const std::string request =
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.3,"seed":11})";
  ASSERT_TRUE(client.SendLine(request).ok());
  const std::string miss = *client.ReadLine();
  ASSERT_TRUE(client.SendLine(request).ok());
  const std::string hit = *client.ReadLine();
  EXPECT_NE(miss.find("\"cache\":\"miss\""), std::string::npos) << miss;
  EXPECT_NE(hit.find("\"cache\":\"hit\""), std::string::npos) << hit;
  std::string normalized = miss;
  normalized.replace(normalized.find("\"cache\":\"miss\""), 14,
                     "\"cache\":\"hit\"");
  EXPECT_EQ(normalized, hit);  // byte-identical before mutation

  // Mutate: remove karate's {0, 1}. The content fingerprint changes, so
  // the identical request line is a guaranteed miss — no invalidation
  // protocol ran, the key simply changed.
  const JsonValue mutated =
      Call(client, R"({"op":"mutate","graph":"g","remove":[[0,1]]})");
  ASSERT_EQ(Field(mutated, "status"), "ok") << mutated.Serialize();
  EXPECT_EQ(mutated.Find("epoch")->as_int(), 1);
  EXPECT_EQ(mutated.Find("edges")->as_int(), 77);
  EXPECT_TRUE(mutated.Find("connected")->as_bool());
  const std::string fp1 = Field(mutated, "fingerprint");
  EXPECT_NE(fp1, fp0);

  ASSERT_TRUE(client.SendLine(request).ok());
  const std::string after_mutation = *client.ReadLine();
  EXPECT_NE(after_mutation.find("\"cache\":\"miss\""), std::string::npos)
      << after_mutation;

  // Inverse delta: add {0, 1} back. The bytes — and the fingerprint —
  // are restored, so the original cached result hits again.
  const JsonValue reverted =
      Call(client, R"({"op":"mutate","graph":"g","add":[[0,1]]})");
  ASSERT_EQ(Field(reverted, "status"), "ok");
  EXPECT_EQ(Field(reverted, "fingerprint"), fp0);
  EXPECT_EQ(reverted.Find("epoch")->as_int(), 2);
  EXPECT_FALSE(reverted.Find("weighted")->as_bool());  // unit degradation

  ASSERT_TRUE(client.SendLine(request).ok());
  const std::string restored = *client.ReadLine();
  EXPECT_EQ(restored, hit);  // byte-identical to the pre-mutation hit
}

TEST(DynamicServeTest, MutateValidationErrorsComeBackStructured) {
  TestServer fixture;
  ServeClient client = fixture.Connect();
  Call(client, R"({"op":"load","graph":"g","source":"karate"})");

  const JsonValue missing =
      Call(client, R"({"op":"mutate","graph":"g","remove":[[0,9]]})");
  EXPECT_EQ(Field(missing, "status"), "error");
  EXPECT_EQ(Field(*missing.Find("error"), "code"), "not_found");

  const JsonValue bad_weight =
      Call(client, R"({"op":"mutate","graph":"g","reweight":[[0,1,-2]]})");
  EXPECT_EQ(Field(*bad_weight.Find("error"), "code"), "invalid_argument");

  const JsonValue bad_shape =
      Call(client, R"({"op":"mutate","graph":"g","add":[[1]]})");
  EXPECT_EQ(Field(*bad_shape.Find("error"), "code"), "invalid_argument");

  const JsonValue empty = Call(client, R"({"op":"mutate","graph":"g"})");
  EXPECT_EQ(Field(*empty.Find("error"), "code"), "invalid_argument");

  const JsonValue unknown =
      Call(client, R"({"op":"mutate","graph":"nope","add":[[0,1]]})");
  EXPECT_EQ(Field(*unknown.Find("error"), "code"), "not_found");

  // Ids that do not fit NodeId exactly must be rejected, not silently
  // truncated onto a different, valid edge (4294967296 -> 0).
  const JsonValue wide =
      Call(client, R"({"op":"mutate","graph":"g","remove":[[4294967296,1]]})");
  EXPECT_EQ(Field(*wide.Find("error"), "code"), "invalid_argument");
  const JsonValue fractional =
      Call(client, R"({"op":"mutate","graph":"g","remove":[[0.9,1]]})");
  EXPECT_EQ(Field(*fractional.Find("error"), "code"), "invalid_argument");
  const JsonValue wide_group =
      Call(client, R"({"op":"evaluate","graph":"g","group":[4294967296]})");
  EXPECT_EQ(Field(*wide_group.Find("error"), "code"), "invalid_argument");

  // One request must not allocate unboundedly: add_nodes is capped and
  // duplicate augment groups cannot sneak past the dense ceiling.
  const JsonValue huge =
      Call(client, R"({"op":"mutate","graph":"g","add_nodes":1000000000})");
  EXPECT_EQ(Field(*huge.Find("error"), "code"), "invalid_argument");
  const JsonValue dup_group = Call(
      client, R"({"op":"augment","graph":"g","group":[0,0,33],"k":1})");
  EXPECT_EQ(Field(*dup_group.Find("error"), "code"), "invalid_argument");

  // A failed mutation leaves the session untouched: epoch still 0.
  const JsonValue stats = Call(client, R"({"op":"stats"})");
  for (const JsonValue& session :
       stats.Find("catalog")->Find("sessions")->array()) {
    EXPECT_EQ(session.Find("epoch")->as_int(), 0);
    EXPECT_FALSE(session.Find("mutated")->as_bool());
  }
}

// Two finite conductances whose sum overflows: the wire error is the
// builder's invalid_argument, and the session keeps its snapshot.
TEST(DynamicServeTest, MutateWithOverflowingConductanceSumIsRejected) {
  ServeHandler handler{{}};
  const JsonValue loaded =
      handler.HandleLine(R"({"op":"load","graph":"g","source":"karate"})");
  ASSERT_EQ(Field(loaded, "status"), "ok") << loaded.Serialize();
  const std::string fingerprint = Field(loaded, "fingerprint");
  ASSERT_FALSE(fingerprint.empty());

  const JsonValue overflow = handler.HandleLine(
      R"({"op":"mutate","graph":"g","add":[[0,9,1e308],[9,0,1e308]]})");
  EXPECT_EQ(Field(overflow, "status"), "error") << overflow.Serialize();
  EXPECT_EQ(Field(*overflow.Find("error"), "code"), "invalid_argument");
  EXPECT_EQ(Field(*overflow.Find("error"), "message"),
            "edge conductances must be positive and finite, got inf");

  auto session = handler.catalog().Acquire("g");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->epoch(), 0u);
  char current[32];
  std::snprintf(current, sizeof(current), "%016llx",
                static_cast<unsigned long long>((*session)->fingerprint()));
  EXPECT_EQ(std::string(current), fingerprint);
}

TEST(DynamicServeTest, AugmentOpServesGreedyEdgeAdditionAndApplies) {
  TestServer fixture;
  ServeClient client = fixture.Connect();
  Call(client, R"({"op":"load","graph":"g","source":"karate"})");

  // Pure computation first: no mutation, epoch stays 0.
  const JsonValue plan = Call(
      client,
      R"({"op":"augment","graph":"g","group":[0,33],"k":2,"candidates":"any"})");
  ASSERT_EQ(Field(plan, "status"), "ok") << plan.Serialize();
  ASSERT_EQ(plan.Find("added")->array().size(), 2u);
  EXPECT_EQ(plan.Find("trace_after")->array().size(), 2u);
  EXPECT_GT(plan.Find("cfcc_after")->as_double(),
            plan.Find("cfcc_before")->as_double());
  EXPECT_FALSE(plan.Find("applied")->as_bool());
  EXPECT_EQ(plan.Find("epoch"), nullptr);

  const JsonValue stats0 = Call(client, R"({"op":"stats"})");
  EXPECT_EQ(stats0.Find("catalog")->Find("mutations")->as_int(), 0);

  // Now with apply: the chosen edges go through the mutation pipeline.
  const JsonValue applied = Call(
      client,
      R"({"op":"augment","graph":"g","group":[0,33],"k":2,"candidates":"any","apply":true})");
  ASSERT_EQ(Field(applied, "status"), "ok") << applied.Serialize();
  EXPECT_TRUE(applied.Find("applied")->as_bool());
  EXPECT_EQ(applied.Find("epoch")->as_int(), 1);
  EXPECT_EQ(applied.Find("edges")->as_int(), 80);  // 78 + 2

  // The same plan is now stale: those edges exist, so a fresh augment
  // picks different ones (and the greedy trace keeps improving).
  const JsonValue replan = Call(
      client,
      R"({"op":"augment","graph":"g","group":[0,33],"k":1,"candidates":"any"})");
  ASSERT_EQ(Field(replan, "status"), "ok");
  EXPECT_NE(replan.Find("added")->array()[0].Serialize(),
            applied.Find("added")->array()[0].Serialize());

  const JsonValue bad_candidates = Call(
      client,
      R"({"op":"augment","graph":"g","group":[0],"candidates":"all"})");
  EXPECT_EQ(Field(*bad_candidates.Find("error"), "code"), "invalid_argument");
}

TEST(DynamicServeTest, StatsExposeMutationStateAndRechargedBytes) {
  ServeHandler handler{{}};
  auto call = [&](const std::string& line) {
    return handler.HandleLine(line);
  };
  call(R"({"op":"load","graph":"g","source":"karate"})");
  const JsonValue stats0 = call(R"({"op":"stats"})");
  const int64_t bytes0 =
      stats0.Find("catalog")->Find("resident_bytes")->as_int();

  // Growing the graph re-charges the catalog's byte accounting.
  const JsonValue grown = call(
      R"({"op":"mutate","graph":"g","add_nodes":16,"add":[[33,34],[34,35],[35,36],[36,37],[37,38],[38,39],[39,40],[40,41],[41,42],[42,43],[43,44],[44,45],[45,46],[46,47],[47,48],[48,49]]})");
  ASSERT_EQ(Field(grown, "status"), "ok") << grown.Serialize();
  EXPECT_EQ(grown.Find("nodes")->as_int(), 50);

  const JsonValue stats1 = call(R"({"op":"stats"})");
  const JsonValue* catalog = stats1.Find("catalog");
  EXPECT_EQ(catalog->Find("mutations")->as_int(), 1);
  EXPECT_GT(catalog->Find("resident_bytes")->as_int(), bytes0);
  const JsonValue& session = catalog->Find("sessions")->array()[0];
  EXPECT_TRUE(session.Find("mutated")->as_bool());
  EXPECT_EQ(session.Find("epoch")->as_int(), 1);
  EXPECT_EQ(session.Find("bytes")->as_int(),
            catalog->Find("resident_bytes")->as_int());

  // Unload discards the mutations; reload serves the pristine source.
  call(R"({"op":"unload","graph":"g"})");
  call(R"({"op":"load","graph":"g","source":"karate"})");
  const JsonValue fresh = call(R"({"op":"solve","graph":"g","k":2})");
  EXPECT_EQ(Field(fresh, "status"), "ok");
  const JsonValue stats2 = call(R"({"op":"stats"})");
  const JsonValue& reloaded = stats2.Find("catalog")->Find("sessions")->array()[0];
  EXPECT_FALSE(reloaded.Find("mutated")->as_bool());
  EXPECT_EQ(reloaded.Find("epoch")->as_int(), 0);
}

// Acceptance: concurrent in-flight solves during mutations always see a
// coherent snapshot — every response is byte-identical (modulo wall
// time and hit/miss marker) to the deterministic answer for one of the
// two graph versions the mutator toggles between. Runs under TSan in CI.
TEST(DynamicServeTest, ConcurrentSolvesDuringMutationsSeeCoherentVersions) {
  ServeHandler handler{{}};
  const std::string solve_line =
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.3,"seed":11})";
  auto normalize = [](JsonValue response) {
    response.object().erase("seconds");
    response.object()["cache"] = "hit";
    return response.Serialize();
  };

  // Version baselines from two throwaway handlers serving each graph
  // variant statically (the second is karate without {0, 1}).
  std::vector<std::string> baselines;
  {
    ServeHandler v0{{}};
    v0.HandleLine(R"({"op":"load","graph":"g","source":"karate"})");
    baselines.push_back(normalize(v0.HandleLine(solve_line)));
    ServeHandler v1{{}};
    v1.HandleLine(R"({"op":"load","graph":"g","source":"karate"})");
    v1.HandleLine(R"({"op":"mutate","graph":"g","remove":[[0,1]]})");
    baselines.push_back(normalize(v1.HandleLine(solve_line)));
  }
  ASSERT_NE(baselines[0], baselines[1]);

  handler.HandleLine(R"({"op":"load","graph":"g","source":"karate"})");
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> solvers;
  for (int t = 0; t < 3; ++t) {
    solvers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string got = normalize(handler.HandleLine(solve_line));
        if (got != baselines[0] && got != baselines[1]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 15; ++i) {
    const JsonValue removed =
        handler.HandleLine(R"({"op":"mutate","graph":"g","remove":[[0,1]]})");
    ASSERT_EQ(Field(removed, "status"), "ok");
    const JsonValue added =
        handler.HandleLine(R"({"op":"mutate","graph":"g","add":[[0,1]]})");
    ASSERT_EQ(Field(added, "status"), "ok");
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : solvers) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DynamicCatalogTest, MutatedSessionsArePinnedFromEviction) {
  const std::size_t karate_bytes =
      engine::GraphSession(cfcm::KarateClub()).memory_bytes();
  CatalogOptions options;
  options.memory_budget_bytes = karate_bytes + karate_bytes / 2;
  SessionCatalog catalog{options};

  ASSERT_TRUE(catalog.Define("a", "karate").ok());
  ASSERT_TRUE(catalog.Define("b", "grid:6x6").ok());
  ASSERT_TRUE(catalog.Define("c", "usa").ok());

  GraphDelta delta;
  delta.RemoveEdge(0, 1);
  auto mutated = catalog.Mutate("a", delta);
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  EXPECT_EQ(mutated->installed.epoch, 1u);
  EXPECT_EQ(mutated->installed.snapshot->num_edges(), 77);
  EXPECT_EQ(mutated->session->epoch(), 1u);

  // Loading two more graphs would normally evict "a" (the LRU); the
  // mutation pins it, so the budget squeezes the others instead.
  ASSERT_TRUE(catalog.Acquire("b").ok());
  ASSERT_TRUE(catalog.Acquire("c").ok());
  const CatalogStats stats = catalog.stats();
  for (const CatalogSessionInfo& info : stats.sessions) {
    if (info.name == "a") {
      EXPECT_TRUE(info.resident);
      EXPECT_TRUE(info.mutated);
      EXPECT_EQ(info.epoch, 1u);
    }
  }

  // A fresh Acquire of "a" hands back the mutated session, not a
  // reload: the edge is still gone.
  auto again = catalog.Acquire("a");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->num_edges(), 77);
  EXPECT_EQ(again->get(), mutated->session.get());

  // Unload explicitly discards the mutations; reload is pristine.
  ASSERT_TRUE(catalog.Unload("a").ok());
  auto pristine = catalog.Acquire("a");
  ASSERT_TRUE(pristine.ok());
  EXPECT_EQ((*pristine)->num_edges(), 78);
  EXPECT_EQ((*pristine)->epoch(), 0u);
}

TEST(DynamicCatalogTest, FailedMutateAfterSuccessfulOneKeepsEvictionPin) {
  SessionCatalog catalog;
  ASSERT_TRUE(catalog.Define("g", "karate").ok());

  GraphDelta good;
  good.RemoveEdge(0, 1);
  ASSERT_TRUE(catalog.Mutate("g", good).ok());

  GraphDelta bad;
  bad.RemoveEdge(0, 9);  // not an edge
  EXPECT_EQ(catalog.Mutate("g", bad).status().code(), StatusCode::kNotFound);

  // The session still holds an applied mutation, so the pin must
  // survive the failed delta — unpinning would let budget eviction
  // reload the pristine source and silently undo the first mutation.
  const CatalogStats stats = catalog.stats();
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_TRUE(stats.sessions[0].mutated);
  EXPECT_EQ(stats.sessions[0].epoch, 1u);

  // On a pristine session a failed mutate leaves the entry unpinned.
  ASSERT_TRUE(catalog.Unload("g").ok());
  EXPECT_EQ(catalog.Mutate("g", bad).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(catalog.stats().sessions[0].mutated);
}

TEST(DynamicCatalogTest, MutationsExceedingTheByteBudgetAreRejected) {
  // Mutated sessions are pinned from eviction, so unbounded cumulative
  // growth would make the budget unenforceable; the projected
  // post-delta footprint is checked up front instead.
  const std::size_t karate_bytes =
      engine::GraphSession(cfcm::KarateClub()).memory_bytes();
  CatalogOptions options;
  options.memory_budget_bytes = karate_bytes * 2;
  SessionCatalog catalog{options};
  ASSERT_TRUE(catalog.Define("g", "karate").ok());

  GraphDelta small;
  small.RemoveEdge(0, 1);
  ASSERT_TRUE(catalog.Mutate("g", small).ok());  // fits: fine

  GraphDelta huge;
  huge.AddNodes(100000);
  StatusOr<SessionCatalog::MutateResult> rejected = catalog.Mutate("g", huge);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  // The session is untouched and the accounting stayed within budget.
  auto lease = catalog.Acquire("g");
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ((*lease)->num_nodes(), 34);
  EXPECT_EQ((*lease)->epoch(), 1u);
  EXPECT_LE(catalog.stats().resident_bytes, options.memory_budget_bytes);
}

TEST(DynamicCatalogTest, BudgetAdmissionCountsOtherPinnedSessions) {
  const std::size_t karate_bytes =
      engine::GraphSession(cfcm::KarateClub()).memory_bytes();
  CatalogOptions options;
  // Fits one karate-sized pinned session, not two.
  options.memory_budget_bytes = karate_bytes + karate_bytes / 2;
  SessionCatalog catalog{options};
  ASSERT_TRUE(catalog.Define("a", "karate").ok());
  ASSERT_TRUE(catalog.Define("b", "karate").ok());

  GraphDelta delta;
  delta.RemoveEdge(0, 1);
  ASSERT_TRUE(catalog.Mutate("a", delta).ok());  // alone: fits, pinned

  // The second mutation fits by itself but NOT alongside the pinned
  // "a": two unevictable sessions would sit permanently over budget.
  StatusOr<SessionCatalog::MutateResult> second = catalog.Mutate("b", delta);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);

  // Unpinning "a" (explicit unload) makes room: "b" can mutate now.
  ASSERT_TRUE(catalog.Unload("a").ok());
  EXPECT_TRUE(catalog.Mutate("b", delta).ok());
}

TEST(DynamicCatalogTest, BudgetProjectionSeesWeightDegradingDuplicateAdds) {
  const std::size_t unit_bytes = engine::EstimateSessionBytes(34, 79, false);
  const std::size_t weighted_bytes =
      engine::EstimateSessionBytes(34, 79, true);
  ASSERT_LT(unit_bytes, weighted_bytes);
  CatalogOptions options;
  // Room for the unit-weighted graph, not for the weighted one.
  options.memory_budget_bytes = (unit_bytes + weighted_bytes) / 2;
  SessionCatalog catalog{options};
  ASSERT_TRUE(catalog.Define("g", "karate").ok());

  // A fresh unit edge keeps the graph unit-weighted: admitted.
  GraphDelta fresh;
  fresh.AddEdge(0, 9);  // not a karate edge
  ASSERT_TRUE(catalog.Mutate("g", fresh).ok());
  ASSERT_TRUE(catalog.Unload("g").ok());

  // A weight-1.0 DUPLICATE add sums to conductance 2.0 (parallel
  // conductors), de-degrading the graph to weighted — the projection
  // must price the weight arrays and reject.
  GraphDelta duplicate;
  duplicate.AddEdge(0, 9);
  duplicate.AddEdge(0, 9);
  StatusOr<SessionCatalog::MutateResult> rejected =
      catalog.Mutate("g", duplicate);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------- §16: warm solves and stale answers over the wire

TEST(DynamicServeTest, WarmSolveAfterMutateReportsCountersAndSkipsCache) {
  ServeHandler handler{{}};
  auto call = [&](const std::string& line) { return handler.HandleLine(line); };
  ASSERT_EQ(
      Field(call(R"({"op":"load","graph":"g","source":"karate"})"), "status"),
      "ok");

  const JsonValue stats0 = call(R"({"op":"stats"})");
  const int64_t warm_starts0 = stats0.Find("observed")
                                   ->Find("engine")
                                   ->Find("incremental")
                                   ->Find("warm_starts")
                                   ->as_int();

  const std::string cold_line =
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.2,"seed":7})";
  const std::string warm_line =
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.2,"seed":7,"warm":true})";
  const JsonValue cold = call(cold_line);
  ASSERT_EQ(Field(cold, "status"), "ok") << cold.Serialize();
  EXPECT_EQ(Field(cold, "warm"), "off");
  EXPECT_FALSE(cold.Find("warm_started")->as_bool());

  ASSERT_EQ(
      Field(call(R"({"op":"mutate","graph":"g","reweight":[[0,1,1.5]]})"),
            "status"),
      "ok");
  const JsonValue warm = call(warm_line);
  ASSERT_EQ(Field(warm, "status"), "ok") << warm.Serialize();
  EXPECT_EQ(Field(warm, "cache"), "miss");
  EXPECT_EQ(Field(warm, "warm"), "on");
  EXPECT_TRUE(warm.Find("warm_started")->as_bool());
  EXPECT_FALSE(warm.Find("cold_fallback")->as_bool());
  ASSERT_NE(warm.Find("forests_resampled"), nullptr);
  ASSERT_NE(warm.Find("swap_moves"), nullptr);

  // Warm answers depend on the session's mutation history and must
  // never enter the result cache: the identical request misses again
  // (served by the identity fast path off the deposited state).
  const JsonValue again = call(warm_line);
  ASSERT_EQ(Field(again, "status"), "ok");
  EXPECT_EQ(Field(again, "cache"), "miss");
  EXPECT_TRUE(again.Find("warm_started")->as_bool());
  EXPECT_EQ(again.Find("selection")->Serialize(),
            warm.Find("selection")->Serialize());

  // The process counters moved and surface through stats.
  const JsonValue stats1 = call(R"({"op":"stats"})");
  EXPECT_GE(stats1.Find("observed")
                ->Find("engine")
                ->Find("incremental")
                ->Find("warm_starts")
                ->as_int(),
            warm_starts0 + 2);

  // A string mode parses too; a bad one is a structured error.
  ASSERT_EQ(
      Field(call(R"({"op":"mutate","graph":"g","reweight":[[0,1,1.6]]})"),
            "status"),
      "ok");
  const JsonValue auto_warm = call(
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.2,"seed":7,"warm":"auto"})");
  ASSERT_EQ(Field(auto_warm, "status"), "ok");
  EXPECT_EQ(Field(auto_warm, "warm"), "auto");
  EXPECT_TRUE(auto_warm.Find("warm_started")->as_bool());
  const JsonValue bad = call(
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"warm":"sometimes"})");
  EXPECT_EQ(Field(*bad.Find("error"), "code"), "invalid_argument");
}

TEST(DynamicServeTest, StalenessAnswersFromAncestorCacheEntryWithBound) {
  ServeHandler handler{{}};
  auto call = [&](const std::string& line) { return handler.HandleLine(line); };
  ASSERT_EQ(
      Field(call(R"({"op":"load","graph":"g","source":"karate"})"), "status"),
      "ok");
  const std::string solve_line =
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.3,"seed":11})";
  const JsonValue fresh = call(solve_line);
  ASSERT_EQ(Field(fresh, "status"), "ok");
  EXPECT_EQ(Field(fresh, "cache"), "miss");

  // A reweight-only delta is Loewner-boundable: doubling one edge's
  // conductance bounds the CFCC change by the weight ratios, so the
  // epoch-0 cache entry can answer with C' in [1.0*C, 2.0*C].
  ASSERT_EQ(
      Field(call(R"({"op":"mutate","graph":"g","reweight":[[0,1,2.0]]})"),
            "status"),
      "ok");

  // Without a staleness budget the request is a plain miss (re-solved).
  const std::string stale_line =
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.3,"seed":11,"staleness":{"max_epochs":2}})";
  const JsonValue stale = call(stale_line);
  ASSERT_EQ(Field(stale, "status"), "ok") << stale.Serialize();
  EXPECT_EQ(Field(stale, "cache"), "stale");
  EXPECT_EQ(stale.Find("cfcc")->as_double(), fresh.Find("cfcc")->as_double());
  const JsonValue* bound = stale.Find("staleness");
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(bound->Find("epochs")->as_int(), 1);
  const double lo = bound->Find("cfcc_lo_factor")->as_double();
  const double hi = bound->Find("cfcc_hi_factor")->as_double();
  EXPECT_DOUBLE_EQ(lo, 1.0);  // conductance only grew
  EXPECT_DOUBLE_EQ(hi, 2.0);  // by at most the ratio 2.0
  EXPECT_LE(bound->Find("cfcc_lo")->as_double(),
            bound->Find("cfcc_hi")->as_double());

  // An edge REMOVAL is not reweight-boundable; the ancestor entry must
  // not be served across it.
  ASSERT_EQ(Field(call(R"({"op":"mutate","graph":"g","remove":[[0,1]]})"),
                  "status"),
            "ok");
  const JsonValue unbounded = call(stale_line);
  ASSERT_EQ(Field(unbounded, "status"), "ok");
  EXPECT_EQ(Field(unbounded, "cache"), "miss");

  const JsonValue bad = call(
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"staleness":{"max_epochs":999}})");
  EXPECT_EQ(Field(*bad.Find("error"), "code"), "invalid_argument");
}

TEST(DynamicCatalogTest, MutateLeasesPredecessorSnapshotOneDeep) {
  SessionCatalog catalog;
  ASSERT_TRUE(catalog.Define("g", "karate").ok());
  auto lease = catalog.Acquire("g");
  ASSERT_TRUE(lease.ok());
  const auto epoch0 = (*lease)->snapshot();

  GraphDelta d1;
  d1.RemoveEdge(0, 1);
  auto first = catalog.Mutate("g", d1);
  ASSERT_TRUE(first.ok());
  // The retired snapshot is handed back AND kept alive one epoch deep,
  // so in-flight warm state targeting it stays lockable.
  ASSERT_NE(first->predecessor, nullptr);
  EXPECT_EQ(first->predecessor.get(), epoch0.get());
  EXPECT_EQ(first->predecessor->num_edges(), 78);
  EXPECT_EQ(first->installed.snapshot->num_edges(), 77);

  GraphDelta d2;
  d2.AddEdge(0, 1);
  auto second = catalog.Mutate("g", d2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->predecessor.get(), first->installed.snapshot.get());
}

// Acceptance (§16): warm solves racing mutation churn never crash, tear
// state, or produce an error — every response is a well-formed ok with
// a coherent warm/cold marker. The predecessor lease keeps the retired
// snapshot alive while a warm solve may still be resolving against it.
// Runs under TSan in CI.
TEST(DynamicServeTest, ConcurrentWarmSolvesDuringMutationChurn) {
  ServeHandler handler{{}};
  handler.HandleLine(R"({"op":"load","graph":"g","source":"karate"})");
  const std::string warm_line =
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.3,"seed":11,"warm":"auto"})";
  handler.HandleLine(warm_line);  // seed the warm chain

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> warm_hits{0};
  std::vector<std::thread> solvers;
  for (int t = 0; t < 3; ++t) {
    solvers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const JsonValue response = handler.HandleLine(warm_line);
        const JsonValue* status = response.Find("status");
        if (status == nullptr || !status->is_string() ||
            status->as_string() != "ok") {
          errors.fetch_add(1);
          continue;
        }
        const JsonValue* started = response.Find("warm_started");
        if (started != nullptr && started->is_bool() && started->as_bool()) {
          warm_hits.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 12; ++i) {
    const JsonValue grown = handler.HandleLine(
        R"({"op":"mutate","graph":"g","reweight":[[0,1,)" +
        std::to_string(1.0 + 0.01 * (i + 1)) + "]]}");
    ASSERT_EQ(Field(grown, "status"), "ok");
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : solvers) thread.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(DynamicCatalogTest, MutateUnknownNameIsNotFound) {
  SessionCatalog catalog;
  GraphDelta delta;
  delta.AddEdge(0, 1);
  EXPECT_EQ(catalog.Mutate("nope", delta).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace cfcm::serve
