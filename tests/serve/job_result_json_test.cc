// The job-result projections are the one source of the solve, evaluate
// and augment result fields on the wire: they emit exactly the
// documented keys, the serve responses carry them unchanged next to the
// request echo, and the codec writes no token JSON lacks.
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "cfcm/options.h"
#include "engine/engine.h"
#include "graph/spec.h"
#include "serve/protocol.h"

namespace cfcm::serve {
namespace {

std::set<std::string> Keys(const JsonValue::Object& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object) keys.insert(key);
  return keys;
}

TEST(JobResultJsonTest, SolveProjectionEmitsTheDocumentedFields) {
  engine::SolveJobResult result;
  result.output.selected = {4, 1, 7};
  result.output.total_forests = 11;
  result.output.heap_pops = 5;
  result.output.warm_started = true;
  result.output.solver_backend = "dense";
  result.output.seconds = 0.25;
  result.cfcc = 2.5;
  const JsonValue::Object fields = SolveJobResultJson(result);

  std::set<std::string> want = {"selection",      "cfcc",
                                "warm_started",   "cold_fallback",
                                "solver_backend", "seconds"};
  for (const SolveCounter& counter : kSolveCounters) want.insert(counter.key);
  EXPECT_EQ(Keys(fields), want);
  EXPECT_EQ(JsonValue(fields.at("selection")).Serialize(), "[4,1,7]");
  EXPECT_EQ(fields.at("cfcc").as_double(), 2.5);
  EXPECT_EQ(fields.at("forests").as_int(), 11);
  EXPECT_EQ(fields.at("heap_pops").as_int(), 5);
  EXPECT_TRUE(fields.at("warm_started").as_bool());
  EXPECT_FALSE(fields.at("cold_fallback").as_bool());
  EXPECT_EQ(fields.at("solver_backend").as_string(), "dense");
  EXPECT_EQ(fields.at("seconds").as_double(), 0.25);
}

TEST(JobResultJsonTest, EvaluateAndAugmentProjectionsEmitTheirFields) {
  engine::EvaluateJobResult eval;
  eval.cfcc = 3.0;
  eval.trace = 11.0;
  eval.trace_std_error = 0.5;
  eval.solver_backend = "cg";
  EXPECT_EQ(JsonValue(EvaluateJobResultJson(eval)).Serialize(),
            R"({"cfcc":3,"solver_backend":"cg","trace":11,)"
            R"("trace_std_error":0.5})");

  engine::AugmentJobResult augment;
  augment.added = {{0, 16}, {3, 9}};
  augment.trace_after = {12.5, 12.25};
  augment.initial_trace = 13.0;
  augment.cfcc_before = 2.0;
  augment.cfcc_after = 2.125;
  augment.seconds = 0.5;
  augment.solver_backend = "dense";
  EXPECT_EQ(JsonValue(AugmentJobResultJson(augment)).Serialize(),
            R"({"added":[[0,16],[3,9]],"cfcc_after":2.125,"cfcc_before":2,)"
            R"("initial_trace":13,"seconds":0.5,"solver_backend":"dense",)"
            R"("trace_after":[12.5,12.25]})");
}

TEST(JobResultJsonTest, ServeSolveResponseIsTheProjectionPlusEcho) {
  ServeHandler handler{{}};
  ASSERT_EQ(handler.HandleLine(R"({"op":"load","graph":"g","source":"karate"})")
                .Find("status")
                ->as_string(),
            "ok");
  const JsonValue response = handler.HandleLine(
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.3,)"
      R"("seed":7})");
  ASSERT_EQ(response.Find("status")->as_string(), "ok")
      << response.Serialize();

  StatusOr<Graph> graph = LoadGraphFromSpec("karate");
  ASSERT_TRUE(graph.ok());
  const engine::Engine engine{std::move(*graph)};
  StatusOr<engine::JobResult> result = engine.Run(engine::SolveJob{
      .algorithm = "forest", .k = 3, .eps = 0.3, .seed = 7});
  ASSERT_TRUE(result.ok());
  const JsonValue::Object fields =
      SolveJobResultJson(std::get<engine::SolveJobResult>(*result));
  for (const auto& [key, value] : fields) {
    if (key == "seconds") continue;  // wall time
    const JsonValue* served = response.Find(key);
    ASSERT_NE(served, nullptr) << key;
    EXPECT_EQ(served->Serialize(), value.Serialize()) << key;
  }
  // Everything else is the serve's echo and serve-only fields.
  std::set<std::string> rest = Keys(response.object());
  for (const auto& [key, value] : fields) rest.erase(key);
  EXPECT_EQ(rest, (std::set<std::string>{"op", "graph", "algorithm", "k", "eps",
                                         "seed", "cache", "selection_mode",
                                         "warm", "status"}));
}

TEST(JobResultJsonTest, NonFiniteNumbersSerializeAsNull) {
  const JsonValue::Array values = {
      std::nan(""), std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 0.1};
  EXPECT_EQ(JsonValue(values).Serialize(), "[null,null,null,0.1]");
}

}  // namespace
}  // namespace cfcm::serve
