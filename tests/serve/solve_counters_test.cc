// Every per-solve work counter in kSolveCounters reaches every sink: the
// serve solve response carries each key with the value Engine::Run
// returns for the same job, and the traced `solver` span carries it as
// an annotation. A sink that drops a table entry fails here.
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cfcm/options.h"
#include "engine/engine.h"
#include "graph/delta.h"
#include "graph/spec.h"
#include "serve/protocol.h"

namespace cfcm::serve {
namespace {

using engine::Engine;
using engine::GraphSession;
using engine::Job;
using engine::JobResult;
using engine::SolveJob;
using engine::SolveJobResult;

std::shared_ptr<GraphSession> KarateSession() {
  StatusOr<Graph> graph = LoadGraphFromSpec("karate");
  EXPECT_TRUE(graph.ok());
  return std::make_shared<GraphSession>(std::move(*graph));
}

CfcmResult RunSolve(const Engine& engine, const SolveJob& job) {
  StatusOr<JobResult> result = engine.Run(Job{job});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::get<SolveJobResult>(*result).output;
}

const JsonValue* SolverSpan(const JsonValue& response) {
  const JsonValue* trace = response.Find("trace");
  if (trace == nullptr || trace->Find("spans") == nullptr) return nullptr;
  for (const JsonValue& span : trace->Find("spans")->array()) {
    const JsonValue* name = span.Find("name");
    if (name != nullptr && name->as_string() == "solver") return &span;
  }
  return nullptr;
}

void ExpectEveryCounter(const JsonValue& response, const CfcmResult& expected) {
  ASSERT_EQ(response.Find("status")->as_string(), "ok") << response.Serialize();
  const JsonValue* span = SolverSpan(response);
  ASSERT_NE(span, nullptr) << response.Serialize();
  for (const SolveCounter& counter : kSolveCounters) {
    const std::int64_t want = expected.*counter.field;
    const JsonValue* field = response.Find(counter.key);
    ASSERT_NE(field, nullptr) << "response lacks " << counter.key;
    EXPECT_EQ(field->as_int(), want) << counter.key;
    const JsonValue* note = span->Find(counter.key);
    ASSERT_NE(note, nullptr) << "solver span lacks " << counter.key;
    EXPECT_EQ(note->as_int(), want) << counter.key;
  }
}

TEST(SolveCountersTest, TracedColdSchurSolveCarriesEveryCounter) {
  ServeHandler handler{{}};
  ASSERT_EQ(handler.HandleLine(R"({"op":"load","graph":"g","source":"karate"})")
                .Find("status")
                ->as_string(),
            "ok");
  const JsonValue response = handler.HandleLine(
      R"({"op":"solve","graph":"g","algorithm":"schur","k":3,"eps":0.3,)"
      R"("seed":7,"trace":true})");

  SolveJob job;
  job.algorithm = "schur";
  job.k = 3;
  job.eps = 0.3;
  job.seed = 7;
  const CfcmResult expected = RunSolve(Engine{KarateSession()}, job);
  EXPECT_GT(expected.total_forests, 0);
  EXPECT_GT(expected.heap_pops, 0);
  ExpectEveryCounter(response, expected);
}

TEST(SolveCountersTest, WarmForestSolveAfterReweightCarriesEveryCounter) {
  ServeHandler handler{{}};
  auto call = [&](const std::string& line) { return handler.HandleLine(line); };
  ASSERT_EQ(call(R"({"op":"load","graph":"g","source":"karate"})")
                .Find("status")
                ->as_string(),
            "ok");
  const std::string solve =
      R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.3,)"
      R"("seed":7)";
  ASSERT_EQ(call(solve + "}").Find("status")->as_string(), "ok");
  ASSERT_EQ(call(R"({"op":"mutate","graph":"g","reweight":[[0,1,1.5]]})")
                .Find("status")
                ->as_string(),
            "ok");
  const JsonValue response = call(solve + R"(,"warm":true,"trace":true})");

  // The same history through the engine: cold solve (deposits the warm
  // state), the same reweight, then the warm solve.
  std::shared_ptr<GraphSession> session = KarateSession();
  const Engine engine{session};
  SolveJob job;
  job.algorithm = "forest";
  job.k = 3;
  job.eps = 0.3;
  job.seed = 7;
  RunSolve(engine, job);
  GraphDelta reweight;
  reweight.ReweightEdge(0, 1, 1.5);
  ASSERT_TRUE(session->Mutate(reweight).ok());
  job.warm = cfcm::WarmMode::kOn;
  const CfcmResult expected = RunSolve(engine, job);
  ASSERT_TRUE(expected.warm_started);
  EXPECT_TRUE(response.Find("warm_started")->as_bool());
  ExpectEveryCounter(response, expected);
}

}  // namespace
}  // namespace cfcm::serve
