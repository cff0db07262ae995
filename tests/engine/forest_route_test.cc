// The registry's "forest" entry and the engine's warm-routed forest path
// (DESIGN.md §16) are two ways into ForestCFCM. A cold solve must come
// out the same through either: same selection, same work counters, same
// sketch width, and no warm outcome.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cfcm/options.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "graph/generators.h"

namespace cfcm::engine {
namespace {

void ExpectSameSolve(const CfcmResult& got, const CfcmResult& want,
                     const std::string& context) {
  EXPECT_EQ(got.selected, want.selected) << context;
  for (const SolveCounter& counter : kSolveCounters) {
    EXPECT_EQ(got.*counter.field, want.*counter.field)
        << context << " " << counter.key;
  }
  EXPECT_EQ(got.jl_rows, want.jl_rows) << context;
  EXPECT_FALSE(got.warm_started) << context;
  EXPECT_FALSE(got.cold_fallback) << context;
}

CfcmResult EngineSolve(const Graph& graph, int threads, cfcm::WarmMode warm) {
  // A fresh session per call: kAuto then finds no warm state to use.
  Engine engine{std::make_shared<GraphSession>(graph, threads),
                EngineOptions{.num_threads = threads}};
  SolveJob job;
  job.algorithm = "forest";
  job.k = 6;
  job.eps = 0.3;
  job.seed = 5;
  job.warm = warm;
  StatusOr<JobResult> result = engine.Run(Job{job});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::get<SolveJobResult>(*result).output;
}

TEST(ForestRouteTest, RegistryEntryMatchesEngineForestPath) {
  const Graph graph = BarabasiAlbert(600, 3, 11);
  StatusOr<const Solver*> forest = SolverRegistry::Global().Find("forest");
  ASSERT_TRUE(forest.ok());
  for (int threads : {1, 4}) {
    CfcmOptions options;
    options.eps = 0.3;
    options.seed = 5;
    options.num_threads = threads;
    StatusOr<CfcmResult> direct = (*forest)->Solve(graph, 6, options);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_FALSE(direct->warm_started);
    EXPECT_FALSE(direct->cold_fallback);
    EXPECT_GT(direct->total_forests, 0);
    const std::string at = "threads=" + std::to_string(threads);
    ExpectSameSolve(EngineSolve(graph, threads, cfcm::WarmMode::kOff),
                    *direct, at + " warm=off");
    ExpectSameSolve(EngineSolve(graph, threads, cfcm::WarmMode::kAuto),
                    *direct, at + " warm=auto");
  }
}

}  // namespace
}  // namespace cfcm::engine
