#include "engine/engine.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/cfcc.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "obs/metrics.h"

namespace cfcm::engine {
namespace {

// Everything except wall-time must match bit-for-bit between a batched
// and a sequential run of the same job.
void ExpectSameResult(const StatusOr<JobResult>& batched,
                      const StatusOr<JobResult>& sequential,
                      const std::string& context) {
  ASSERT_EQ(batched.ok(), sequential.ok()) << context;
  if (!batched.ok()) {
    EXPECT_EQ(batched.status().code(), sequential.status().code()) << context;
    return;
  }
  ASSERT_EQ(batched->index(), sequential->index()) << context;
  if (const auto* solve = std::get_if<SolveJobResult>(&*batched)) {
    const auto& expected = std::get<SolveJobResult>(*sequential);
    EXPECT_EQ(solve->algorithm, expected.algorithm) << context;
    EXPECT_EQ(solve->output.selected, expected.output.selected) << context;
    EXPECT_EQ(solve->output.total_forests, expected.output.total_forests)
        << context;
    EXPECT_EQ(solve->output.jl_rows, expected.output.jl_rows) << context;
    EXPECT_EQ(solve->output.auxiliary_roots, expected.output.auxiliary_roots)
        << context;
    EXPECT_EQ(solve->output.solver_calls, expected.output.solver_calls)
        << context;
    EXPECT_EQ(solve->cfcc, expected.cfcc) << context;
  } else {
    const auto& eval = std::get<EvaluateJobResult>(*batched);
    const auto& expected = std::get<EvaluateJobResult>(*sequential);
    EXPECT_EQ(eval.cfcc, expected.cfcc) << context;
    EXPECT_EQ(eval.trace, expected.trace) << context;
    EXPECT_EQ(eval.trace_std_error, expected.trace_std_error) << context;
  }
}

// The acceptance batch: >= 8 jobs mixing algorithms, seeds, k and an
// evaluation, all served from one shared session.
std::vector<Job> MixedBatch() {
  std::vector<Job> jobs;
  for (uint64_t seed : {1u, 7u, 42u}) {
    jobs.push_back(SolveJob{.algorithm = "forest", .k = 4, .eps = 0.3,
                            .seed = seed});
    jobs.push_back(SolveJob{.algorithm = "schur", .k = 4, .eps = 0.3,
                            .seed = seed});
  }
  jobs.push_back(SolveJob{.algorithm = "exact", .k = 5});
  jobs.push_back(SolveJob{.algorithm = "degree", .k = 3});
  jobs.push_back(EvaluateJob{.group = {0, 1, 2}});
  return jobs;
}

TEST(EngineTest, BatchMatchesSequentialOnKarate) {
  Engine engine{KarateClub(), EngineOptions{.num_threads = 4}};
  const std::vector<Job> jobs = MixedBatch();
  ASSERT_GE(jobs.size(), 8u);

  const auto batched = engine.RunBatch(jobs);
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ExpectSameResult(batched[i], engine.Run(jobs[i]),
                     "karate job " + std::to_string(i));
  }
}

TEST(EngineTest, BatchMatchesSequentialOnBarabasiAlbert) {
  Engine engine{BarabasiAlbert(150, 3, 5), EngineOptions{.num_threads = 4}};
  const std::vector<Job> jobs = MixedBatch();

  const auto batched = engine.RunBatch(jobs);
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ExpectSameResult(batched[i], engine.Run(jobs[i]),
                     "ba job " + std::to_string(i));
  }
}

TEST(EngineTest, RepeatedBatchesAreDeterministicPerSeed) {
  Engine engine{KarateClub(), EngineOptions{.num_threads = 3}};
  const std::vector<Job> jobs = MixedBatch();
  const auto first = engine.RunBatch(jobs);
  const auto second = engine.RunBatch(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ExpectSameResult(second[i], first[i], "rerun job " + std::to_string(i));
  }
}

TEST(EngineTest, DifferentSeedsAreIndependentJobs) {
  Engine engine{KarateClub()};
  const Job a = SolveJob{.algorithm = "forest", .k = 4, .seed = 1};
  const Job b = SolveJob{.algorithm = "forest", .k = 4, .seed = 2};
  auto ra = engine.Run(a);
  auto rb = engine.Run(b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  // Not asserting inequality of groups (both may find the same optimum);
  // but each must equal its own sequential rerun, proving the seed is
  // what determines the output.
  ExpectSameResult(engine.Run(a), ra, "seed 1");
  ExpectSameResult(engine.Run(b), rb, "seed 2");
}

TEST(EngineTest, EvaluateJobAgreesWithExactGroupCfcc) {
  const Graph karate = KarateClub();
  Engine engine{KarateClub()};
  for (const std::vector<NodeId>& group :
       {std::vector<NodeId>{0}, {33, 0}, {5, 10, 20}, {0, 1, 2, 3, 4}}) {
    auto result = engine.Run(EvaluateJob{.group = group});
    ASSERT_TRUE(result.ok());
    const auto& eval = std::get<EvaluateJobResult>(*result);
    EXPECT_DOUBLE_EQ(eval.cfcc, ExactGroupCfcc(karate, group));
    EXPECT_NEAR(eval.trace, karate.num_nodes() / eval.cfcc, 1e-9);
    EXPECT_EQ(eval.trace_std_error, 0.0);
  }
}

TEST(EngineTest, ProbedEvaluationCountsCgIterations) {
  // Probed C(S) runs Hutchinson's CG solves; their iterations must show
  // in engine.linalg.cg_iterations (and so in /metrics and stats).
  obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("engine.linalg.cg_iterations");
  Engine engine{BarabasiAlbert(200, 3, 9)};
  const uint64_t before = counter.value();
  auto probed = engine.Run(EvaluateJob{.group = {0, 1, 2}, .probes = 6,
                                       .seed = 4});
  ASSERT_TRUE(probed.ok());
  const uint64_t moved = counter.value() - before;
  const TraceEstimate est =
      HutchinsonTraceInverse(BarabasiAlbert(200, 3, 9), {0, 1, 2}, 6, 4);
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(moved, static_cast<uint64_t>(est.cg_iterations));
}

TEST(EngineTest, ProbedEvaluationApproximatesExact) {
  const Graph graph = BarabasiAlbert(200, 3, 9);
  Engine engine{BarabasiAlbert(200, 3, 9)};
  const std::vector<NodeId> group = {0, 1, 2};
  auto probed = engine.Run(EvaluateJob{.group = group, .probes = 256,
                                       .seed = 4});
  ASSERT_TRUE(probed.ok());
  const auto& eval = std::get<EvaluateJobResult>(*probed);
  const double exact = ExactGroupCfcc(graph, group);
  EXPECT_NEAR(eval.cfcc, exact, 0.15 * exact);
  EXPECT_GT(eval.trace_std_error, 0.0);
}

TEST(EngineTest, ExactEvaluationRefusesOversizedGraphs) {
  // 600 remaining nodes > the default exact_eval_max_n = 512: exact
  // evaluation must fail per-job instead of attempting a dense inverse.
  Engine engine{BarabasiAlbert(603, 3, 2)};
  auto exact = engine.Run(EvaluateJob{.group = {0, 1, 2}, .probes = 0});
  EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);
  auto probed = engine.Run(EvaluateJob{.group = {0, 1, 2}, .probes = 32});
  EXPECT_TRUE(probed.ok());
}

TEST(EngineTest, SolveResultCarriesEvaluatedCfcc) {
  Engine engine{KarateClub()};
  auto result = engine.Run(SolveJob{.algorithm = "exact", .k = 5});
  ASSERT_TRUE(result.ok());
  const auto& solve = std::get<SolveJobResult>(*result);
  EXPECT_DOUBLE_EQ(solve.cfcc,
                   ExactGroupCfcc(KarateClub(), solve.output.selected));
}

TEST(EngineTest, BadJobsFailIndividuallyWithoutPoisoningTheBatch) {
  Engine engine{KarateClub()};
  std::vector<Job> jobs = {
      SolveJob{.algorithm = "no-such-solver", .k = 3},
      SolveJob{.algorithm = "forest", .k = 0},
      EvaluateJob{.group = {}},
      EvaluateJob{.group = {999}},
      EvaluateJob{.group = {0, 0, 2}},  // duplicates must not dedup silently
      SolveJob{.algorithm = "exact", .k = 4},
  };
  const auto results = engine.RunBatch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_EQ(results[0].status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[3].status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(results[4].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[5].ok());
  EXPECT_EQ(std::get<SolveJobResult>(*results[5]).output.selected.size(), 4u);
}

TEST(EngineTest, RejectsDisconnectedGraphs) {
  // Two disjoint triangles.
  const Graph disconnected = BuildGraph(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  Engine engine{Graph(disconnected)};
  auto solve = engine.Run(SolveJob{.algorithm = "forest", .k = 2});
  EXPECT_EQ(solve.status().code(), StatusCode::kFailedPrecondition);
  auto eval = engine.Run(EvaluateJob{.group = {0}});
  EXPECT_EQ(eval.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, SharedSessionServesMultipleEngines) {
  auto session = std::make_shared<GraphSession>(KarateClub());
  Engine a{session};
  Engine b{session};
  auto ra = a.Run(SolveJob{.algorithm = "degree", .k = 3});
  auto rb = b.Run(SolveJob{.algorithm = "degree", .k = 3});
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(std::get<SolveJobResult>(*ra).output.selected,
            std::get<SolveJobResult>(*rb).output.selected);
}

}  // namespace
}  // namespace cfcm::engine
