#include "graph/builder.h"

#include <cmath>
#include <limits>
#include <map>

#include <gtest/gtest.h>

namespace cfcm {
namespace {

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(0, 1);
  const Graph g = std::move(std::move(builder).Build()).value();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder builder;
  builder.AddEdge(2, 2);
  builder.AddEdge(0, 1);
  const Graph g = std::move(std::move(builder).Build()).value();
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphBuilderTest, NodeCountFromMaxEndpoint) {
  GraphBuilder builder;
  builder.AddEdge(0, 9);
  const Graph g = std::move(std::move(builder).Build()).value();
  EXPECT_EQ(g.num_nodes(), 10);
}

TEST(GraphBuilderTest, ExplicitNodeCountIsRespected) {
  GraphBuilder builder(8);
  builder.AddEdge(0, 1);
  const Graph g = std::move(std::move(builder).Build()).value();
  EXPECT_EQ(g.num_nodes(), 8);
}

TEST(GraphBuilderTest, RejectsNegativeIds) {
  GraphBuilder builder;
  builder.AddEdge(-1, 3);
  auto result = std::move(builder).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, EmptyBuildSucceeds) {
  GraphBuilder builder;
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_nodes(), 0);
}

TEST(GraphBuilderTest, BuildGraphHelperRoundTrips) {
  const Graph g = BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.HasEdge(1, 2));
}

// The convenience builders fail loudly on invalid input in every build
// type instead of returning a graph read from an error result.
TEST(GraphBuilderDeathTest, BuildHelpersAbortOnInvalidInput) {
  EXPECT_DEATH(BuildGraph(4, {{-1, 2}}), "InvalidArgument: negative node id");
  EXPECT_DEATH(BuildWeightedGraph(2, {{0, 1, -1.0}}),
               "InvalidArgument: edge conductances must be positive");
}

TEST(GraphBuilderTest, CountsAddedEdgesBeforeDedup) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  EXPECT_EQ(builder.num_added_edges(), 2u);
}

TEST(GraphBuilderTest, WeightedDuplicatesSumConductances) {
  GraphBuilder builder;
  builder.AddEdge(0, 1, 1.5);
  builder.AddEdge(1, 0, 2.5);  // parallel conductors
  builder.AddEdge(1, 2, 0.5);
  const Graph g = std::move(std::move(builder).Build()).value();
  EXPECT_FALSE(g.is_unit_weighted());
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 0.5);
}

TEST(GraphBuilderTest, MixedUnitAndWeightedEdgesSum) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);  // unit edge added before any weight appears
  builder.AddEdge(0, 1, 2.0);
  const Graph g = std::move(std::move(builder).Build()).value();
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 3.0);
}

TEST(GraphBuilderTest, AllOnesWeightsDegradeToUnitGraph) {
  GraphBuilder builder;
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const Graph g = std::move(std::move(builder).Build()).value();
  EXPECT_TRUE(g.is_unit_weighted());
  EXPECT_TRUE(g.raw_weights().empty());
}

TEST(GraphBuilderTest, RejectsNonPositiveOrNonFiniteWeights) {
  for (double bad : {0.0, -1.0, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    GraphBuilder builder;
    builder.AddEdge(0, 1, bad);
    auto result = std::move(builder).Build();
    ASSERT_FALSE(result.ok()) << "weight " << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GraphBuilderTest, WeightedSelfLoopsDropped) {
  GraphBuilder builder;
  builder.AddEdge(1, 1, 5.0);
  builder.AddEdge(0, 1, 2.0);
  const Graph g = std::move(std::move(builder).Build()).value();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.total_weight(), 2.0);
}

TEST(GraphBuilderTest, WeightsFollowNeighborSortOrder) {
  // Insert in scrambled order; every CSR slot must still pair the right
  // conductance with the right neighbor.
  GraphBuilder builder;
  builder.AddEdge(2, 4, 0.4);
  builder.AddEdge(2, 0, 0.1);
  builder.AddEdge(2, 3, 0.3);
  builder.AddEdge(2, 1, 0.2);
  const Graph g = std::move(std::move(builder).Build()).value();
  const auto adj = g.neighbors(2);
  const auto w = g.weights(2);
  ASSERT_EQ(adj.size(), 4u);
  const std::map<NodeId, double> expected = {
      {0, 0.1}, {1, 0.2}, {3, 0.3}, {4, 0.4}};
  for (std::size_t i = 0; i < adj.size(); ++i) {
    EXPECT_DOUBLE_EQ(w[i], expected.at(adj[i]));
  }
}

}  // namespace
}  // namespace cfcm
