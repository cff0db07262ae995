// Google-benchmark micro suite: throughput of the substrate components
// (Wilson sampling, subtree accumulation, prefix passes, CG, Hutchinson
// probing, LDLT, JL),
// including the Schur-root ablation at the kernel level.
#include <map>

#include <benchmark/benchmark.h>

#include "cfcm/schur_cfcm.h"
#include "common/rng.h"
#include "estimators/phi_estimators.h"
#include "forest/bfs_tree.h"
#include "forest/subtree.h"
#include "forest/wilson.h"
#include "graph/generators.h"
#include "linalg/cg.h"
#include "linalg/hutchinson.h"
#include "linalg/jl.h"
#include "linalg/laplacian.h"
#include "linalg/ldlt.h"

namespace {

using cfcm::Graph;
using cfcm::NodeId;

const Graph& SharedBaGraph(NodeId n) {
  static auto* cache = new std::map<NodeId, Graph>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache->emplace(n, cfcm::BarabasiAlbert(n, 3, 7)).first;
  }
  return it->second;
}

void BM_WilsonSingleRoot(benchmark::State& state) {
  const Graph& g = SharedBaGraph(static_cast<NodeId>(state.range(0)));
  std::vector<char> roots(static_cast<std::size_t>(g.num_nodes()), 0);
  roots[g.MaxDegreeNode()] = 1;
  cfcm::ForestSampler sampler(g);
  cfcm::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(roots, &rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_WilsonSingleRoot)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_WilsonHubRoots(benchmark::State& state) {
  // The SchurCFCM configuration: hubs grounded. Compare against
  // BM_WilsonSingleRoot at equal n for the paper's core speed claim.
  const Graph& g = SharedBaGraph(static_cast<NodeId>(state.range(0)));
  std::vector<char> roots(static_cast<std::size_t>(g.num_nodes()), 0);
  roots[g.MaxDegreeNode()] = 1;
  for (NodeId t : cfcm::SelectAuxiliaryRoots(g, 4096)) roots[t] = 1;
  cfcm::ForestSampler sampler(g);
  cfcm::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(roots, &rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_WilsonHubRoots)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_SubtreeJlSums(benchmark::State& state) {
  const Graph& g = SharedBaGraph(10000);
  const int w = static_cast<int>(state.range(0));
  std::vector<char> roots(static_cast<std::size_t>(g.num_nodes()), 0);
  roots[0] = 1;
  const cfcm::JlSketch sketch(w, g.num_nodes(), 3);
  cfcm::ForestSampler sampler(g);
  cfcm::Rng rng(2);
  const cfcm::RootedForest& forest = sampler.Sample(roots, &rng);
  std::vector<double> buf(static_cast<std::size_t>(g.num_nodes()) * w);
  for (auto _ : state) {
    cfcm::SubtreeJlSums(forest, roots, sketch, buf.data());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes() * w);
}
BENCHMARK(BM_SubtreeJlSums)->Arg(8)->Arg(24)->Arg(64);

// The first-pick kernel's per-forest pass: X_f and O_f in one BFS walk.
void BM_PrefixPasses(benchmark::State& state) {
  const Graph& g = SharedBaGraph(10000);
  const cfcm::TreeScaffold scaffold = cfcm::MakeTreeScaffold(g, {0});
  cfcm::ForestSampler sampler(g);
  cfcm::Rng rng(4);
  const cfcm::RootedForest& forest = sampler.Sample(scaffold.is_root, &rng);
  std::vector<int32_t> sizes;
  cfcm::SubtreeSizes(forest, &sizes);
  std::vector<double> xbuf(static_cast<std::size_t>(g.num_nodes()));
  std::vector<double> obuf(static_cast<std::size_t>(g.num_nodes()));
  for (auto _ : state) {
    cfcm::DiagOnesPrefixPass(scaffold, forest, sizes, &xbuf, &obuf);
    benchmark::DoNotOptimize(xbuf.data());
    benchmark::DoNotOptimize(obuf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_PrefixPasses);

// The JL kernel's per-forest pass: X_f and Y_f in one BFS walk.
void BM_JlPrefixPass(benchmark::State& state) {
  const Graph& g = SharedBaGraph(10000);
  const int w = static_cast<int>(state.range(0));
  const cfcm::TreeScaffold scaffold = cfcm::MakeTreeScaffold(g, {0});
  const cfcm::JlSketch sketch(w, g.num_nodes(), 3);
  cfcm::ForestSampler sampler(g);
  cfcm::Rng rng(4);
  const cfcm::RootedForest& forest = sampler.Sample(scaffold.is_root, &rng);
  const std::size_t entries = static_cast<std::size_t>(g.num_nodes()) * w;
  std::vector<double> sub(entries);
  std::vector<double> ybuf(entries);
  std::vector<double> xbuf(static_cast<std::size_t>(g.num_nodes()));
  std::vector<NodeId> yrow(static_cast<std::size_t>(g.num_nodes()));
  cfcm::SubtreeJlSums(forest, scaffold.is_root, sketch, sub.data());
  for (auto _ : state) {
    cfcm::DiagJlPrefixPass(scaffold, forest, sub.data(), w, &xbuf,
                           ybuf.data(), yrow.data());
    benchmark::DoNotOptimize(xbuf.data());
    benchmark::DoNotOptimize(ybuf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes() * w);
}
BENCHMARK(BM_JlPrefixPass)->Arg(8)->Arg(24)->Arg(64);

void BM_CgGroundedSolve(benchmark::State& state) {
  const Graph& g = SharedBaGraph(static_cast<NodeId>(state.range(0)));
  std::vector<char> mask(static_cast<std::size_t>(g.num_nodes()), 0);
  mask[0] = 1;
  const cfcm::LaplacianSubmatrixOp op(g, mask);
  cfcm::Vector b(static_cast<std::size_t>(g.num_nodes()), 0.0);
  cfcm::Rng rng(5);
  for (auto& v : b) v = rng.NextDouble() - 0.5;
  b[0] = 0;
  cfcm::Vector x(b.size(), 0.0);
  for (auto _ : state) {
    x.assign(b.size(), 0.0);
    benchmark::DoNotOptimize(cfcm::SolveGroundedLaplacian(op, b, &x));
  }
}
BENCHMARK(BM_CgGroundedSolve)->Arg(1000)->Arg(10000);

// Hutchinson C(S) evaluation on the lane-blocked CG kernel: BA(n, 4),
// S = the first |S| nodes, args (n, probes, |S|).
void BM_HutchinsonTrace(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  const int probes = static_cast<int>(state.range(1));
  const Graph g = cfcm::BarabasiAlbert(n, 4, 7);
  std::vector<NodeId> group(static_cast<std::size_t>(state.range(2)));
  for (std::size_t i = 0; i < group.size(); ++i) {
    group[i] = static_cast<NodeId>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cfcm::HutchinsonTraceInverse(g, group, probes, 1).trace);
  }
}
BENCHMARK(BM_HutchinsonTrace)
    ->Args({2000, 64, 8})
    ->Args({4000, 128, 12})
    ->Unit(benchmark::kMillisecond);

void BM_LdltFactorize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = cfcm::BarabasiAlbert(n, 3, 11);
  const cfcm::DenseMatrix l =
      cfcm::DenseLaplacianSubmatrix(g, cfcm::MakeSubmatrixIndex(n, {0}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cfcm::LdltFactorization::Compute(l));
  }
}
BENCHMARK(BM_LdltFactorize)->Arg(100)->Arg(400);

void BM_JlColumn(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const cfcm::JlSketch sketch(w, 100000, 9);
  std::vector<double> out(static_cast<std::size_t>(w));
  NodeId v = 0;
  for (auto _ : state) {
    sketch.ColumnInto(v, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    v = (v + 1) % 100000;
  }
  state.SetItemsProcessed(state.iterations() * w);
}
BENCHMARK(BM_JlColumn)->Arg(8)->Arg(24)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
