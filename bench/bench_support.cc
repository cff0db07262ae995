#include "bench_support.h"

#include <cstdio>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/hutchinson.h"

namespace cfcm::bench {

namespace {

Dataset Make(std::string name, std::string paper_size, std::string generator,
             Graph graph) {
  return Dataset{std::move(name), std::move(paper_size), std::move(generator),
                 std::move(graph)};
}

}  // namespace

std::vector<Dataset> TinySuite() {
  std::vector<Dataset> suite;
  suite.push_back(Make("Zebra*", "23/~105", "WattsStrogatz(23,5,0.25,seed)",
                       ZebraSynthetic()));
  suite.push_back(Make("Karate", "34/78 (real)", "embedded Zachary karate",
                       KarateClub()));
  suite.push_back(Make("Cont.USA", "49/107 (real)", "embedded state borders",
                       ContiguousUsa()));
  suite.push_back(Make("Dolphins*", "62/159", "PowerlawCluster(62,3,0.5)+trim",
                       DolphinsSynthetic()));
  return suite;
}

std::vector<Dataset> SmallSuite() {
  // Sizes chosen so the EXACT O(n^3) baseline stays tractable on the
  // 2-core host while preserving each original's structure class.
  std::vector<Dataset> suite;
  suite.push_back(Make("Hamsterster*", "2,000/16,097 (scaled to 1,400)",
                       "PowerlawCluster(1400,8,0.3,41)",
                       PowerlawCluster(1400, 8, 0.3, 41)));
  suite.push_back(Make("web-EPA*", "4,253/8,897 (scaled to 1,500)",
                       "BarabasiAlbert(1500,2,42)",
                       BarabasiAlbert(1500, 2, 42)));
  suite.push_back(Make("Routeviews*", "6,474/13,895 (scaled to 1,600)",
                       "BarabasiAlbert(1600,2,43)",
                       BarabasiAlbert(1600, 2, 43)));
  suite.push_back(Make("soc-PagesGov*", "7,057/89,429 (scaled to 1,300)",
                       "PowerlawCluster(1300,12,0.5,44)",
                       PowerlawCluster(1300, 12, 0.5, 44)));
  suite.push_back(Make("Astro-Ph*", "17,903/197,031 (scaled to 1,500)",
                       "PowerlawCluster(1500,11,0.6,45)",
                       PowerlawCluster(1500, 11, 0.6, 45)));
  suite.push_back(Make("EmailEnron*", "33,696/180,811 (scaled to 1,600)",
                       "PowerlawCluster(1600,5,0.4,46)",
                       PowerlawCluster(1600, 5, 0.4, 46)));
  return suite;
}

std::vector<Dataset> LargeSuite() {
  std::vector<Dataset> suite;
  suite.push_back(Make("Livemocha*", "104,103/2,193,083 (scaled to 20,000)",
                       "PowerlawCluster(20000,10,0.3,51)",
                       PowerlawCluster(20000, 10, 0.3, 51)));
  suite.push_back(Make("WordNet*", "145,145/656,230 (scaled to 30,000)",
                       "PowerlawCluster(30000,4,0.5,52)",
                       PowerlawCluster(30000, 4, 0.5, 52)));
  suite.push_back(Make("Gowalla*", "196,591/950,327 (scaled to 40,000)",
                       "BarabasiAlbert(40000,5,53)",
                       BarabasiAlbert(40000, 5, 53)));
  return suite;
}

std::vector<Dataset> Table2Suite() {
  std::vector<Dataset> suite;
  suite.push_back(Make("Euroroads*", "1,039/1,305 (same size)",
                       "RandomGeometric(1039,0.032,61)",
                       RandomGeometric(1039, 0.032, 61)));
  suite.push_back(Make("Hamsterster*", "2,000/16,097 (same size)",
                       "PowerlawCluster(2000,8,0.3,41)",
                       PowerlawCluster(2000, 8, 0.3, 41)));
  suite.push_back(Make("GR-QC*", "4,158/13,428 (same size)",
                       "PowerlawCluster(4158,3,0.6,62)",
                       PowerlawCluster(4158, 3, 0.6, 62)));
  suite.push_back(Make("web-EPA*", "4,253/8,897 (same size)",
                       "BarabasiAlbert(4253,2,63)",
                       BarabasiAlbert(4253, 2, 63)));
  suite.push_back(Make("Routeviews*", "6,474/13,895 (same size)",
                       "BarabasiAlbert(6474,2,64)",
                       BarabasiAlbert(6474, 2, 64)));
  suite.push_back(Make("HEP-Th*", "8,638/24,827 (same size)",
                       "PowerlawCluster(8638,3,0.4,65)",
                       PowerlawCluster(8638, 3, 0.4, 65)));
  suite.push_back(Make("Astro-Ph*", "17,903/197,031 (scaled to 12,000)",
                       "PowerlawCluster(12000,11,0.6,66)",
                       PowerlawCluster(12000, 11, 0.6, 66)));
  suite.push_back(Make("CAIDA*", "26,475/53,381 (scaled to 16,000)",
                       "BarabasiAlbert(16000,2,67)",
                       BarabasiAlbert(16000, 2, 67)));
  suite.push_back(Make("EmailEnron*", "33,696/180,811 (scaled to 20,000)",
                       "PowerlawCluster(20000,5,0.4,68)",
                       PowerlawCluster(20000, 5, 0.4, 68)));
  suite.push_back(Make("buzznet*", "101,163/2,763,066 (scaled to 24,000)",
                       "PowerlawCluster(24000,14,0.3,69)",
                       PowerlawCluster(24000, 14, 0.3, 69)));
  suite.push_back(Make("Gowalla*", "196,591/950,327 (scaled to 32,000)",
                       "BarabasiAlbert(32000,5,70)",
                       BarabasiAlbert(32000, 5, 70)));
  suite.push_back(Make("com-DBLP*", "317,080/1,049,866 (scaled to 40,000)",
                       "PowerlawCluster(40000,3,0.6,71)",
                       PowerlawCluster(40000, 3, 0.6, 71)));
  return suite;
}

std::vector<Dataset> EpsTimeSuite() {
  std::vector<Dataset> suite;
  suite.push_back(Make("Euroroads*", "1,039/1,305 (same size)",
                       "RandomGeometric(1039,0.032,61)",
                       RandomGeometric(1039, 0.032, 61)));
  suite.push_back(Make("soc-PagesGov*", "7,057/89,429 (same n)",
                       "PowerlawCluster(7057,12,0.5,72)",
                       PowerlawCluster(7057, 12, 0.5, 72)));
  suite.push_back(Make("EmailEnron*", "33,696/180,811 (scaled to 12,000)",
                       "PowerlawCluster(12000,5,0.4,73)",
                       PowerlawCluster(12000, 5, 0.4, 73)));
  suite.push_back(Make("com-DBLP*", "317,080/1,049,866 (scaled to 20,000)",
                       "PowerlawCluster(20000,3,0.6,74)",
                       PowerlawCluster(20000, 3, 0.6, 74)));
  return suite;
}

void PrintProvenance(const std::vector<Dataset>& suite) {
  std::printf("# dataset provenance (paper graph -> offline stand-in; see "
              "DESIGN.md §5)\n");
  for (const auto& d : suite) {
    std::printf("#   %-14s paper n/m: %-38s generator: %s (n=%d, m=%lld)\n",
                d.name.c_str(), d.paper_size.c_str(), d.generator.c_str(),
                d.graph.num_nodes(),
                static_cast<long long>(d.graph.num_edges()));
  }
}

double EvaluateCfcc(const Graph& graph, const std::vector<NodeId>& group,
                    uint64_t seed, NodeId dense_threshold) {
  if (graph.num_nodes() <= dense_threshold) {
    return ExactGroupCfcc(graph, group);
  }
  CgOptions cg;
  cg.tolerance = 1e-6;
  return ApproximateGroupCfcc(graph, group, /*probes=*/12, seed, cg).cfcc;
}

CfcmOptions BenchOptions(double eps, uint64_t seed) {
  CfcmOptions opts;
  opts.eps = eps;
  opts.seed = seed;
  opts.num_threads = 0;  // all cores
  // Bench-scale engineering knobs (DESIGN.md "Engineering constants"):
  // every estimate samples exactly the forest target these resolve to.
  // Scaled for the 2-core offline host; quality-focused benches (Fig. 1,
  // Fig. 2) raise them explicitly.
  opts.forest_factor = 0.35;
  opts.max_forests = 4096;
  opts.max_jl_rows = 16;
  opts.min_batch = 64;
  return opts;
}

std::string LatencyJson(const obs::LatencyHistogram::Snapshot& snapshot) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "{\"count\":%llu,\"mean_us\":%.1f,\"p50_us\":%lld,"
                "\"p95_us\":%lld,\"p99_us\":%lld,\"max_us\":%lld}",
                static_cast<unsigned long long>(snapshot.count),
                snapshot.Mean(),
                static_cast<long long>(snapshot.Percentile(0.50)),
                static_cast<long long>(snapshot.Percentile(0.95)),
                static_cast<long long>(snapshot.Percentile(0.99)),
                static_cast<long long>(snapshot.max));
  return buffer;
}

void PrintOptions(const CfcmOptions& options) {
  std::printf(
      "# options: eps=%.2f seed=%llu forest_factor=%.2f max_forests=%d "
      "max_jl_rows=%d min_batch=%d\n",
      options.eps, static_cast<unsigned long long>(options.seed),
      options.forest_factor, options.max_forests, options.max_jl_rows,
      options.min_batch);
}

}  // namespace cfcm::bench
