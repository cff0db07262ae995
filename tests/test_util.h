// Shared helpers for the cfcm test suites.
#ifndef CFCM_TESTS_TEST_UTIL_H_
#define CFCM_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "linalg/dense.h"

namespace cfcm::testing {

/// Deterministic connected random graph: BA(n, m_attach) with a seed
/// derived from the arguments; used by property suites.
Graph RandomConnectedGraph(NodeId n, NodeId m_attach, uint64_t seed);

/// Small pool of structurally diverse connected graphs for TEST_P sweeps:
/// path, cycle, star, complete, grid, karate, BA, WS, geometric, ...
struct NamedGraph {
  const char* name;
  Graph graph;
};
std::vector<NamedGraph> PropertyGraphPool();

/// max_u |a[u] - b[u]|.
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b);

/// 64-bit FNV-1a over raw bytes: the bitwise pins hash whole output
/// buffers with it, so any changed bit changes the digest.
class Fnv1a {
 public:
  void Add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Add(const std::vector<T>& v) {
    Add(v.data(), v.size() * sizeof(T));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace cfcm::testing

#endif  // CFCM_TESTS_TEST_UTIL_H_
