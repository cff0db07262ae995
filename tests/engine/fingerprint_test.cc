// The snapshot content fingerprint (GraphFingerprint): its framing, its
// sensitivity to conductance bits, and pinned wire values. The serve
// layer reports it as 16 hex digits and keys its result cache on it, so
// an unintended change to the hash or the framing must fail here.
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "engine/session.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "graph/generators.h"

namespace cfcm::engine {
namespace {

Graph Reweighted(const Graph& graph, NodeId u, NodeId v, double weight) {
  GraphDelta delta;
  delta.ReweightEdge(u, v, weight);
  StatusOr<Graph> next = graph.Apply(delta);
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  return std::move(*next);
}

// The documented frame: n, m, offsets, neighbours, conductances, hashed
// as one byte stream.
TEST(FingerprintTest, HashesTheFramedCsrBytes) {
  for (const Graph& graph :
       {KarateClub(), Reweighted(KarateClub(), 0, 1, 2.5)}) {
    const NodeId n = graph.num_nodes();
    const EdgeId m = graph.num_edges();
    std::vector<unsigned char> frame;
    auto append = [&frame](const void* data, std::size_t bytes) {
      const auto* p = static_cast<const unsigned char*>(data);
      frame.insert(frame.end(), p, p + bytes);
    };
    append(&n, sizeof(n));
    append(&m, sizeof(m));
    append(graph.offsets().data(), graph.offsets().size() * sizeof(EdgeId));
    append(graph.raw_neighbors().data(),
           graph.raw_neighbors().size() * sizeof(NodeId));
    append(graph.raw_weights().data(),
           graph.raw_weights().size() * sizeof(double));
    EXPECT_EQ(GraphFingerprint(graph), ContentHash(frame.data(), frame.size()));
    EXPECT_EQ(GraphSnapshot(graph).fingerprint(), GraphFingerprint(graph));
  }
}

// Scaling one conductance by 2^k changes only its exponent bits (the
// high bits of the stored double). Each scale must give a fingerprint of
// its own, differing from the base in both 32-bit halves.
TEST(FingerprintTest, ExponentOnlyWeightChangesMove) {
  const Graph base = Reweighted(KarateClub(), 0, 1, 1.5);
  const uint64_t base_fp = GraphFingerprint(base);
  std::set<uint64_t> seen{base_fp};
  for (int k : {-8, -3, -1, 1, 2, 5, 16}) {
    const uint64_t fp =
        GraphFingerprint(Reweighted(base, 0, 1, std::ldexp(1.5, k)));
    EXPECT_TRUE(seen.insert(fp).second) << "k = " << k;
    EXPECT_NE(fp >> 32, base_fp >> 32) << "k = " << k;
    EXPECT_NE(fp & 0xFFFFFFFFu, base_fp & 0xFFFFFFFFu) << "k = " << k;
  }
}

// Wire values (the serve layer prints them as %016llx). These change only
// when the hash or the framing does — which changes every cache key a
// client may hold, so it must be deliberate.
TEST(FingerprintTest, PinnedValues) {
  EXPECT_EQ(GraphFingerprint(KarateClub()), 0xb322f3f3ef884a3bull);
  EXPECT_EQ(GraphFingerprint(Reweighted(KarateClub(), 0, 1, 2.5)),
            0xbcc6db416e35020full);
  EXPECT_EQ(GraphFingerprint(BarabasiAlbert(2000, 4, 3)),
            0x3c6889669ee2c159ull);
}

}  // namespace
}  // namespace cfcm::engine
