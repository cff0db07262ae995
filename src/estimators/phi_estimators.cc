#include "estimators/phi_estimators.h"

#include <cassert>
#include <cstring>

namespace cfcm {

namespace {

// Buffers of one prefix pass; the pass's template flags say which are
// read and written.
struct PrefixBuffers {
  double* x = nullptr;             // X_f, n entries
  double* o = nullptr;             // O_f, n entries
  const int32_t* sizes = nullptr;  // forest subtree sizes, read by O_f
  const double* sub = nullptr;     // JL subtree sums, n x w, read by Y_f
  int w = 0;
  double* y = nullptr;             // Y_f rows, n x w
  NodeId* rows = nullptr;          // Y_f(u) is row rows[u] of y
};

// One walk of the BFS order (parents before children) computing the
// selected statistics; each recurrence is written once, here. The BFS
// lists exactly the deduplicated roots first, so the non-root loop needs
// no root test. A forest holds at most one of u -> p and p -> u for the
// BFS edge (u, p). With exactly one, u's statistic is p's plus that of
// subtree(src) times coef: src = u, coef = +1/w for u -> p, and src = p,
// coef = -1/w for p -> u. IEEE negation is exact, so a + s * (-c) equals
// a - s * c bit for bit. With neither, u's statistic is p's, and u
// shares p's Y row instead of copying it.
template <bool kDiag, bool kOnes, bool kJl>
void PrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                const PrefixBuffers& b) {
  const std::vector<NodeId>& order = scaffold.bfs.order;
  const NodeId* bfs_parent = scaffold.bfs.parent.data();
  const NodeId* forest_parent = forest.parent.data();
  const double* up_inv_weight = scaffold.up_inv_weight.data();
  const std::size_t w = static_cast<std::size_t>(b.w);
  const std::size_t num_roots = scaffold.roots.size();
  for (std::size_t i = 0; i < num_roots; ++i) {
    const NodeId r = order[i];
    if constexpr (kDiag) b.x[r] = 0.0;
    if constexpr (kOnes) b.o[r] = 0.0;
    if constexpr (kJl) {
      std::memset(b.y + static_cast<std::size_t>(r) * w, 0,
                  sizeof(double) * w);
      b.rows[r] = r;
    }
  }
  for (std::size_t i = num_roots; i < order.size(); ++i) {
    const NodeId u = order[i];
    const NodeId p = bfs_parent[u];
    const bool fwd = forest_parent[u] == p;
    const bool bwd = forest_parent[p] == u;
    if (fwd == bwd) {
      if constexpr (kDiag) b.x[u] = b.x[p];
      if constexpr (kOnes) b.o[u] = b.o[p];
      if constexpr (kJl) b.rows[u] = b.rows[p];
      continue;
    }
    const NodeId src = fwd ? u : p;
    const double coef = fwd ? up_inv_weight[u] : -up_inv_weight[u];
    if constexpr (kDiag) b.x[u] = b.x[p] + coef;
    if constexpr (kOnes) b.o[u] = b.o[p] + b.sizes[src] * coef;
    if constexpr (kJl) {
      const double* yp = b.y + static_cast<std::size_t>(b.rows[p]) * w;
      const double* s = b.sub + static_cast<std::size_t>(src) * w;
      double* yu = b.y + static_cast<std::size_t>(u) * w;
      for (std::size_t j = 0; j < w; ++j) yu[j] = yp[j] + s[j] * coef;
      b.rows[u] = u;
    }
  }
}

}  // namespace

void DiagPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                    std::vector<double>* xbuf) {
  assert(xbuf->size() == scaffold.bfs.parent.size());
  PrefixPass<true, false, false>(scaffold, forest, {.x = xbuf->data()});
}

void OnesPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                    const std::vector<int32_t>& sizes,
                    std::vector<double>* obuf) {
  assert(obuf->size() == scaffold.bfs.parent.size());
  PrefixPass<false, true, false>(
      scaffold, forest, {.o = obuf->data(), .sizes = sizes.data()});
}

void JlPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                  const double* sub, int w, double* ybuf, NodeId* rows) {
  PrefixPass<false, false, true>(
      scaffold, forest, {.sub = sub, .w = w, .y = ybuf, .rows = rows});
}

void DiagJlPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                      const double* sub, int w, std::vector<double>* xbuf,
                      double* ybuf, NodeId* rows) {
  assert(xbuf->size() == scaffold.bfs.parent.size());
  PrefixPass<true, false, true>(
      scaffold, forest,
      {.x = xbuf->data(), .sub = sub, .w = w, .y = ybuf, .rows = rows});
}

void DiagOnesPrefixPass(const TreeScaffold& scaffold,
                        const RootedForest& forest,
                        const std::vector<int32_t>& sizes,
                        std::vector<double>* xbuf, std::vector<double>* obuf) {
  assert(xbuf->size() == scaffold.bfs.parent.size());
  assert(obuf->size() == scaffold.bfs.parent.size());
  PrefixPass<true, true, false>(
      scaffold, forest,
      {.x = xbuf->data(), .o = obuf->data(), .sizes = sizes.data()});
}

}  // namespace cfcm
