#include "estimators/phi_estimators.h"

#include <cassert>
#include <cstring>

namespace cfcm {

void DiagPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                    std::vector<double>* xbuf) {
  const auto& bfs = scaffold.bfs;
  assert(xbuf->size() == bfs.parent.size());
  for (NodeId u : bfs.order) {
    if (scaffold.is_root[u]) {
      (*xbuf)[u] = 0.0;
      continue;
    }
    const NodeId p = bfs.parent[u];
    const double iw = scaffold.up_inv_weight[u];
    double x = (*xbuf)[p];
    if (forest.parent[u] == p) x += iw;  // BFS edge traversed u -> p
    if (forest.parent[p] == u) x -= iw;  // ... or p -> u
    (*xbuf)[u] = x;
  }
}

void OnesPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                    const std::vector<int32_t>& sizes,
                    std::vector<double>* obuf) {
  const auto& bfs = scaffold.bfs;
  assert(obuf->size() == bfs.parent.size());
  for (NodeId u : bfs.order) {
    if (scaffold.is_root[u]) {
      (*obuf)[u] = 0.0;
      continue;
    }
    const NodeId p = bfs.parent[u];
    const double iw = scaffold.up_inv_weight[u];
    double o = (*obuf)[p];
    if (forest.parent[u] == p) o += sizes[u] * iw;
    if (forest.parent[p] == u) o -= sizes[p] * iw;
    (*obuf)[u] = o;
  }
}

void JlPrefixPass(const TreeScaffold& scaffold, const RootedForest& forest,
                  const double* sub, int w, double* ybuf, NodeId* rows) {
  const auto& bfs = scaffold.bfs;
  for (NodeId u : bfs.order) {
    double* yu = ybuf + static_cast<std::size_t>(u) * w;
    if (scaffold.is_root[u]) {
      std::memset(yu, 0, sizeof(double) * static_cast<std::size_t>(w));
      rows[u] = u;
      continue;
    }
    const NodeId p = bfs.parent[u];
    const bool fwd = forest.parent[u] == p;
    const bool bwd = forest.parent[p] == u;
    if (fwd == bwd) {
      // Neither direction (or both, impossible in a forest): Y_f(u) is
      // Y_f(p), so u reads p's row.
      rows[u] = rows[p];
      continue;
    }
    const double* yp = ybuf + static_cast<std::size_t>(rows[p]) * w;
    const double iw = scaffold.up_inv_weight[u];
    rows[u] = u;
    if (fwd) {
      const double* su = sub + static_cast<std::size_t>(u) * w;
      for (int j = 0; j < w; ++j) yu[j] = yp[j] + su[j] * iw;
    } else {
      const double* sp = sub + static_cast<std::size_t>(p) * w;
      for (int j = 0; j < w; ++j) yu[j] = yp[j] - sp[j] * iw;
    }
  }
}

}  // namespace cfcm
