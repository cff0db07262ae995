// First greedy pick: argmin_u L†_uu via forest sampling (Alg. 3 lines
// 1-14, using the Lemma 3.5 reformulation through L_{-s}^{-1}).
#ifndef CFCM_ESTIMATORS_FIRST_PICK_H_
#define CFCM_ESTIMATORS_FIRST_PICK_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "estimators/options.h"
#include "graph/graph.h"

namespace cfcm {

/// Outcome of the pseudoinverse-diagonal estimation.
struct FirstPickResult {
  NodeId best = -1;            ///< argmin_u of the estimated L†_uu
  NodeId pivot = -1;           ///< the grounded node s (max degree)
  std::vector<double> scores;  ///< x_u = estimate of L†_uu - L†_ss
  int forests = 0;
  std::int64_t walk_steps = 0;  ///< total loop-erased walk steps
};

/// \brief Estimates x_u = (L_{-s}^{-1})_uu - (2/n) 1^T L_{-s}^{-1} e_u for
/// all u (x_s = 0) by sampling spanning forests rooted at the max-degree
/// node s, and returns the argmin.
///
/// By Lemma 3.5, x_u = L†_uu - L†_ss, so the argmin of x equals the
/// argmin of the pseudoinverse diagonal (the node of maximum single-node
/// CFCC). Requires a connected graph with >= 2 nodes.
FirstPickResult EstimateFirstPick(const Graph& graph,
                                  const EstimatorOptions& options,
                                  ThreadPool& pool);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_FIRST_PICK_H_
