// The three benchmark workloads. Each fills the report from one
// seeded run; the rationale for each is in perfbench/METRICS.md.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Library-level cold solves of ForestCFCM (nproc and 1 thread) and
/// SchurCFCM on BA(4000, 4), k = 12, eps = 0.3.
void RunSolveLarge(Report& report);

/// In-process Server on loopback driven open-loop over a rate ladder:
/// pre-warmed cache hits, cold forest misses, probed evaluates, stats.
void RunServeMixed(Report& report);

/// Closed-loop mutate + warm re-solve rounds through
/// ServeHandler::HandleLine on BA(2000, 4).
void RunDynamicChurn(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
