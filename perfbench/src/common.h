// Shared plumbing of the perfbench binary: arguments, raw-sample
// statistics, the run report (metrics, correctness checks, final JSON
// line) and process-level measurements (RSS, CPU time, registry
// counter deltas). Nothing here calls into the library under test
// except the metrics registry it reads.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberate defect for gate tests ("wrong_selection", "hit_bytes",
  /// "warm_group"); empty in real runs.
  std::string inject;
  std::string source_digest = "unknown";
};

/// Hardware threads, as `nproc` reports them (at least 1).
int Nproc();

/// Worker count for a cfcm::ThreadPool that runs a forest batch on
/// Nproc() threads. The calling thread executes batch slots too
/// (McScratchSlots = workers + 1), so a pool of Nproc() workers would
/// run one spinning executor more than there are cores. A one-worker
/// pool runs inline, so the result is at least 2.
int BatchPoolWorkers();

/// Raw per-operation samples. Percentiles sort the samples themselves
/// (nearest rank), never a bucketed histogram.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  std::size_t count() const { return values_.size(); }
  /// Nearest-rank q-quantile, q in [0, 1]; 0 when empty.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double Mean() const;
  /// Samples strictly above the q-quantile value.
  std::size_t Beyond(double q) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Seconds since an arbitrary fixed origin (steady clock).
double NowSeconds();

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// User and system CPU seconds of this process so far.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};
CpuTimes ProcessCpu();

/// Current values of every registry counter, by name.
std::map<std::string, uint64_t> CounterSnapshot();
/// after[name] - before[name] (0 when absent).
uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name);

// ---- correctness checks, kept pure so the gate self-test can feed
// them wrong inputs. Each returns "" when the check passes, else why.

/// k distinct node ids, each in [0, n).
std::string CheckGroup(const std::vector<cfcm::NodeId>& group, int k,
                       cfcm::NodeId n);
/// Identical selections (same nodes in the same greedy order).
std::string CheckSameSelection(const std::vector<cfcm::NodeId>& a,
                               const std::vector<cfcm::NodeId>& b);
/// A cache-hit response line equals the miss line that filled the
/// entry byte for byte, apart from the "cache" member and the echoed
/// request "id".
std::string CheckHitMatchesMiss(const std::string& hit,
                                const std::string& miss);
/// value >= reference * (1 - rel_tol).
std::string CheckNotBelow(double value, double reference, double rel_tol);

/// Run report: the workload fills it; Emit prints the human-readable
/// ledger and the final JSON line.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// An end-to-end role metric of the final line (untraced runs).
  void Role(const std::string& name, double value);
  /// A per-layer metric of the final line (traced runs).
  void Layer(const std::string& name, double value);
  /// A named, human-readable metric (the workload's own vocabulary,
  /// e.g. hit_p99_ms), printed with its unit and sample count.
  void Named(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 0);
  /// Free-form context line (configuration, machine, ladder rows).
  void Info(const std::string& key, const std::string& value);

  /// Records a correctness check; `failure` empty = pass.
  void Check(const std::string& name, const std::string& failure);

  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  bool correct() const { return failed_checks_ == 0; }
  const Args& args() const { return args_; }
  bool injected(const std::string& what) const { return args_.inject == what; }

  /// Prints everything; the last stdout line is the JSON result.
  /// Returns whether every check passed and every metric was measured.
  bool Emit() const;

 private:
  Args args_;
  std::map<std::string, double> roles_;
  std::map<std::string, double> layers_;
  std::vector<std::string> lines_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int failed_checks_ = 0;
};

/// Formats a double with every significant digit the metric carries.
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
