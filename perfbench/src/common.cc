#include "common.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>

#include "common/timer.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics of the final line. Every workload fills every one;
// the role each plays per workload is documented in perfbench/METRICS.md.
constexpr MetricDef kRoles[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},       {"primary_ms", "ms"},
    {"secondary_ms", "ms"},    {"tertiary_ms", "ms"},
    {"quality_ratio", "ratio"},
};

// Per-layer ledger of traced runs, one line per layer metric. A layer a
// workload does not exercise reports 0.
constexpr MetricDef kLayers[] = {
    {"forest.sample_us_per_forest", "us"},
    {"forest.walk_steps", "count"},
    {"forest.subtree_jl_us_per_forest", "us"},
    {"linalg.jl_rows", "count"},
    {"estimators.process_forest_us", "us"},
    {"estimators.prefix_pass_us", "us"},
    {"estimators.accumulate_us_per_forest", "us"},
    {"estimators.first_pick_s", "s"},
    {"estimators.delta_s", "s"},
    {"estimators.delta_calls", "count"},
    {"estimators.forests", "count"},
    {"estimators.converged_frac", "frac"},
    {"runtime.busy_frac", "frac"},
    {"runtime.wait_s", "s"},
    {"runtime.sys_cpu_frac", "frac"},
    {"runtime.speedup", "x"},
    {"runtime.chunks", "count"},
    {"cfcm.select_self_s", "s"},
    {"cfcm.rescored_candidates", "count"},
    {"cfcm.heap_pops", "count"},
    {"cfcm.reuse_frac", "frac"},
    {"cfcm.schur.aux_roots", "count"},
    {"cfcm.incremental.warm_frac", "frac"},
    {"cfcm.incremental.clean_frac", "frac"},
    {"cfcm.incremental.swap_moves", "count"},
    {"cfcm.incremental.cold_fallbacks", "count"},
    {"engine.solver_ms", "ms"},
    {"engine.score_ms", "ms"},
    {"engine.evaluate_ms", "ms"},
    {"engine.snapshot_derive_ms", "ms"},
    {"graph.apply_ms", "ms"},
    {"serve.mutate_commit_ms", "ms"},
    {"serve.parse_us", "us"},
    {"serve.cache_lookup_us", "us"},
    {"serve.serialize_us", "us"},
    {"obs.stats_us", "us"},
    {"obs.trace_overhead_frac", "frac"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int BatchPoolWorkers() { return std::max(2, Nproc() - 1); }

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[idx];
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

std::size_t Samples::Beyond(double q) const {
  const double p = Percentile(q);
  return static_cast<std::size_t>(std::count_if(
      values_.begin(), values_.end(), [p](double v) { return v > p; }));
}

double NowSeconds() { return static_cast<double>(cfcm::MonotonicNanos()) * 1e-9; }

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTimes ProcessCpu() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       cfcm::obs::MetricsRegistry::Global().snapshot().counters) {
    out[name] = value;
  }
  return out;
}

uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name) {
  auto get = [&name](const std::map<std::string, uint64_t>& m) -> uint64_t {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

std::string CheckGroup(const std::vector<cfcm::NodeId>& group, int k,
                       cfcm::NodeId n) {
  if (static_cast<int>(group.size()) != k) {
    return "size " + std::to_string(group.size()) + " != k " + std::to_string(k);
  }
  std::set<cfcm::NodeId> seen;
  for (cfcm::NodeId u : group) {
    if (u < 0 || u >= n) return "node " + std::to_string(u) + " out of range";
    if (!seen.insert(u).second) return "duplicate node " + std::to_string(u);
  }
  return "";
}

std::string CheckSameSelection(const std::vector<cfcm::NodeId>& a,
                               const std::vector<cfcm::NodeId>& b) {
  if (a == b) return "";
  std::string why = "selections differ:";
  for (const auto* g : {&a, &b}) {
    why += " [";
    for (std::size_t i = 0; i < g->size(); ++i) {
      if (i > 0) why += ",";
      why += std::to_string((*g)[i]);
    }
    why += "]";
  }
  return why;
}

std::string CheckHitMatchesMiss(const std::string& hit,
                                const std::string& miss) {
  // Responses serialize with sorted keys, so "cache" and "id" are plain
  // members at fixed positions; blank out their values and compare the
  // rest byte for byte.
  auto normalize = [](std::string line) {
    for (const char* key : {"\"cache\":\"", "\"id\":"}) {
      const std::size_t at = line.find(key);
      if (at == std::string::npos) continue;
      const std::size_t begin = at + std::string(key).size();
      std::size_t end = begin;
      while (end < line.size() && line[end] != ',' && line[end] != '}' &&
             line[end] != '"') {
        ++end;
      }
      line.erase(begin, end - begin);
    }
    return line;
  };
  if (hit.find("\"cache\":\"hit\"") == std::string::npos) {
    return "response is not a cache hit";
  }
  if (normalize(hit) != normalize(miss)) {
    return "hit bytes differ from the miss that filled the entry";
  }
  return "";
}

std::string CheckNotBelow(double value, double reference, double rel_tol) {
  if (std::isfinite(value) && value >= reference * (1.0 - rel_tol)) return "";
  return Num(value) + " below reference " + Num(reference);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void Report::Role(const std::string& name, double value) { roles_[name] = value; }

void Report::Layer(const std::string& name, double value) {
  layers_[name] = value;
}

void Report::Named(const std::string& name, double value,
                   const std::string& unit, std::size_t samples) {
  std::string line = "metric " + name + " " + Num(value) + " " + unit;
  if (samples > 0) line += " n=" + std::to_string(samples);
  lines_.push_back(line);
}

void Report::Info(const std::string& key, const std::string& value) {
  lines_.push_back("info " + key + " " + value);
}

void Report::Check(const std::string& name, const std::string& failure) {
  if (failure.empty()) {
    lines_.push_back("check " + name + " ok");
  } else {
    ++failed_checks_;
    lines_.push_back("check " + name + " FAILED: " + failure);
  }
}

bool Report::Emit() const {
  utsname host{};
  ::uname(&host);
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  std::printf("info workload %s seed %llu seconds %g trace %d\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0);
  std::printf("info machine %s %s nproc %d build %s source %s\n",
              host.machine, host.release, Nproc(), build,
              args_.source_digest.c_str());
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());

  std::string metrics;
  bool complete = true;
  auto add = [&metrics](const MetricDef& def, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(def.name) + ": {\"value\": " + Num(value) +
               ", \"unit\": " + JsonString(def.unit) + "}";
  };
  if (args_.trace) {
    for (const MetricDef& def : kLayers) {
      auto it = layers_.find(def.name);
      add(def, it == layers_.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kRoles) {
      auto it = roles_.find(def.name);
      if (it == roles_.end() || !std::isfinite(it->second)) {
        std::printf("check role_%s FAILED: not measured\n", def.name);
        complete = false;
      }
      add(def, it == roles_.end() ? 0.0 : it->second);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct() && complete ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(attempted_, 1)),
      static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct() && complete;
}

}  // namespace perfbench
