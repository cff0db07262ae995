// The perfbench binary:
//   perfbench --workload solve_large|serve_mixed|dynamic_churn
//             --seed N --seconds S --trace 0|1 [--inject DEFECT]
//             [--source-digest HEX]
//   perfbench --selftest
// Prints a human-readable ledger ("info", "metric", "check" lines) and,
// as the last line, one JSON object {correct, attempted, failed,
// metrics}. Exits 1 when a correctness check fails, 2 on bad usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "obs/log.h"
#include "workloads.h"

namespace perfbench {
int RunSelfTest();  // selftest.cc
}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1"
               " [--inject DEFECT] [--source-digest HEX]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--inject") {
      args.inject = value;
    } else if (arg == "--source-digest") {
      args.source_digest = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  // Backstop for the 180 s limit: a wedged run dies with SIGALRM
  // instead of hanging.
  ::alarm(170);
  cfcm::obs::SetMinLogLevel(cfcm::obs::LogLevel::kOff);
  perfbench::Report report(args);
  if (args.workload == "solve_large") {
    perfbench::RunSolveLarge(report);
  } else if (args.workload == "serve_mixed") {
    perfbench::RunServeMixed(report);
  } else if (args.workload == "dynamic_churn") {
    perfbench::RunDynamicChurn(report);
  } else {
    return Usage();
  }
  return report.Emit() ? 0 : 1;
}
