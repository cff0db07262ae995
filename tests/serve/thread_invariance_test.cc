// The served C(S) does not depend on the session pool (DESIGN.md §6, §9).
//
// `evaluate` and a solve's `score` run their Hutchinson probes on the
// session pool, so a daemon at 1 thread and one at 4 must answer the same
// requests with the same bytes; only the wall-clock `seconds` field of a
// solve may differ.
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"

namespace cfcm::serve {
namespace {

std::vector<std::string> Responses(int threads) {
  HandlerOptions options;
  options.catalog.num_threads = threads;
  // Score every solve by probing, as above the default dense ceiling.
  options.engine.exact_eval_max_n = 64;
  ServeHandler handler{options};
  const std::string requests[] = {
      R"({"op":"load","graph":"g","source":"ba:900,3"})",
      R"({"op":"evaluate","graph":"g","group":[0,1,2,7],"probes":64,"seed":5})",
      R"({"op":"evaluate","graph":"g","group":[3],"probes":129,"seed":2})",
      R"({"op":"solve","graph":"g","algorithm":"forest","k":4,"eps":0.3,"seed":7})",
      R"({"op":"solve","graph":"g","algorithm":"approx","k":3,"eps":0.3,"seed":7})",
  };
  const std::regex seconds(R"("seconds":[-+.eE0-9]+)");
  std::vector<std::string> out;
  for (const std::string& request : requests) {
    const std::string line = handler.HandleLine(request).Serialize();
    EXPECT_NE(line.find(R"("status":"ok")"), std::string::npos) << line;
    out.push_back(std::regex_replace(line, seconds, R"("seconds":0)"));
  }
  return out;
}

TEST(ServeThreadInvarianceTest, EvaluateAndSolveBytesEqualAtOneAndFourThreads) {
  const std::vector<std::string> one = Responses(1);
  const std::vector<std::string> four = Responses(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) EXPECT_EQ(one[i], four[i]);
}

}  // namespace
}  // namespace cfcm::serve
