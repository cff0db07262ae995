// Gate self-test: feeds every correctness check a right and a wrong
// input and fails unless the wrong one trips it. Also pins the
// raw-sample percentile rule.
#include <cstdio>
#include <string>

#include "common.h"

namespace perfbench {

int RunSelfTest() {
  int failures = 0;
  auto expect = [&failures](const char* what, bool ok) {
    std::printf("selftest %s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  expect("group_ok", CheckGroup({3, 1, 2}, 3, 5).empty());
  expect("group_duplicate_trips", !CheckGroup({3, 3, 2}, 3, 5).empty());
  expect("group_out_of_range_trips", !CheckGroup({3, 5, 2}, 3, 5).empty());
  expect("group_short_trips", !CheckGroup({3, 2}, 3, 5).empty());

  expect("selection_same_ok", CheckSameSelection({4, 1, 2}, {4, 1, 2}).empty());
  expect("selection_wrong_trips",
         !CheckSameSelection({4, 1, 2}, {4, 1, 3}).empty());
  expect("selection_order_trips",
         !CheckSameSelection({4, 1, 2}, {4, 2, 1}).empty());

  const std::string miss =
      R"({"cache":"miss","cfcc":4.5,"id":17,"selection":[1,2],"status":"ok"})";
  const std::string hit =
      R"({"cache":"hit","cfcc":4.5,"id":912,"selection":[1,2],"status":"ok"})";
  std::string flipped = hit;
  flipped[flipped.find("4.5") + 2] = '6';
  expect("hit_bytes_ok", CheckHitMatchesMiss(hit, miss).empty());
  expect("hit_bytes_flip_trips", !CheckHitMatchesMiss(flipped, miss).empty());
  expect("hit_not_a_hit_trips", !CheckHitMatchesMiss(miss, miss).empty());

  expect("cfcc_floor_ok", CheckNotBelow(5.0, 4.9, 0.0).empty());
  expect("cfcc_floor_trips", !CheckNotBelow(4.8, 4.9, 0.01).empty());

  Samples s;
  for (int i = 1; i <= 1000; ++i) s.Add(i);
  expect("p50_raw", s.Median() == 500.0);
  expect("p99_raw", s.Percentile(0.99) == 990.0 && s.Beyond(0.99) == 10);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
