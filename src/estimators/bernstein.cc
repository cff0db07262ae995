#include "estimators/bernstein.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cfcm {

double EmpiricalBernsteinHalfWidth(std::int64_t count, double sum,
                                   double sum_sq, double sup, double delta) {
  if (count <= 0) return std::numeric_limits<double>::infinity();
  const double mean = sum / static_cast<double>(count);
  const double var =
      std::max(0.0, sum_sq / static_cast<double>(count) - mean * mean);
  const double log_term = std::log(3.0 / delta);
  return std::sqrt(2.0 * var * log_term / static_cast<double>(count)) +
         3.0 * sup * log_term / static_cast<double>(count);
}

}  // namespace cfcm
