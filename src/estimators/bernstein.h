// Empirical Bernstein confidence half-widths (paper Lemma 3.6).
#ifndef CFCM_ESTIMATORS_BERNSTEIN_H_
#define CFCM_ESTIMATORS_BERNSTEIN_H_

#include <cstdint>

namespace cfcm {

/// \brief Half-width f(r, Xvar, Xsup, delta) of Lemma 3.6:
/// sqrt(2 Xvar log(3/delta) / r) + 3 Xsup log(3/delta) / r.
///
/// `sum` / `sum_sq` are running first/second moments of the r samples;
/// `sup` bounds |X_i - E X_i| (we pass the sample range).
double EmpiricalBernsteinHalfWidth(std::int64_t count, double sum,
                                   double sum_sq, double sup, double delta);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_BERNSTEIN_H_
