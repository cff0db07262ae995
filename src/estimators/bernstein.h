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

/// Variance-only half-width sqrt(2 Xvar log(3/delta) / r), for where the
/// theoretical sup (d^{tau+1}-type bounds) is astronomically loose and
/// would swamp the width; see DESIGN.md.
double VarianceHalfWidth(std::int64_t count, double sum, double sum_sq,
                         double delta);

/// Hoeffding sample bound r >= range^2 log(2/delta) / (2 eps_abs^2) for an
/// additive eps_abs guarantee (Lemma 3.8; documentation/tests).
double HoeffdingSampleBound(double range, double eps_abs, double delta);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_BERNSTEIN_H_
