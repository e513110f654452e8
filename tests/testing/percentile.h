/**
 * @file
 * Exact percentile of a sample set: the sorted-vector reference the
 * serving LatencyHistogram is checked against.
 */

#ifndef AIB_TESTS_TESTING_PERCENTILE_H
#define AIB_TESTS_TESTING_PERCENTILE_H

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace aib::testing {

/** Percentile (0..100) of a sample set, by interpolation. */
inline double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        throw std::invalid_argument("percentile: empty sample");
    std::sort(values.begin(), values.end());
    const double rank =
        pct / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

} // namespace aib::testing

#endif // AIB_TESTS_TESTING_PERCENTILE_H
