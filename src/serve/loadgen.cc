#include "serve/loadgen.h"

#include <cmath>
#include <random>
#include <stdexcept>

namespace aib::serve {

std::vector<double>
poissonTrace(std::uint64_t seed, double qps, int queries)
{
    if (!std::isfinite(qps) || qps <= 0.0)
        throw std::invalid_argument(
            "poissonTrace: qps must be finite and > 0");
    if (queries < 0)
        throw std::invalid_argument("poissonTrace: negative count");
    std::mt19937_64 engine(seed);
    std::exponential_distribution<double> gap(qps / 1e6); // per us
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<std::size_t>(queries));
    double t = 0.0;
    for (int i = 0; i < queries; ++i) {
        t += gap(engine);
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<double>
uniformTrace(double qps, int queries)
{
    if (!std::isfinite(qps) || qps <= 0.0)
        throw std::invalid_argument(
            "uniformTrace: qps must be finite and > 0");
    if (queries < 0)
        throw std::invalid_argument("uniformTrace: negative count");
    const double gap_us = 1e6 / qps;
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<std::size_t>(queries));
    for (int i = 0; i < queries; ++i)
        arrivals.push_back(static_cast<double>(i + 1) * gap_us);
    return arrivals;
}

} // namespace aib::serve
