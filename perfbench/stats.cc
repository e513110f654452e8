#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    p = std::clamp(p, 0.0, 100.0);
    const double h = static_cast<double>(samples.size() - 1) * p / 100.0;
    const auto lo = static_cast<std::size_t>(std::floor(h));
    if (lo + 1 >= samples.size())
        return samples.back();
    return samples[lo] +
           (h - static_cast<double>(lo)) * (samples[lo + 1] - samples[lo]);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

} // namespace perfbench
