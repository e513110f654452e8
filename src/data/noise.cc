#include "data/noise.h"

#include <algorithm>

namespace aib::data {

namespace {

/** Elements per block fill; the draws live on the stack. */
constexpr std::int64_t kChunk = 512;

/** std::clamp(v, 0, 1) without its compare-and-branch. */
inline float
clamp01(float v)
{
    return std::min(std::max(v, 0.0f), 1.0f);
}

} // namespace

void
addClampedNoise(Rng &rng, float noise, std::int64_t n, float *a, float *b)
{
    float z[2 * kChunk];
    for (std::int64_t i = 0; i < n; i += kChunk) {
        const std::int64_t m = std::min(kChunk, n - i);
        float *pa = a + i;
        if (b == nullptr) {
            rng.normal(z, m, 0.0f, 1.0f);
            for (std::int64_t j = 0; j < m; ++j)
                pa[j] = clamp01(pa[j] + noise * z[j]);
        } else {
            rng.normal(z, 2 * m, 0.0f, 1.0f);
            float *pb = b + i;
            for (std::int64_t j = 0; j < m; ++j) {
                pa[j] = clamp01(pa[j] + noise * z[2 * j]);
                pb[j] = clamp01(pb[j] + noise * z[2 * j + 1]);
            }
        }
    }
}

} // namespace aib::data
