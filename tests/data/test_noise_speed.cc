/**
 * @file
 * Speed guard for the generators' pixel noise.
 *
 * data::addClampedNoise must beat the loop it replaced, one
 * std::normal_distribution<float> built per draw on std::mt19937_64
 * and a std::clamp per pixel, by at least 1.5x on a mostly-background
 * 3x32x32 image (about 2x measured on a 4-vCPU AVX-512 VM, GCC 12,
 * Release). The per-draw loop pays for the library engine's branchy
 * word-to-float conversion and for a clamp branch that mispredicts on
 * background pixels, where half the noise is negative. Each side's
 * time is the best of 5 interleaved rounds and the two are compared
 * as a ratio, so a noisy host slows both alike.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "data/noise.h"

namespace aib::data {
namespace {

using Clock = std::chrono::steady_clock;

TEST(NoiseSpeed, BlockHelperBeatsThePerDrawLoopByHalfAgain)
{
    constexpr std::int64_t n = 3 * 32 * 32;
    constexpr int images = 300;
    constexpr int rounds = 5;
    constexpr float noise = 0.1f;
    // A bright square over about a tenth of each plane, as a shape
    // generator draws it; the rest is zero background.
    std::vector<float> image(static_cast<std::size_t>(n), 0.0f);
    for (int c = 0; c < 3; ++c)
        for (int y = 12; y < 22; ++y)
            for (int x = 12; x < 22; ++x)
                image[static_cast<std::size_t>((c * 32 + y) * 32 + x)] = 0.8f;

    std::vector<float> work(image.size());
    Rng rng(1);
    std::mt19937_64 engine(1);
    double helper = std::numeric_limits<double>::infinity();
    double loop = helper;
    double checksum = 0.0;
    for (int r = 0; r < rounds; ++r) {
        auto t0 = Clock::now();
        for (int k = 0; k < images; ++k) {
            std::copy(image.begin(), image.end(), work.begin());
            addClampedNoise(rng, noise, n, work.data());
            checksum += work[static_cast<std::size_t>(k % n)];
        }
        helper = std::min(
            helper, std::chrono::duration<double>(Clock::now() - t0).count());

        t0 = Clock::now();
        for (int k = 0; k < images; ++k) {
            std::copy(image.begin(), image.end(), work.begin());
            for (float &p : work)
                p = std::clamp(
                    p + noise * std::normal_distribution<float>(0.0f, 1.0f)(
                                    engine),
                    0.0f, 1.0f);
            checksum += work[static_cast<std::size_t>(k % n)];
        }
        loop = std::min(
            loop, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    const double per_pixel = 1e9 / (static_cast<double>(images) * n);
    RecordProperty("helper_ns_per_pixel",
                   std::to_string(helper * per_pixel));
    RecordProperty("per_draw_loop_ns_per_pixel",
                   std::to_string(loop * per_pixel));
    EXPECT_GT(checksum, 0.0);
    EXPECT_GE(loop / helper, 1.5)
        << "helper " << helper * per_pixel << " ns/pixel, per-draw loop "
        << loop * per_pixel << " ns/pixel";
}

} // namespace
} // namespace aib::data
