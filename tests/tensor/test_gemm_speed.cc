/**
 * @file
 * Speed guards for the GEMM backends.
 *
 * Every backend this host can run must be at least as fast as the
 * portable `generic` kernel at 256^3. A wider SIMD kernel that loses
 * to the baseline is broken for speed even when its results are
 * right: the auto-vectorized AVX2 kernel ran at 0.1x generic because
 * GCC kept its accumulator tile in xmm registers and spilled it every
 * k step. Each backend's time is the best of several runs on a
 * one-thread pool, taken in interleaved rounds, and backends are
 * compared as a ratio, so a noisy host slows both sides alike.
 *
 * Every entry point must also return with the upper halves of the
 * vector registers clean. A kernel that leaves them dirty slows all
 * later baseline-ISA code without changing a result: with col2im
 * built in the AVX-512 unit, C1's training epoch took about twice as
 * long, most of the extra in the data generator's libm calls.
 */

#include <gtest/gtest.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/detail/gemm.h"

namespace {

using aib::core::ThreadPool;
using aib::ops::detail::availableGemmBackends;
using aib::ops::detail::gemm;
using aib::ops::detail::GemmBackend;
using aib::ops::detail::gemmBackendName;
using aib::ops::detail::setGemmBackend;

TEST(GemmSpeed, EveryBackendIsAtLeastAsFastAsGenericAt256)
{
    constexpr std::int64_t n = 256;
    constexpr int rounds = 20;
    std::vector<float> a(static_cast<std::size_t>(n * n));
    std::vector<float> b(a.size());
    std::vector<float> c(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<float>(static_cast<int>(i * 37 % 101) - 50) /
               50.0f;
        b[i] = static_cast<float>(static_cast<int>(i * 53 % 103) - 51) /
               51.0f;
    }
    ThreadPool pool(1);
    const std::vector<GemmBackend> backends = availableGemmBackends();
    std::map<GemmBackend, double> best;
    for (int r = 0; r < rounds; ++r) {
        for (const GemmBackend backend : backends) {
            ASSERT_TRUE(setGemmBackend(backend));
            const auto t0 = std::chrono::steady_clock::now();
            gemm(a.data(), b.data(), c.data(), n, n, n, false, false,
                 &pool);
            const double s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
            if (best.count(backend) == 0 || s < best[backend])
                best[backend] = s;
        }
    }
    setGemmBackend(GemmBackend::Auto);

    const double generic = best.at(GemmBackend::Generic);
    for (const GemmBackend backend : backends) {
        const double speedup = generic / best.at(backend);
        const double gflops = 2.0 * n * n * n / best.at(backend) * 1e-9;
        RecordProperty(std::string(gemmBackendName(backend)) + "_gflops",
                       std::to_string(gflops));
        EXPECT_GE(speedup, 1.0)
            << gemmBackendName(backend) << " runs 256^3 at " << speedup
            << "x generic (" << gflops << " GFLOP/s, best of " << rounds
            << " on one thread)";
    }
}

#if defined(__x86_64__)
/**
 * XINUSE bits 2 and 6: the upper halves of ymm0-15 and of zmm0-15 hold
 * state. While either is set, every legacy-SSE instruction (all of the
 * baseline-ISA code, libm included) pays a transition penalty or a
 * false dependency. Returns false when the CPU cannot report XINUSE.
 */
bool
upperStateInUse(bool *in_use)
{
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid_count(0xd, 1, &a, &b, &c, &d) || !(a & (1u << 2)))
        return false;
    unsigned lo = 0, hi = 0;
    asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
    *in_use = (lo & ((1u << 2) | (1u << 6))) != 0;
    return true;
}

TEST(GemmSpeed, KernelsReturnWithCleanUpperVectorState)
{
    bool in_use = false;
    if (!upperStateInUse(&in_use))
        GTEST_SKIP() << "CPU does not report XINUSE (XGETBV ECX=1)";
    using namespace aib::ops::detail;
    const ConvGeometry geo{4, 9, 9, 3, 1, 1, 9, 9};
    const std::int64_t n = 3, f = 6, ckk = 4 * 3 * 3, cols = 9 * 9;
    std::vector<float> x(static_cast<std::size_t>(n * 4 * 9 * 9), 0.5f);
    std::vector<float> w(static_cast<std::size_t>(f * ckk), 0.25f);
    std::vector<float> y(static_cast<std::size_t>(n * f * cols), 0.0f);
    std::vector<float> gw(w.size(), 0.0f), gx(x.size(), 0.0f);
    ThreadPool::setGlobalThreads(1);
    for (const GemmBackend backend : availableGemmBackends()) {
        ASSERT_TRUE(setGemmBackend(backend));
        const auto expect_clean = [&](const char *what) {
            ASSERT_TRUE(upperStateInUse(&in_use));
            EXPECT_FALSE(in_use)
                << what << " on " << gemmBackendName(backend)
                << " returned with dirty upper vector state";
        };
        gemm(w.data(), x.data(), y.data(), f, cols, ckk, false, false);
        expect_clean("gemm");
        convForward(w.data(), x.data(), y.data(), n, f, geo);
        expect_clean("convForward");
        convWeightGrad(y.data(), x.data(), gw.data(), n, f, geo);
        expect_clean("convWeightGrad");
        convDataGrad(w.data(), y.data(), gx.data(), n, f, geo);
        expect_clean("convDataGrad");
    }
    setGemmBackend(GemmBackend::Auto);
    ThreadPool::setGlobalThreads(0);
}
#endif

} // namespace
