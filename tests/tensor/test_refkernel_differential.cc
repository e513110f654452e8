/**
 * @file
 * Differential checks of every dispatched production backend against
 * the double-precision references in testing/refkernels.h.
 *
 * The GEMM sweep runs each compiled-in kernel (generic, and AVX2 /
 * AVX-512 when the host supports them) under thread pools of size 1,
 * 2 and 7, across all four transpose variants and a shape set that
 * includes ragged and degenerate sizes (1x1x1, single rows/columns,
 * K far larger than M*N, primes straddling the micro-tile). The
 * op-level sweeps (conv, batch norm, softmax, reductions, attention)
 * re-run the ops under every forced GEMM backend and global thread
 * count. ULP budgets are documented in docs/TESTING.md.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/detail/gemm.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"
#include "testing/refkernels.h"

namespace {

using aib::Rng;
using aib::Tensor;
using aib::core::ThreadPool;
using aib::ops::detail::availableGemmBackends;
using aib::ops::detail::gemm;
using aib::ops::detail::GemmBackend;
using aib::ops::detail::gemmBackendName;
using aib::ops::detail::setGemmBackend;
using namespace aib::testing;

struct GemmShape {
    std::int64_t m, n, k;
};

/** Ragged, degenerate and micro-tile-straddling shapes. */
const std::vector<GemmShape> &
edgeShapes()
{
    static const std::vector<GemmShape> shapes = {
        {1, 1, 1},   {1, 5, 1},    {2, 1, 3},
        {3, 3, 4},   {5, 130, 3},  {1, 1, 257},
        {31, 33, 7}, {64, 64, 64}, {97, 65, 130},
    };
    return shapes;
}

/** The edge set plus seeded random draws up to the blocked regime. */
std::vector<GemmShape>
sweepShapes()
{
    std::vector<GemmShape> shapes = edgeShapes();
    Rng rng(20260807);
    for (int i = 0; i < 12; ++i) {
        shapes.push_back({rng.uniformInt(1, 140), rng.uniformInt(1, 140),
                          rng.uniformInt(1, 200)});
    }
    return shapes;
}

std::string
caseLabel(GemmBackend backend, int threads, const GemmShape &s,
          bool ta, bool tb)
{
    return std::string(gemmBackendName(backend)) + " threads=" +
           std::to_string(threads) + " m=" + std::to_string(s.m) +
           " n=" + std::to_string(s.n) + " k=" + std::to_string(s.k) +
           " ta=" + std::to_string(ta) + " tb=" + std::to_string(tb);
}

/** RAII restore of the forced backend and global pool size. */
struct DispatchGuard {
    ~DispatchGuard()
    {
        setGemmBackend(GemmBackend::Auto);
        ThreadPool::setGlobalThreads(0);
    }
};

TEST(RefKernelDifferential, GemmAllBackendsThreadsAndVariants)
{
    const std::vector<GemmShape> shapes = sweepShapes();
    const std::vector<GemmBackend> backends = availableGemmBackends();
    ASSERT_FALSE(backends.empty());

    for (const GemmShape &s : shapes) {
        std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
        std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
        Rng rng(static_cast<std::uint64_t>(
            s.m * 1000003 + s.n * 733 + s.k));
        for (float &x : a)
            x = rng.uniform(-1.0f, 1.0f);
        for (float &x : b)
            x = rng.uniform(-1.0f, 1.0f);

        for (const bool ta : {false, true}) {
            for (const bool tb : {false, true}) {
                std::vector<double> want;
                refGemm(a.data(), b.data(), want, s.m, s.n, s.k, ta,
                        tb);
                for (const GemmBackend backend : backends) {
                    ASSERT_TRUE(setGemmBackend(backend));
                    for (const int threads : {1, 2, 7}) {
                        ThreadPool pool(threads);
                        std::vector<float> c(
                            static_cast<std::size_t>(s.m * s.n),
                            0.0f);
                        gemm(a.data(), b.data(), c.data(), s.m, s.n,
                             s.k, ta, tb, &pool);
                        expectUlpClose(
                            c.data(), want, accumulationBudget(s.k),
                            caseLabel(backend, threads, s, ta, tb)
                                .c_str());
                    }
                }
                setGemmBackend(GemmBackend::Auto);
            }
        }
    }
}

struct ConvCase {
    std::int64_t n, c, h, w, f;
    int kernel, stride, padding;
};

TEST(RefKernelDifferential, Conv2dAcrossBackendsAndThreads)
{
    aib::NoGradGuard no_grad;
    DispatchGuard restore;
    const std::vector<ConvCase> cases = {
        {1, 1, 1, 1, 1, 1, 1, 0}, // 1x1 image, 1x1 kernel
        {2, 3, 8, 8, 4, 3, 1, 1},
        {1, 2, 7, 7, 3, 3, 2, 0},
        {2, 4, 5, 5, 2, 5, 1, 2},
        // F = 97, C*K*K = 288 and Ho*Wo = 1089 each span two GEMM
        // blocks (MC = 96, KC = 256, NC = 1024).
        {1, 32, 33, 33, 97, 3, 1, 1},
    };
    for (const ConvCase &cc : cases) {
        Rng rng(static_cast<std::uint64_t>(cc.c * 31 + cc.kernel));
        const Tensor x =
            Tensor::rand({cc.n, cc.c, cc.h, cc.w}, rng, -1.0f, 1.0f);
        const Tensor w = Tensor::rand(
            {cc.f, cc.c, cc.kernel, cc.kernel}, rng, -1.0f, 1.0f);
        const Tensor bias = Tensor::rand({cc.f}, rng, -1.0f, 1.0f);
        const std::vector<double> want =
            refConv2d(x, w, bias, cc.stride, cc.padding);
        const UlpBudget budget = accumulationBudget(
            cc.c * cc.kernel * cc.kernel);
        for (const GemmBackend backend : availableGemmBackends()) {
            ASSERT_TRUE(setGemmBackend(backend));
            for (const int threads : {1, 2, 7}) {
                ThreadPool::setGlobalThreads(threads);
                const Tensor got = aib::ops::conv2d(
                    x, w, bias, cc.stride, cc.padding);
                ASSERT_EQ(got.numel(),
                          static_cast<std::int64_t>(want.size()));
                expectUlpClose(
                    got.data(), want, budget,
                    (std::string("conv2d ") +
                     std::string(gemmBackendName(backend)) +
                     " threads=" + std::to_string(threads))
                        .c_str());
            }
        }
    }
}

TEST(RefKernelDifferential, ConvTranspose2dAcrossBackendsAndThreads)
{
    aib::NoGradGuard no_grad;
    DispatchGuard restore;
    const std::vector<ConvCase> cases = {
        {1, 1, 1, 1, 1, 1, 1, 0},
        {2, 3, 4, 4, 2, 3, 2, 1},
        {1, 4, 5, 5, 3, 4, 2, 1},
    };
    for (const ConvCase &cc : cases) {
        Rng rng(static_cast<std::uint64_t>(cc.c * 37 + cc.kernel));
        const Tensor x =
            Tensor::rand({cc.n, cc.c, cc.h, cc.w}, rng, -1.0f, 1.0f);
        const Tensor w = Tensor::rand(
            {cc.c, cc.f, cc.kernel, cc.kernel}, rng, -1.0f, 1.0f);
        const Tensor bias = Tensor::rand({cc.f}, rng, -1.0f, 1.0f);
        const std::vector<double> want =
            refConvTranspose2d(x, w, bias, cc.stride, cc.padding);
        const UlpBudget budget = accumulationBudget(
            cc.c * cc.kernel * cc.kernel);
        for (const GemmBackend backend : availableGemmBackends()) {
            ASSERT_TRUE(setGemmBackend(backend));
            for (const int threads : {1, 2, 7}) {
                ThreadPool::setGlobalThreads(threads);
                const Tensor got = aib::ops::convTranspose2d(
                    x, w, bias, cc.stride, cc.padding);
                ASSERT_EQ(got.numel(),
                          static_cast<std::int64_t>(want.size()));
                expectUlpClose(
                    got.data(), want, budget,
                    (std::string("convT ") +
                     std::string(gemmBackendName(backend)) +
                     " threads=" + std::to_string(threads))
                        .c_str());
            }
        }
    }
}

TEST(RefKernelDifferential, BatchNorm2dAcrossThreads)
{
    aib::NoGradGuard no_grad;
    DispatchGuard restore;
    Rng rng(99);
    const std::vector<aib::Shape> shapes = {
        {1, 1, 1, 1}, {2, 3, 4, 4}, {3, 2, 9, 7}};
    for (const aib::Shape &shape : shapes) {
        const Tensor x = Tensor::rand(shape, rng, -1.0f, 1.0f);
        const Tensor gamma =
            Tensor::rand({shape[1]}, rng, 0.5f, 1.5f);
        const Tensor beta =
            Tensor::rand({shape[1]}, rng, -0.5f, 0.5f);
        const float eps = 1e-5f;
        const std::vector<double> want =
            refBatchNorm2d(x, gamma, beta, eps);
        // Mean/var accumulate over count = N*H*W; normalize adds a
        // handful of extra roundings, hence the +32 tail.
        const std::int64_t count = shape[0] * shape[2] * shape[3];
        const UlpBudget budget{accumulationBudget(count).ulps + 32.0};
        for (const int threads : {1, 2, 7}) {
            ThreadPool::setGlobalThreads(threads);
            const Tensor got =
                aib::ops::batchNorm2d(x, gamma, beta, eps);
            expectUlpClose(got.data(), want, budget,
                           ("batchNorm2d threads=" +
                            std::to_string(threads))
                               .c_str());
        }
    }
}

TEST(RefKernelDifferential, SoftmaxFamilyAcrossThreads)
{
    aib::NoGradGuard no_grad;
    DispatchGuard restore;
    Rng rng(7);
    const std::vector<aib::Shape> shapes = {
        {1, 1}, {1, 7}, {4, 1}, {5, 33}, {2, 3, 17}};
    for (const aib::Shape &shape : shapes) {
        const Tensor x = Tensor::rand(shape, rng, -4.0f, 4.0f);
        const std::vector<double> want_sm = refSoftmax(x);
        const std::vector<double> want_lsm = refLogSoftmax(x);
        for (const int threads : {1, 2, 7}) {
            ThreadPool::setGlobalThreads(threads);
            const Tensor sm = aib::ops::softmax(x);
            const Tensor lsm = aib::ops::logSoftmax(x);
            expectUlpClose(sm.data(), want_sm, UlpBudget{16.0},
                           "softmax");
            expectUlpClose(lsm.data(), want_lsm, UlpBudget{32.0},
                           "logSoftmax");
        }
    }
}

TEST(RefKernelDifferential, ReductionsAcrossThreads)
{
    aib::NoGradGuard no_grad;
    DispatchGuard restore;
    Rng rng(13);
    const std::vector<aib::Shape> shapes = {
        {1}, {257}, {3, 1, 5}, {4, 129}, {2, 3, 31}};
    for (const aib::Shape &shape : shapes) {
        const Tensor x = Tensor::rand(shape, rng, -1.0f, 1.0f);
        const double want_total = refSum(x);
        for (const int threads : {1, 2, 7}) {
            ThreadPool::setGlobalThreads(threads);
            const Tensor total = aib::ops::sum(x);
            expectUlpClose(total.data(), {want_total},
                           accumulationBudget(x.numel()), "sum");
            for (int dim = 0; dim < x.ndim(); ++dim) {
                const std::vector<double> want_sd =
                    refSumDim(x, dim);
                const std::vector<double> want_md =
                    refMeanDim(x, dim);
                const Tensor sd = aib::ops::sumDim(x, dim);
                const Tensor md = aib::ops::meanDim(x, dim);
                const UlpBudget budget =
                    accumulationBudget(x.dim(dim));
                expectUlpClose(sd.data(), want_sd, budget, "sumDim");
                expectUlpClose(md.data(), want_md, budget, "meanDim");
            }
        }
    }
}

TEST(RefKernelDifferential, AttentionMathAcrossBackendsAndThreads)
{
    aib::NoGradGuard no_grad;
    DispatchGuard restore;
    Rng rng(21);
    struct AttnCase {
        std::int64_t b, tq, tk, d;
    };
    const std::vector<AttnCase> cases = {
        {1, 1, 1, 1}, {2, 3, 5, 4}, {1, 7, 7, 16}};
    for (const AttnCase &ac : cases) {
        const Tensor q =
            Tensor::rand({ac.b, ac.tq, ac.d}, rng, -1.0f, 1.0f);
        const Tensor k =
            Tensor::rand({ac.b, ac.tk, ac.d}, rng, -1.0f, 1.0f);
        const Tensor v =
            Tensor::rand({ac.b, ac.tk, ac.d}, rng, -1.0f, 1.0f);
        const std::vector<double> want = refAttention(q, k, v);
        // Two chained accumulations (length D dot, then length Tk
        // mixture) with a softmax in between.
        const UlpBudget budget{
            4.0 * std::sqrt(static_cast<double>(ac.d + ac.tk)) + 32.0};
        const float scale =
            1.0f / std::sqrt(static_cast<float>(ac.d));
        for (const GemmBackend backend : availableGemmBackends()) {
            ASSERT_TRUE(setGemmBackend(backend));
            for (const int threads : {1, 2, 7}) {
                ThreadPool::setGlobalThreads(threads);
                const Tensor scores = aib::ops::mulScalar(
                    aib::ops::bmm(q, aib::ops::transposeLast2(k)),
                    scale);
                const Tensor probs = aib::ops::softmax(scores);
                const Tensor got = aib::ops::bmm(probs, v);
                ASSERT_EQ(got.numel(),
                          static_cast<std::int64_t>(want.size()));
                expectUlpClose(
                    got.data(), want, budget,
                    (std::string("attention ") +
                     std::string(gemmBackendName(backend)) +
                     " threads=" + std::to_string(threads))
                        .c_str());
            }
        }
    }
}

} // namespace
