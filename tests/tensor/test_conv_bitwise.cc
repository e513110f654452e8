/**
 * @file
 * conv2d and convTranspose2d, forward and backward, byte for byte
 * against the explicit decomposition they replaced: per sample,
 * im2col into a column buffer, detail::gemm on it, and col2im back,
 * with the batch split across the global pool's chunks and dW summed
 * per chunk then merged in chunk order. The production ops pack the
 * GEMM's panels straight from the image instead; every panel holds the
 * same values in the same layout, so every output must match with
 * memcmp, for every backend and thread count.
 *
 * The shapes leave one GEMM block in each dimension (K > 256,
 * Ho*Wo > 1024, F > 96, C*K*K > 1024), cover strided, 1x1 and 5x5
 * windows with padding, and use batches of 1 and 5 so chunks come out
 * uneven. Stride-1 output widths of 1 to 32 give image panels made of
 * equal runs of every length that divides a backend's panel width,
 * which are packed with fixed-size copies; width 12 and a stride-2
 * shape keep the general packing loop covered.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/detail/gemm.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace {

using aib::Rng;
using aib::Shape;
using aib::Tensor;
using aib::core::ThreadPool;
using aib::ops::detail::availableGemmBackends;
using aib::ops::detail::gemm;
using aib::ops::detail::GemmBackend;
using aib::ops::detail::gemmBackendName;
using aib::ops::detail::setGemmBackend;

/** Reference im2col of one (C, H, W) sample into (C*K*K, Ho*Wo). */
void
im2col(const float *x, float *col, std::int64_t c, std::int64_t h,
       std::int64_t w, int kernel, int stride, int padding,
       std::int64_t ho, std::int64_t wo)
{
    for (std::int64_t ch = 0; ch < c; ++ch)
        for (int ki = 0; ki < kernel; ++ki)
            for (int kj = 0; kj < kernel; ++kj) {
                float *dst =
                    col + ((ch * kernel + ki) * kernel + kj) * ho * wo;
                for (std::int64_t oi = 0; oi < ho; ++oi)
                    for (std::int64_t oj = 0; oj < wo; ++oj) {
                        const std::int64_t ii = oi * stride - padding + ki;
                        const std::int64_t jj = oj * stride - padding + kj;
                        dst[oi * wo + oj] =
                            ii < 0 || ii >= h || jj < 0 || jj >= w
                                ? 0.0f
                                : x[(ch * h + ii) * w + jj];
                    }
            }
}

/** Reference col2im: x (C, H, W) += scatter of col, same order. */
void
col2im(const float *col, float *x, std::int64_t c, std::int64_t h,
       std::int64_t w, int kernel, int stride, int padding,
       std::int64_t ho, std::int64_t wo)
{
    for (std::int64_t ch = 0; ch < c; ++ch)
        for (int ki = 0; ki < kernel; ++ki)
            for (int kj = 0; kj < kernel; ++kj) {
                const float *src =
                    col + ((ch * kernel + ki) * kernel + kj) * ho * wo;
                for (std::int64_t oi = 0; oi < ho; ++oi)
                    for (std::int64_t oj = 0; oj < wo; ++oj) {
                        const std::int64_t ii = oi * stride - padding + ki;
                        const std::int64_t jj = oj * stride - padding + kj;
                        if (ii >= 0 && ii < h && jj >= 0 && jj < w)
                            x[(ch * h + ii) * w + jj] += src[oi * wo + oj];
                    }
            }
}

/**
 * One sample of a conv: image (c, h, w) seen through a kernel window
 * onto a (ho, wo) grid. For convTranspose2d the roles swap: the image
 * is its output and the grid its input.
 */
struct View {
    std::int64_t c, h, w;
    int kernel, stride, padding;
    std::int64_t ho, wo;
    std::int64_t ckk() const { return c * kernel * kernel; }
    std::int64_t cols() const { return ho * wo; }
    std::int64_t image() const { return c * h * w; }
};

/** out[s] (f, cols) += w (f, ckk) * im2col(x[s]). */
void
refForward(const float *w, const float *x, float *out, std::int64_t n,
           std::int64_t f, const View &v)
{
    ThreadPool::global().parallelForChunked(
        0, n, 1, [&](int, std::int64_t b0, std::int64_t b1) {
            std::vector<float> col(
                static_cast<std::size_t>(v.ckk() * v.cols()));
            for (std::int64_t i = b0; i < b1; ++i) {
                im2col(x + i * v.image(), col.data(), v.c, v.h, v.w,
                       v.kernel, v.stride, v.padding, v.ho, v.wo);
                gemm(w, col.data(), out + i * f * v.cols(), f, v.cols(),
                     v.ckk(), false, false);
            }
        });
}

/** gw (f, ckk) += sum of g[s] * im2col(x[s])^T, per-chunk partials. */
void
refWeightGrad(const float *g, const float *x, float *gw, std::int64_t n,
              std::int64_t f, const View &v)
{
    ThreadPool &pool = ThreadPool::global();
    std::vector<std::vector<float>> parts(
        static_cast<std::size_t>(std::max(1, pool.numChunks(n, 1))));
    pool.parallelForChunked(
        0, n, 1, [&](int chunk, std::int64_t b0, std::int64_t b1) {
            std::vector<float> col(
                static_cast<std::size_t>(v.ckk() * v.cols()));
            std::vector<float> &part =
                parts[static_cast<std::size_t>(chunk)];
            part.assign(static_cast<std::size_t>(f * v.ckk()), 0.0f);
            for (std::int64_t i = b0; i < b1; ++i) {
                im2col(x + i * v.image(), col.data(), v.c, v.h, v.w,
                       v.kernel, v.stride, v.padding, v.ho, v.wo);
                gemm(g + i * f * v.cols(), col.data(), part.data(), f,
                     v.ckk(), v.cols(), false, true);
            }
        });
    for (const std::vector<float> &part : parts)
        for (std::size_t j = 0; j < part.size(); ++j)
            gw[j] += part[j];
}

/** gx[s] += col2im(w^T * g[s]). */
void
refDataGrad(const float *w, const float *g, float *gx, std::int64_t n,
            std::int64_t f, const View &v)
{
    ThreadPool::global().parallelForChunked(
        0, n, 1, [&](int, std::int64_t b0, std::int64_t b1) {
            std::vector<float> col(
                static_cast<std::size_t>(v.ckk() * v.cols()));
            for (std::int64_t i = b0; i < b1; ++i) {
                std::fill(col.begin(), col.end(), 0.0f);
                gemm(w, g + i * f * v.cols(), col.data(), v.ckk(),
                     v.cols(), f, true, false);
                col2im(col.data(), gx + i * v.image(), v.c, v.h, v.w,
                       v.kernel, v.stride, v.padding, v.ho, v.wo);
            }
        });
}

/** Bias gradient: per-filter sums of g, as the ops compute them. */
std::vector<float>
refBiasGrad(const Tensor &g)
{
    const std::int64_t n = g.dim(0), f = g.dim(1);
    const std::int64_t hw = g.dim(2) * g.dim(3);
    std::vector<float> gb(static_cast<std::size_t>(f), 0.0f);
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t ff = 0; ff < f; ++ff) {
            const float *row = g.data() + (i * f + ff) * hw;
            float acc = 0.0f;
            for (std::int64_t j = 0; j < hw; ++j)
                acc += row[j];
            gb[static_cast<std::size_t>(ff)] += acc;
        }
    return gb;
}

struct Case {
    const char *what;
    std::int64_t n, c, h, w, f;
    int kernel, stride, padding;
};

const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = {
        {"C*K*K=288: two K blocks", 5, 32, 6, 6, 8, 3, 1, 1},
        {"Ho*Wo=1156: two N blocks", 1, 2, 34, 34, 4, 3, 1, 1},
        {"F=100: two M blocks", 5, 3, 5, 5, 100, 3, 1, 1},
        {"C*K*K=1080: two dW N blocks", 2, 120, 4, 4, 3, 3, 1, 1},
        {"stride 2, padding 1", 5, 4, 9, 9, 6, 3, 2, 1},
        {"1x1, stride 2", 1, 5, 8, 8, 7, 1, 2, 0},
        {"5x5, padding 2", 5, 3, 7, 7, 4, 5, 1, 2},
        // Stride-1 output widths 1..32: panels of equal runs of each
        // length a backend's NR (8, 16, 32) packs with fixed copies,
        // and a 1x1 window whose whole panel is one run.
        {"width 1: runs of 1", 2, 3, 5, 1, 4, 3, 1, 1},
        {"width 2: runs of 2", 2, 3, 5, 2, 4, 3, 1, 1},
        {"width 4: runs of 4", 2, 3, 5, 4, 4, 3, 1, 1},
        {"width 8: runs of 8", 2, 3, 5, 8, 4, 3, 1, 1},
        {"width 16: runs of 16", 2, 3, 3, 16, 4, 3, 1, 1},
        {"width 32: runs of 32", 2, 3, 3, 32, 4, 3, 1, 1},
        {"1x1, stride 1: one run per panel", 2, 3, 7, 9, 4, 1, 1, 0},
        {"width 12: ragged runs", 2, 3, 5, 12, 4, 3, 1, 1},
        {"width 16, stride 2", 2, 3, 16, 16, 4, 3, 2, 1},
    };
    return all;
}

/** Every output of @p got equals @p want byte for byte. */
void
expectBitwise(const Tensor &got, const std::vector<float> &want,
              const std::string &what)
{
    ASSERT_EQ(static_cast<std::size_t>(got.numel()), want.size()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << what;
}

/** Run the op with autograd; upstream gradient r (loss = sum(y*r)). */
struct OpRun {
    Tensor y, gx, gw, gb, r;
};

OpRun
runOp(bool transposed, const Tensor &x0, const Tensor &w0,
      const Tensor &b0, const Case &cc, Rng &rng)
{
    Tensor x = x0.clone(), w = w0.clone(), b = b0.clone();
    x.setRequiresGrad(true);
    w.setRequiresGrad(true);
    b.setRequiresGrad(true);
    Tensor y = transposed
                   ? aib::ops::convTranspose2d(x, w, b, cc.stride,
                                               cc.padding)
                   : aib::ops::conv2d(x, w, b, cc.stride, cc.padding);
    Tensor r = Tensor::rand(y.shape(), rng, -1.0f, 1.0f);
    aib::ops::sum(aib::ops::mul(y, r)).backward();
    return {y, x.grad(), w.grad(), b.grad(), r};
}

class ConvBitwise : public ::testing::TestWithParam<bool>
{
  protected:
    ~ConvBitwise() override
    {
        setGemmBackend(GemmBackend::Auto);
        ThreadPool::setGlobalThreads(0);
    }
};

TEST_P(ConvBitwise, MatchesExplicitIm2colGemmCol2im)
{
    const bool transposed = GetParam();
    for (const Case &cc : cases()) {
        // conv2d: image = input, grid = output. convTranspose2d: the
        // image is its (F, Ho, Wo) output, the grid its (H, W) input,
        // and its C input channels are the GEMM's filters.
        View v{};
        std::int64_t filters = 0;
        Shape wshape;
        if (!transposed) {
            v = {cc.c, cc.h, cc.w, cc.kernel, cc.stride, cc.padding,
                 (cc.h + 2 * cc.padding - cc.kernel) / cc.stride + 1,
                 (cc.w + 2 * cc.padding - cc.kernel) / cc.stride + 1};
            filters = cc.f;
            wshape = {cc.f, cc.c, cc.kernel, cc.kernel};
        } else {
            v = {cc.f,
                 (cc.h - 1) * cc.stride - 2 * cc.padding + cc.kernel,
                 (cc.w - 1) * cc.stride - 2 * cc.padding + cc.kernel,
                 cc.kernel,
                 cc.stride,
                 cc.padding,
                 cc.h,
                 cc.w};
            filters = cc.c;
            wshape = {cc.c, cc.f, cc.kernel, cc.kernel};
        }
        Rng rng(static_cast<std::uint64_t>(cc.c * 131 + cc.f * 7 +
                                           cc.kernel + transposed));
        const Tensor x =
            Tensor::rand({cc.n, cc.c, cc.h, cc.w}, rng, -1.0f, 1.0f);
        const Tensor w = Tensor::rand(wshape, rng, -1.0f, 1.0f);
        const Tensor b = Tensor::rand({cc.f}, rng, -1.0f, 1.0f);

        for (const GemmBackend backend : availableGemmBackends()) {
            ASSERT_TRUE(setGemmBackend(backend));
            for (const int threads : {1, 2, 7}) {
                ThreadPool::setGlobalThreads(threads);
                const std::string what =
                    std::string(transposed ? "convTranspose2d " : "conv2d ") +
                    cc.what + ", " + std::string(gemmBackendName(backend)) +
                    ", threads=" + std::to_string(threads);
                Rng grng(17);
                const OpRun got = runOp(transposed, x, w, b, cc, grng);
                const float *pg = got.r.data();

                // The reference, on the same backend and pool.
                std::vector<float> y(static_cast<std::size_t>(got.y.numel()),
                                     0.0f);
                std::vector<float> gx(static_cast<std::size_t>(x.numel()),
                                      0.0f);
                std::vector<float> gw(static_cast<std::size_t>(w.numel()),
                                      0.0f);
                if (!transposed) {
                    refForward(w.data(), x.data(), y.data(), cc.n, filters,
                               v);
                    refWeightGrad(pg, x.data(), gw.data(), cc.n, filters,
                                  v);
                    refDataGrad(w.data(), pg, gx.data(), cc.n, filters, v);
                } else {
                    refDataGrad(w.data(), x.data(), y.data(), cc.n, filters,
                                v);
                    refForward(w.data(), pg, gx.data(), cc.n, filters, v);
                    refWeightGrad(x.data(), pg, gw.data(), cc.n, filters,
                                  v);
                }
                const std::int64_t hw = got.y.dim(2) * got.y.dim(3);
                for (std::int64_t i = 0; i < cc.n; ++i)
                    for (std::int64_t ff = 0; ff < cc.f; ++ff)
                        for (std::int64_t j = 0; j < hw; ++j)
                            y[static_cast<std::size_t>((i * cc.f + ff) * hw +
                                                       j)] +=
                                b.data()[ff];

                expectBitwise(got.y, y, what + ": forward");
                expectBitwise(got.gx, gx, what + ": dX");
                expectBitwise(got.gw, gw, what + ": dW");
                expectBitwise(got.gb, refBiasGrad(got.r), what + ": bias");
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, ConvBitwise, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "ConvTranspose2d"
                                               : "Conv2d";
                         });

} // namespace
