/**
 * @file
 * Entry points of the GEMM backend (see detail/gemm.h): gemm() and the
 * three conv entries dispatch to the widest blocked-kernel
 * instantiation the running CPU supports (detail/gemm_kernels.h); the
 * naive triple-loop reference stays for tests and baseline benchmarks.
 */

#include "tensor/detail/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "core/thread_pool.h"
#include "tensor/detail/gemm_kernels.h"

namespace aib::ops::detail {

namespace {

/** The kernel Auto resolves to: widest ISA the host supports. */
GemmBackend
pickAutoBackend()
{
#if defined(AIB_GEMM_X86_VARIANTS)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("fma"))
        return GemmBackend::Avx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return GemmBackend::Avx2;
#endif
    return GemmBackend::Generic;
}

/** Kernels of a concrete (non-Auto) backend, or nullptr when the
 * backend is not compiled in or the CPU lacks the ISA. */
const GemmKernels *
kernelFor(GemmBackend backend)
{
    switch (backend) {
      case GemmBackend::Generic:
        return &kGemmKernelsGeneric;
#if defined(AIB_GEMM_X86_VARIANTS)
      case GemmBackend::Avx2:
        if (__builtin_cpu_supports("avx2") &&
            __builtin_cpu_supports("fma"))
            return &kGemmKernelsAvx2;
        return nullptr;
      case GemmBackend::Avx512:
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("fma"))
            return &kGemmKernelsAvx512;
        return nullptr;
#endif
      default:
        return nullptr;
    }
}

// Dispatch state. The requested backend and the resolved kernel table
// are separate atomics so every entry pays exactly one relaxed load on
// the hot path; setGemmBackend writes both under no lock (last writer
// wins, and both words are individually consistent).
std::atomic<int> g_requested{static_cast<int>(GemmBackend::Auto)};
std::atomic<const GemmKernels *> g_kernels{nullptr};

/** One-time env application, piggy-backed on first dispatch. */
bool
envApplied()
{
    static const bool applied = [] {
        applyGemmBackendFromEnv();
        return true;
    }();
    return applied;
}

/** The kernel table every entry point dispatches through. */
const GemmKernels &
activeKernels()
{
    envApplied();
    const GemmKernels *kernels =
        g_kernels.load(std::memory_order_relaxed);
    if (!kernels) {
        kernels = kernelFor(pickAutoBackend());
        g_kernels.store(kernels, std::memory_order_relaxed);
    }
    return *kernels;
}

} // namespace

std::string_view
gemmBackendName(GemmBackend backend)
{
    switch (backend) {
      case GemmBackend::Auto: return "auto";
      case GemmBackend::Generic: return "generic";
      case GemmBackend::Avx2: return "avx2";
      case GemmBackend::Avx512: return "avx512";
    }
    return "unknown";
}

bool
parseGemmBackend(std::string_view name, GemmBackend *out)
{
    for (const GemmBackend b :
         {GemmBackend::Auto, GemmBackend::Generic, GemmBackend::Avx2,
          GemmBackend::Avx512}) {
        if (name == gemmBackendName(b)) {
            *out = b;
            return true;
        }
    }
    return false;
}

bool
setGemmBackend(GemmBackend backend)
{
    const GemmBackend concrete =
        backend == GemmBackend::Auto ? pickAutoBackend() : backend;
    const GemmKernels *kernels = kernelFor(concrete);
    if (!kernels)
        return false;
    g_requested.store(static_cast<int>(backend),
                      std::memory_order_relaxed);
    g_kernels.store(kernels, std::memory_order_relaxed);
    return true;
}

GemmBackend
gemmBackend()
{
    envApplied();
    return static_cast<GemmBackend>(
        g_requested.load(std::memory_order_relaxed));
}

GemmBackend
resolvedGemmBackend()
{
    const GemmBackend requested = gemmBackend();
    return requested == GemmBackend::Auto ? pickAutoBackend()
                                          : requested;
}

std::vector<GemmBackend>
availableGemmBackends()
{
    std::vector<GemmBackend> out;
    for (const GemmBackend b : {GemmBackend::Generic, GemmBackend::Avx2,
                                GemmBackend::Avx512}) {
        if (kernelFor(b))
            out.push_back(b);
    }
    return out;
}

bool
applyGemmBackendFromEnv()
{
    const char *env = std::getenv("AIBENCH_GEMM_BACKEND");
    if (!env || env[0] == '\0')
        return true;
    GemmBackend backend;
    if (!parseGemmBackend(env, &backend)) {
        std::fprintf(stderr,
                     "aibench: ignoring unknown AIBENCH_GEMM_BACKEND "
                     "'%s' (valid: auto, generic, avx2, avx512)\n",
                     env);
        return false;
    }
    if (!setGemmBackend(backend)) {
        std::fprintf(stderr,
                     "aibench: AIBENCH_GEMM_BACKEND '%s' is not "
                     "available on this build/CPU; keeping '%s'\n",
                     env,
                     std::string(gemmBackendName(resolvedGemmBackend()))
                         .c_str());
        return false;
    }
    return true;
}

void
gemm(const float *a, const float *b, float *c, std::int64_t m,
     std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
     core::ThreadPool *pool)
{
    if (m <= 0 || n <= 0 || k <= 0)
        return;
    activeKernels().gemm(a, b, c, m, n, k, trans_a, trans_b,
                         pool ? *pool : core::ThreadPool::global());
}

void
convForward(const float *w, const float *x, float *out, std::int64_t n,
            std::int64_t f, const ConvGeometry &geo)
{
    if (n <= 0 || f <= 0)
        return;
    activeKernels().convForward(w, x, out, n, f, geo,
                                core::ThreadPool::global());
}

void
convWeightGrad(const float *g, const float *x, float *gw, std::int64_t n,
               std::int64_t f, const ConvGeometry &geo)
{
    if (n <= 0 || f <= 0)
        return;
    activeKernels().convWeightGrad(g, x, gw, n, f, geo,
                                   core::ThreadPool::global());
}

void
convDataGrad(const float *w, const float *g, float *gx, std::int64_t n,
             std::int64_t f, const ConvGeometry &geo)
{
    if (n <= 0 || f <= 0)
        return;
    activeKernels().convDataGrad(w, g, gx, n, f, geo,
                                 core::ThreadPool::global());
}

void
col2imAdd(const float *col, const ConvGeometry &g, float *x,
          core::ThreadPool &pool)
{
    // The o in [0, out) with 0 <= o*stride + d < len: the output rows
    // (columns) whose pixel lies inside the image for kernel offset d.
    const auto inside = [&g](std::int64_t d, std::int64_t len,
                             std::int64_t out, std::int64_t *lo,
                             std::int64_t *hi) {
        *lo = std::min(out, d >= 0 ? 0 : (-d + g.stride - 1) / g.stride);
        *hi = len - d <= 0 ? 0
                           : std::min(out, (len - 1 - d) / g.stride + 1);
        *hi = std::max(*hi, *lo);
    };
    const int k = g.kernel;
    const std::int64_t cols = g.outHeight * g.outWidth;
    pool.parallelFor(0, g.channels, 1, [&](std::int64_t c0,
                                           std::int64_t c1) {
        for (std::int64_t ch = c0; ch < c1; ++ch)
            for (int ki = 0; ki < k; ++ki) {
                std::int64_t oi_lo, oi_hi;
                inside(ki - g.padding, g.height, g.outHeight, &oi_lo,
                       &oi_hi);
                for (int kj = 0; kj < k; ++kj) {
                    std::int64_t oj_lo, oj_hi;
                    inside(kj - g.padding, g.width, g.outWidth, &oj_lo,
                           &oj_hi);
                    const float *src = col + ((ch * k + ki) * k + kj) * cols;
                    const std::int64_t dx = kj - g.padding;
                    for (std::int64_t oi = oi_lo; oi < oi_hi; ++oi) {
                        // Start of the image row this output row reads.
                        float *dst = x + (ch * g.height + oi * g.stride +
                                          ki - g.padding) *
                                             g.width;
                        const float *srow = src + oi * g.outWidth;
                        for (std::int64_t oj = oj_lo; oj < oj_hi; ++oj)
                            dst[oj * g.stride + dx] += srow[oj];
                    }
                }
            }
    });
}

void
gemmNaive(const float *a, const float *b, float *c, std::int64_t m,
          std::int64_t n, std::int64_t k, bool trans_a, bool trans_b)
{
    if (!trans_a && !trans_b) {
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = a[i * k + p];
                if (av == 0.0f)
                    continue;
                const float *brow = b + p * n;
                float *crow = c + i * n;
                for (std::int64_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    } else if (!trans_a && trans_b) {
        for (std::int64_t i = 0; i < m; ++i) {
            const float *arow = a + i * k;
            float *crow = c + i * n;
            for (std::int64_t j = 0; j < n; ++j) {
                const float *brow = b + j * k;
                float acc = 0.0f;
                for (std::int64_t p = 0; p < k; ++p)
                    acc += arow[p] * brow[p];
                crow[j] += acc;
            }
        }
    } else if (trans_a && !trans_b) {
        for (std::int64_t p = 0; p < k; ++p) {
            const float *arow = a + p * m;
            const float *brow = b + p * n;
            for (std::int64_t i = 0; i < m; ++i) {
                const float av = arow[i];
                if (av == 0.0f)
                    continue;
                float *crow = c + i * n;
                for (std::int64_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    } else {
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (std::int64_t p = 0; p < k; ++p)
                    acc += a[p * m + i] * b[j * k + p];
                c[i * n + j] += acc;
            }
        }
    }
}

} // namespace aib::ops::detail
