/**
 * @file
 * ISA-specific instantiations of the blocked GEMM kernel.
 *
 * The same implementation (gemm_blocked.inc) is compiled once per
 * SIMD level — the portable baseline plus, on x86-64, AVX2+FMA and
 * AVX-512 translation units built with the matching -m flags — and
 * gemm_backend.cc picks the widest one the running CPU supports via
 * __builtin_cpu_supports. This keeps the default Release binary
 * portable while still using the full vector width of the host
 * (OpenBLAS-style dynamic dispatch). Each instantiation exports one
 * table holding gemm() and the three conv entries, so a backend
 * switch moves all four together. Not part of the public API.
 */

#ifndef AIB_TENSOR_DETAIL_GEMM_KERNELS_H
#define AIB_TENSOR_DETAIL_GEMM_KERNELS_H

#include <cstdint>

namespace aib::core {
class ThreadPool;
}

namespace aib::ops::detail {

struct ConvGeometry;

/** One SIMD level's entry points (see gemm.h); pools are never null. */
struct GemmKernels {
    void (*gemm)(const float *a, const float *b, float *c, std::int64_t m,
                 std::int64_t n, std::int64_t k, bool trans_a,
                 bool trans_b, core::ThreadPool &pool);
    void (*convForward)(const float *w, const float *x, float *out,
                        std::int64_t n, std::int64_t f,
                        const ConvGeometry &geo, core::ThreadPool &pool);
    void (*convWeightGrad)(const float *g, const float *x, float *gw,
                           std::int64_t n, std::int64_t f,
                           const ConvGeometry &geo,
                           core::ThreadPool &pool);
    void (*convDataGrad)(const float *w, const float *g, float *gx,
                         std::int64_t n, std::int64_t f,
                         const ConvGeometry &geo, core::ThreadPool &pool);
};

/**
 * x (channels, height, width) += col2im(col): every element of the
 * (C*K*K, Ho*Wo) column matrix added onto the pixel it was read from,
 * in (ch, ki, kj, oi, oj) order; parallel across channels. The data
 * gradient's scatter pass, shared by every kernel table and compiled
 * once at the baseline ISA (gemm_backend.cc). Built in the AVX-512
 * unit, GCC 12 copied registers through zmm and returned without a
 * vzeroupper; the dirty upper state then slowed all later SSE code,
 * so that C1's training epoch took about twice as long.
 */
void col2imAdd(const float *col, const ConvGeometry &geo, float *x,
               core::ThreadPool &pool);

extern const GemmKernels kGemmKernelsGeneric;

#if defined(AIB_GEMM_X86_VARIANTS)
extern const GemmKernels kGemmKernelsAvx2;
extern const GemmKernels kGemmKernelsAvx512;
#endif

} // namespace aib::ops::detail

#endif // AIB_TENSOR_DETAIL_GEMM_KERNELS_H
