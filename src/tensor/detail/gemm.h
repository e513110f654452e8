/**
 * @file
 * The single-precision GEMM backend of the tensor substrate.
 *
 * Every workload in the suite funnels through these entry points:
 * gemm() serves matmul and bmm, and the three conv entries serve
 * conv2d and convTranspose2d. It is a proper high-performance CPU GEMM
 * rather than a textbook triple loop: BLIS-style MC/KC/NC cache
 * blocking with packed A/B panels, a register-tiled micro-kernel, and
 * multi-threading over row blocks via core::ThreadPool.
 *
 * The conv entries are implicit GEMMs: they pack the GEMM's B panels
 * straight from the image (im2col never exists as a buffer) and pack
 * the weights once per call for every sample. Each packed panel holds
 * the values the explicit im2col + gemm() decomposition would pack, in
 * the same layout, so their results are bitwise equal to it.
 *
 * Results are bitwise identical for any thread count: threads split
 * only the M dimension (and the conv entries also split samples), and
 * every C element accumulates its K-blocks in the same order
 * regardless of partitioning.
 *
 * Not part of the public API.
 */

#ifndef AIB_TENSOR_DETAIL_GEMM_H
#define AIB_TENSOR_DETAIL_GEMM_H

#include <cstdint>
#include <string_view>
#include <vector>

namespace aib::core {
class ThreadPool;
}

namespace aib::ops::detail {

/**
 * Selectable GEMM kernel implementations. @c Auto defers to the
 * runtime CPU-feature pick (the widest compiled-in kernel the host
 * supports); the others force one specific instantiation, which is
 * how the differential tests exercise the portable path on wide-SIMD
 * hosts and vice versa.
 */
enum class GemmBackend : int {
    Auto = 0,
    Generic,
    Avx2,
    Avx512,
};

/** Lower-case name of a backend ("auto", "generic", "avx2", "avx512"). */
std::string_view gemmBackendName(GemmBackend backend);

/**
 * Parse a backend name as accepted by AIBENCH_GEMM_BACKEND.
 * @return true and set @p out on success; false on unknown names.
 */
bool parseGemmBackend(std::string_view name, GemmBackend *out);

/**
 * Force the kernel gemm() and the conv entries dispatch to. @c Auto
 * restores the runtime CPU pick. @return false (selection unchanged)
 * when the requested backend is not compiled in or the running CPU
 * lacks the ISA. Thread-safe; takes effect for subsequent calls.
 */
bool setGemmBackend(GemmBackend backend);

/** The currently requested backend (Auto unless forced). */
GemmBackend gemmBackend();

/** The backend gemm() actually runs right now (Auto resolved). */
GemmBackend resolvedGemmBackend();

/** Backends runnable on this build + CPU, Generic first. */
std::vector<GemmBackend> availableGemmBackends();

/**
 * Apply the AIBENCH_GEMM_BACKEND environment variable to the dispatch
 * state (also done automatically on first gemm() use). @return false
 * when the variable is set but names an unknown or unavailable
 * backend, in which case the selection is left unchanged and a
 * warning is printed to stderr.
 */
bool applyGemmBackendFromEnv();

/**
 * C (M,N) += op(A) * op(B), with op controlled by the trans flags.
 * A is (M,K) row-major, or (K,M) when trans_a; B is (K,N) or (N,K)
 * when trans_b. All matrices are dense row-major with no padding.
 *
 * Blocked, packed and multi-threaded. @p pool selects the thread pool
 * (nullptr = the process-global pool); with a 1-thread pool the call
 * is fully serial.
 */
void gemm(const float *a, const float *b, float *c, std::int64_t m,
          std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
          core::ThreadPool *pool = nullptr);

/**
 * The im2col view of one image: @c channels planes of height x width,
 * a kernel x kernel window at the given stride and zero padding, and
 * an outHeight x outWidth output grid. Row r = (ch*kernel + ki)*kernel
 * + kj, column q = oi*outWidth + oj of im2col(x) holds
 * x[ch, oi*stride - padding + ki, oj*stride - padding + kj], or zero
 * where that falls outside the image.
 */
struct ConvGeometry {
    std::int64_t channels, height, width;
    int kernel, stride, padding;
    std::int64_t outHeight, outWidth;
};

/*
 * The three conv GEMMs over a batch of @p n samples, with F = @p f
 * filters, CKK = channels*kernel*kernel and P = outHeight*outWidth.
 * Each equals, bit for bit, a loop over samples of the explicit
 * im2col / gemm() / col2im decomposition on the same backend: samples
 * split across the global pool's chunks, M blocks split inside a
 * sample's GEMM, K is never split.
 */

/** out[s] (F, P) += w (F, CKK) * im2col(x[s]). */
void convForward(const float *w, const float *x, float *out,
                 std::int64_t n, std::int64_t f, const ConvGeometry &geo);

/**
 * gw (F, CKK) += sum over s of g[s] (F, P) * im2col(x[s])^T. Samples
 * accumulate into one partial per pool chunk, and the partials are
 * added into @p gw in chunk order.
 */
void convWeightGrad(const float *g, const float *x, float *gw,
                    std::int64_t n, std::int64_t f,
                    const ConvGeometry &geo);

/**
 * gx[s] (channels, height, width) += col2im(w^T * g[s]), where col2im
 * adds each im2col element back onto the pixel it was read from, in
 * (ch, ki, kj, oi, oj) order.
 */
void convDataGrad(const float *w, const float *g, float *gx,
                  std::int64_t n, std::int64_t f,
                  const ConvGeometry &geo);

/**
 * Naive single-threaded reference GEMM with identical semantics,
 * retained for correctness tests and as a baseline in benchmarks.
 */
void gemmNaive(const float *a, const float *b, float *c, std::int64_t m,
               std::int64_t n, std::int64_t k, bool trans_a,
               bool trans_b);

} // namespace aib::ops::detail

#endif // AIB_TENSOR_DETAIL_GEMM_H
