/**
 * @file
 * Internal helpers shared by operator implementations: the kernel-name
 * registry mirroring the paper's Table 7, and broadcasting machinery.
 * Not part of the public API.
 */

#ifndef AIB_TENSOR_DETAIL_OP_COMMON_H
#define AIB_TENSOR_DETAIL_OP_COMMON_H

#include <array>
#include <cstdint>
#include <vector>

#include "profiler/trace.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace aib::ops::detail {

using profiler::KernelCategory;

/**
 * Kernel names used by the runtime. They mirror the CUDA hotspot
 * function names the paper reports in Table 7 so the hotspot census
 * (Fig. 6) and the hotspot table reproduce with recognizable entries.
 */
namespace kn {

// GEMM
inline constexpr char sgemm_nn[] = "maxwell_sgemm_128x64_nn";
inline constexpr char sgemm_nt[] = "maxwell_sgemm_128x64_nt";
inline constexpr char sgemm_tn[] = "maxwell_sgemm_128x64_tn";
inline constexpr char sgemm_vec[] = "sgemm_32x32x32_NN_vec";
inline constexpr char sgemm_batched[] = "maxwell_sgemm_64x64_batched_nn";

// Convolution
inline constexpr char conv_winograd[] =
    "maxwell_scudnn_winograd_128x128_ldg1_ldg4_tile148n_nt";
inline constexpr char conv_wgrad[] = "wgrad_alg0_engine";
inline constexpr char conv_fft[] = "fft2d_r2c_32x32";

// Data arrangement
inline constexpr char im2col[] =
    "maxwell_scudnn_128x128_stridedB_splitK_interior_nn";
inline constexpr char col2im[] =
    "maxwell_scudnn_128x32_stridedB_splitK_interior_nn";
inline constexpr char gather_scatter[] =
    "maxwell_scudnn_128x128_stridedB_interior_nn";

// BatchNorm
inline constexpr char bn_fwd[] = "cudnn_bn_fw_tr_1C11_kernel_NCHW";
inline constexpr char bn_bwd[] = "cudnn_bn_bw_1C11_kernel_new";
inline constexpr char bn_bwd_native[] = "batch_norm_backward_kernel";
inline constexpr char ln_fwd[] = "layer_norm_forward_kernel";
inline constexpr char ln_bwd[] = "layer_norm_backward_kernel";

// Relu
inline constexpr char relu_fwd[] = "maxwell_scudnn_128x128_relu_small_nn";
inline constexpr char relu_bwd[] =
    "maxwell_scudnn_128x128_relu_interior_nn";
inline constexpr char relu_leaky[] = "maxwell_scudnn_128x32_relu_interior_nn";

// Fused graphopt kernels (docs/GRAPHOPT.md): single-launch versions
// of add+activation, the conv bias+activation epilogue, inference
// batch-norm (normalize+scale collapsed), and GELU.
inline constexpr char ew_add_act[] =
    "fused_elementwise_add_activation_kernel";
inline constexpr char bias_act[] = "cudnn_add_bias_activation_fw_kernel";
inline constexpr char bn_inf[] = "cudnn_bn_fw_inf_1C11_kernel_NCHW";
inline constexpr char gelu_fwd[] = "gelu_forward_kernel";

// Element-wise
inline constexpr char ew_add[] = "elementwise_add_kernel";
inline constexpr char ew_mul[] = "elementwise_mul_kernel";
inline constexpr char ew_div[] = "elementwise_div_kernel";
inline constexpr char ew_threshold[] = "elementwise_threshold_kernel";
inline constexpr char ew_unary[] = "elementwise_unary_kernel";
inline constexpr char ew_exp[] = "elementwise_exp_kernel";
inline constexpr char ew_softmax[] = "softmax_warp_forward_kernel";
inline constexpr char ew_softmax_bwd[] = "softmax_warp_backward_kernel";
inline constexpr char ew_reduce[] = "reduce_kernel";
inline constexpr char ew_dropout[] = "fused_dropout_kernel";
inline constexpr char ew_sample[] = "grid_sampler_2d_kernel";
inline constexpr char ew_sample_bwd[] = "grid_sampler_2d_backward_kernel";

// Pooling
inline constexpr char pool_max_fwd[] = "MaxPoolForward";
inline constexpr char pool_max_bwd[] = "MaxPoolBackward";
inline constexpr char pool_avg_fwd[] = "AvePoolForward";
inline constexpr char pool_avg_bwd[] = "AvePoolBackward";

// Memcpy
inline constexpr char memcpy_h2d[] = "CUDA_memcpy_HtoD";
inline constexpr char memcpy_d2d[] = "CUDA_memcpy_DtoD";

} // namespace kn

/** Record an element-wise style kernel over @p n output elements. */
inline void
recordMap(const char *name, KernelCategory category, double n,
          double inputs_per_element, double flops_per_element)
{
    profiler::record(name, category, flops_per_element * n,
                     4.0 * inputs_per_element * n, 4.0 * n, n);
}

/** Record a plain device-to-device copy of @p n elements. */
inline void
recordCopy(double n)
{
    profiler::record(kn::memcpy_d2d, KernelCategory::Memcpy, 0.0, 4.0 * n,
                     4.0 * n, n);
}

/** Record a data-arrangement (gather/scatter/layout) kernel. */
inline void
recordArrange(double n)
{
    profiler::record(kn::gather_scatter, KernelCategory::DataArrangement,
                     0.0, 4.0 * n, 4.0 * n, n);
}

/**
 * @name Fused-activation helpers (ops_fused.cc)
 *
 * Per-element forward/backward expressions for an Act epilogue,
 * bitwise-matching the standalone ops in ops_unary.cc, plus the flop
 * count the activation contributes to a fused kernel's record (must
 * stay in sync with the static cost model in graphlint/infer.cc).
 * @{
 */
float actFlopsPerElement(Act act);
float actForward(float x, Act act, float slope);
float actBackwardFromInput(float x, Act act, float slope);
/**
 * Derivative from the activation *output* y = act(x); bitwise-equal
 * to the from-input form for Relu/LeakyRelu/Sigmoid/Tanh (used by the
 * conv epilogues, which keep y but not x). Gelu has no output-only
 * form and is rejected by the conv entry points.
 */
float actBackwardFromOutput(float y, Act act, float slope);
/** @} */

/**
 * Strides of @p shape broadcast against @p out_shape: 0 where the
 * input dimension is 1 (or missing), the contiguous stride otherwise.
 */
std::vector<std::int64_t> broadcastStrides(const Shape &shape,
                                           const Shape &out_shape);

/** True when @p shape broadcast to @p out requires no expansion. */
inline bool
noBroadcastNeeded(const Shape &shape, const Shape &out)
{
    return shape == out;
}

/**
 * Visit the elements of @p shape in order, as runs over its longest
 * trailing block of dims along which each of the K operands is either
 * contiguous or fixed on one value. @p strides holds each operand's
 * strides over @p shape (see broadcastStrides). For every run, calls
 * body(i, off, len, step): i is the linear index of the run's first
 * element, off[k] operand k's offset there, len the run length, and
 * step[k] 1 where operand k advances along the run and 0 where it
 * stays. Element pairs and their order are those of a plain
 * element-by-element walk; only the N-d index stepping moves out of
 * the inner loop.
 */
template <std::size_t K, typename Body>
void
forEachRun(const Shape &shape,
           const std::array<std::vector<std::int64_t>, K> &strides,
           Body &&body)
{
    std::int64_t n = 1;
    for (const std::int64_t d : shape)
        n *= d;
    if (n == 0)
        return;
    // Grow the block from the last dim while every operand keeps one
    // step: stride == elements inside the block (1) or 0. Dims of
    // extent 1 join any block.
    std::array<std::int64_t, K> step;
    step.fill(-1);
    int start = static_cast<int>(shape.size());
    std::int64_t len = 1;
    for (int d = start - 1; d >= 0; --d) {
        if (shape[d] != 1) {
            std::array<std::int64_t, K> next = step;
            bool fits = true;
            for (std::size_t k = 0; k < K && fits; ++k) {
                const std::int64_t s = strides[k][d];
                next[k] = s == 0 ? 0 : 1;
                fits = (s == 0 || s == len) &&
                       (step[k] < 0 || step[k] == next[k]);
            }
            if (!fits)
                break;
            step = next;
            len *= shape[d];
        }
        start = d;
    }
    for (std::int64_t &k_step : step)
        k_step = k_step < 0 ? 0 : k_step;  // no dim moved it: fixed

    std::vector<std::int64_t> index(static_cast<std::size_t>(start), 0);
    std::array<std::int64_t, K> off{};
    for (std::int64_t i = 0; i < n; i += len) {
        body(i, off, len, step);
        for (int d = start - 1; d >= 0; --d) {
            ++index[d];
            for (std::size_t k = 0; k < K; ++k)
                off[k] += strides[k][d];
            if (index[d] < shape[d])
                break;
            index[d] = 0;
            for (std::size_t k = 0; k < K; ++k)
                off[k] -= strides[k][d] * shape[d];
        }
    }
}

/**
 * Apply @p fn element-wise over the broadcast of @p a and @p b, one
 * forEachRun run at a time. Shared between the plain binary ops and
 * the fused add+activation kernels so both traverse elements
 * identically (the fused path must stay bitwise-equal to the unfused
 * chain).
 */
template <typename Fn>
Tensor
broadcastBinary(const Tensor &a, const Tensor &b, Fn fn)
{
    const Shape out_shape = broadcastShapes(a.shape(), b.shape());
    Tensor out = Tensor::empty(out_shape);
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    forEachRun<2>(
        out_shape,
        {broadcastStrides(a.shape(), out_shape),
         broadcastStrides(b.shape(), out_shape)},
        [&](std::int64_t i, const std::array<std::int64_t, 2> &off,
            std::int64_t len, const std::array<std::int64_t, 2> &step) {
            float *o = po + i;
            const float *x = pa + off[0];
            const float *y = pb + off[1];
            if (step[0] && step[1]) {
                for (std::int64_t e = 0; e < len; ++e)
                    o[e] = fn(x[e], y[e]);
            } else if (step[0]) {
                const float yv = *y;
                for (std::int64_t e = 0; e < len; ++e)
                    o[e] = fn(x[e], yv);
            } else if (step[1]) {
                const float xv = *x;
                for (std::int64_t e = 0; e < len; ++e)
                    o[e] = fn(xv, y[e]);
            } else {
                for (std::int64_t e = 0; e < len; ++e)
                    o[e] = fn(*x, *y);
            }
        });
    return out;
}

} // namespace aib::ops::detail

#endif // AIB_TENSOR_DETAIL_OP_COMMON_H
