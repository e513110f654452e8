/**
 * @file
 * Convolution, pooling and normalization operators (NCHW layout).
 *
 * conv2d and convTranspose2d run on the GEMM backend's three conv
 * entries (detail/gemm.h): implicit GEMMs that pack the GEMM's panels
 * straight from the image, the same decomposition cuDNN's
 * implicit-GEMM kernels use. The kernel trace still records the
 * logical im2col/col2im stages as data-arrangement kernels and the
 * GEMM stage as a convolution kernel, matching the kernel taxonomy of
 * the paper; it models the GPU kernel mix, not the host code.
 */

#include "tensor/ops.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/detail/gemm.h"
#include "tensor/detail/op_common.h"
#include "tensor/graph_capture.h"
#include "tensor/graphopt_mode.h"

namespace aib::ops {

namespace {

using detail::KernelCategory;
namespace kn = detail::kn;

/** Output spatial size of a convolution. */
std::int64_t
convOutSize(std::int64_t in, int kernel, int stride, int padding)
{
    return (in + 2 * padding - kernel) / stride + 1;
}

void
recordConvGemm(const char *name, std::int64_t m, std::int64_t n,
               std::int64_t k, std::int64_t batch)
{
    const double flops = 2.0 * static_cast<double>(batch) * m * n * k;
    profiler::record(name, KernelCategory::Convolution, flops,
                     4.0 * batch * (static_cast<double>(m) * k +
                                    static_cast<double>(k) * n),
                     4.0 * batch * static_cast<double>(m) * n,
                     static_cast<double>(batch) * m * n);
}

void
recordIm2col(double elements)
{
    profiler::record(kn::im2col, KernelCategory::DataArrangement, 0.0,
                     4.0 * elements, 4.0 * elements, elements);
}

void
recordCol2im(double elements)
{
    profiler::record(kn::col2im, KernelCategory::DataArrangement, 0.0,
                     4.0 * elements, 4.0 * elements, elements);
}

/**
 * Multiply @p g by act'(y) element-wise from the saved output @p y
 * (the fused epilogue's backward entry step). Mirrors the standalone
 * activation backward exactly, including its relu_bwd record.
 */
Tensor
actBackwardFromSavedOutput(const Tensor &g, const Tensor &y, Act act,
                           float slope)
{
    Tensor gz = Tensor::empty(g.shape());
    const float *pg = g.data();
    const float *py = y.data();
    float *po = gz.data();
    const std::int64_t n = g.numel();
    for (std::int64_t i = 0; i < n; ++i)
        po[i] =
            pg[i] * detail::actBackwardFromOutput(py[i], act, slope);
    if (act == Act::Relu || act == Act::LeakyRelu) {
        profiler::record(kn::relu_bwd, KernelCategory::Relu,
                         static_cast<double>(n),
                         8.0 * static_cast<double>(n),
                         4.0 * static_cast<double>(n),
                         static_cast<double>(n));
    }
    return gz;
}

/** Capture attributes for a conv-family op, with the act epilogue. */
void
captureConvAttrs(int kernel, int stride, int padding, Act act)
{
    if (act == Act::None) {
        graph::capturePendingAttrs({{"kernel", kernel},
                                    {"stride", stride},
                                    {"padding", padding},
                                    {"ordered", 1}});
    } else {
        graph::capturePendingAttrs(
            {{"kernel", kernel},
             {"stride", stride},
             {"padding", padding},
             {"ordered", 1},
             {"act", static_cast<std::int64_t>(act)}});
    }
}

/**
 * conv2d body, optionally applying an Act epilogue fused into the
 * bias pass. With act == None this is byte-for-byte the historical
 * conv2d (same records, same capture, same bits).
 */
Tensor
conv2dImpl(const Tensor &input, const Tensor &weight, const Tensor &bias,
           int stride, int padding, Act act, float slope)
{
    if (input.ndim() != 4 || weight.ndim() != 4)
        throw std::invalid_argument("conv2d: expected 4-D input/weight");
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       h = input.dim(2), w = input.dim(3);
    const std::int64_t f = weight.dim(0);
    const int kernel = static_cast<int>(weight.dim(2));
    if (weight.dim(1) != c || weight.dim(3) != kernel)
        throw std::invalid_argument("conv2d: weight shape mismatch");
    const std::int64_t ho = convOutSize(h, kernel, stride, padding);
    const std::int64_t wo = convOutSize(w, kernel, stride, padding);
    if (ho <= 0 || wo <= 0)
        throw std::invalid_argument("conv2d: empty output");

    const std::int64_t ckk = c * kernel * kernel;
    const std::int64_t hw_out = ho * wo;
    Tensor out = Tensor::zeros({n, f, ho, wo});

    const detail::ConvGeometry geo{c, h, w, kernel, stride, padding, ho, wo};
    float *po = out.data();
    detail::convForward(weight.data(), input.data(), po, n, f, geo);
    recordIm2col(static_cast<double>(n) * ckk * hw_out);
    recordConvGemm(kn::conv_winograd, f, hw_out, ckk, n);

    if (bias.defined()) {
        if (bias.numel() != f)
            throw std::invalid_argument("conv2d: bias size mismatch");
        const float *pb = bias.data();
        if (act == Act::None) {
            for (std::int64_t i = 0; i < n; ++i)
                for (std::int64_t ff = 0; ff < f; ++ff) {
                    float *row = po + (i * f + ff) * hw_out;
                    const float b = pb[ff];
                    for (std::int64_t j = 0; j < hw_out; ++j)
                        row[j] += b;
                }
            detail::recordMap(kn::ew_add, KernelCategory::Elementwise,
                              static_cast<double>(out.numel()), 1.0,
                              1.0);
        } else {
            for (std::int64_t i = 0; i < n; ++i)
                for (std::int64_t ff = 0; ff < f; ++ff) {
                    float *row = po + (i * f + ff) * hw_out;
                    const float b = pb[ff];
                    for (std::int64_t j = 0; j < hw_out; ++j)
                        row[j] = detail::actForward(row[j] + b, act,
                                                    slope);
                }
            detail::recordMap(
                kn::bias_act, KernelCategory::Elementwise,
                static_cast<double>(out.numel()), 1.0,
                1.0 + detail::actFlopsPerElement(act));
        }
    } else if (act != Act::None) {
        const std::int64_t total = out.numel();
        for (std::int64_t j = 0; j < total; ++j)
            po[j] = detail::actForward(po[j], act, slope);
        detail::recordMap(kn::bias_act, KernelCategory::Elementwise,
                          static_cast<double>(out.numel()), 1.0,
                          detail::actFlopsPerElement(act));
    }

    // The backward derives act' from the saved output; weak so the
    // closure does not keep the activation buffer alive in inference.
    std::weak_ptr<TensorImpl> saved_out = out.impl();
    captureConvAttrs(kernel, stride, padding, act);
    return autograd::makeOutput(
        std::move(out), act == Act::None ? "conv2d" : "conv2dAct",
        {input, weight, bias},
        [input, weight, has_bias = bias.defined(),
         input_grad = autograd::needsGrad(input), n, f, geo, ckk, hw_out,
         act, slope, saved_out](const Tensor &g0) {
            Tensor g = g0;
            if (act != Act::None) {
                auto y = saved_out.lock();
                if (!y)
                    throw std::logic_error(
                        "conv2dAct: saved output expired in backward");
                g = actBackwardFromSavedOutput(g0, Tensor(y), act,
                                               slope);
            }
            // An input that needed no gradient at forward time (an
            // image batch) gets none; the trace still records the
            // data-gradient GEMM and col2im, the modeled kernel mix.
            Tensor gx =
                input_grad ? Tensor::zeros(input.shape()) : Tensor();
            Tensor gw = Tensor::zeros(weight.shape());
            Tensor gb;
            const float *pg = g.data();
            if (has_bias) {
                gb = Tensor::zeros({f});
                float *pb = gb.data();
                for (std::int64_t i = 0; i < n; ++i)
                    for (std::int64_t ff = 0; ff < f; ++ff) {
                        const float *row = pg + (i * f + ff) * hw_out;
                        float acc = 0.0f;
                        for (std::int64_t j = 0; j < hw_out; ++j)
                            acc += row[j];
                        pb[ff] += acc;
                    }
                detail::recordMap(kn::ew_reduce,
                                  KernelCategory::Elementwise,
                                  static_cast<double>(g.numel()), 1.0,
                                  1.0);
            }

            detail::convWeightGrad(pg, input.data(), gw.data(), n, f, geo);
            if (input_grad)
                detail::convDataGrad(weight.data(), pg, gx.data(), n, f,
                                     geo);
            recordIm2col(static_cast<double>(n) * ckk * hw_out);
            recordConvGemm(kn::conv_wgrad, f, ckk, hw_out, n);
            recordConvGemm(kn::conv_fft, ckk, hw_out, f, n);
            recordCol2im(static_cast<double>(n) * ckk * hw_out);
            return std::vector<Tensor>{std::move(gx), std::move(gw),
                                       std::move(gb)};
        });
}

/** convTranspose2d body with an optional fused Act epilogue. */
Tensor
convTranspose2dImpl(const Tensor &input, const Tensor &weight,
                    const Tensor &bias, int stride, int padding, Act act,
                    float slope)
{
    if (input.ndim() != 4 || weight.ndim() != 4)
        throw std::invalid_argument(
            "convTranspose2d: expected 4-D input/weight");
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       h = input.dim(2), w = input.dim(3);
    // Weight is (C, F, K, K), as in torch.nn.ConvTranspose2d.
    if (weight.dim(0) != c)
        throw std::invalid_argument("convTranspose2d: weight mismatch");
    const std::int64_t f = weight.dim(1);
    const int kernel = static_cast<int>(weight.dim(2));
    const std::int64_t ho = (h - 1) * stride - 2 * padding + kernel;
    const std::int64_t wo = (w - 1) * stride - 2 * padding + kernel;
    if (ho <= 0 || wo <= 0)
        throw std::invalid_argument("convTranspose2d: empty output");

    const std::int64_t fkk = f * kernel * kernel;
    const std::int64_t hw_in = h * w;
    Tensor out = Tensor::zeros({n, f, ho, wo});

    // The conv whose data gradient this is: F input channels of Ho x
    // Wo, C filters, and an H x W output grid.
    const detail::ConvGeometry geo{f, ho, wo, kernel, stride, padding, h, w};
    float *po = out.data();
    detail::convDataGrad(weight.data(), input.data(), po, n, c, geo);
    recordConvGemm(kn::conv_winograd, fkk, hw_in, c, n);
    recordCol2im(static_cast<double>(n) * fkk * hw_in);

    if (bias.defined()) {
        const float *pb = bias.data();
        const std::int64_t hw_out = ho * wo;
        if (act == Act::None) {
            for (std::int64_t i = 0; i < n; ++i)
                for (std::int64_t ff = 0; ff < f; ++ff) {
                    float *row = po + (i * f + ff) * hw_out;
                    for (std::int64_t j = 0; j < hw_out; ++j)
                        row[j] += pb[ff];
                }
            detail::recordMap(kn::ew_add, KernelCategory::Elementwise,
                              static_cast<double>(out.numel()), 1.0,
                              1.0);
        } else {
            for (std::int64_t i = 0; i < n; ++i)
                for (std::int64_t ff = 0; ff < f; ++ff) {
                    float *row = po + (i * f + ff) * hw_out;
                    for (std::int64_t j = 0; j < hw_out; ++j)
                        row[j] = detail::actForward(row[j] + pb[ff],
                                                    act, slope);
                }
            detail::recordMap(
                kn::bias_act, KernelCategory::Elementwise,
                static_cast<double>(out.numel()), 1.0,
                1.0 + detail::actFlopsPerElement(act));
        }
    } else if (act != Act::None) {
        const std::int64_t total = out.numel();
        for (std::int64_t j = 0; j < total; ++j)
            po[j] = detail::actForward(po[j], act, slope);
        detail::recordMap(kn::bias_act, KernelCategory::Elementwise,
                          static_cast<double>(out.numel()), 1.0,
                          detail::actFlopsPerElement(act));
    }

    std::weak_ptr<TensorImpl> saved_out = out.impl();
    captureConvAttrs(kernel, stride, padding, act);
    return autograd::makeOutput(
        std::move(out),
        act == Act::None ? "convTranspose2d" : "convTranspose2dAct",
        {input, weight, bias},
        [input, weight, has_bias = bias.defined(),
         input_grad = autograd::needsGrad(input), n, c, f, ho, wo, geo,
         fkk, hw_in, act, slope, saved_out](const Tensor &g0) {
            Tensor g = g0;
            if (act != Act::None) {
                auto y = saved_out.lock();
                if (!y)
                    throw std::logic_error("convTranspose2dAct: saved "
                                           "output expired in backward");
                g = actBackwardFromSavedOutput(g0, Tensor(y), act,
                                               slope);
            }
            Tensor gx =
                input_grad ? Tensor::zeros(input.shape()) : Tensor();
            Tensor gw = Tensor::zeros(weight.shape());
            Tensor gb;
            const float *pg = g.data();
            const std::int64_t hw_out = ho * wo;
            if (has_bias) {
                gb = Tensor::zeros({f});
                float *pb = gb.data();
                for (std::int64_t i = 0; i < n; ++i)
                    for (std::int64_t ff = 0; ff < f; ++ff) {
                        const float *row = pg + (i * f + ff) * hw_out;
                        float acc = 0.0f;
                        for (std::int64_t j = 0; j < hw_out; ++j)
                            acc += row[j];
                        pb[ff] += acc;
                    }
            }

            // dX is that conv's forward over g (for an input that
            // needs it, as in conv2d), dW its weight gradient.
            if (input_grad)
                detail::convForward(weight.data(), pg, gx.data(), n, c,
                                    geo);
            detail::convWeightGrad(input.data(), pg, gw.data(), n, c, geo);
            recordIm2col(static_cast<double>(n) * fkk * hw_in);
            recordConvGemm(kn::conv_wgrad, c, fkk, hw_in, n);
            recordConvGemm(kn::conv_fft, c, hw_in, fkk, n);
            return std::vector<Tensor>{std::move(gx), std::move(gw),
                                       std::move(gb)};
        });
}

} // namespace

Tensor
conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
       int stride, int padding)
{
    return conv2dImpl(input, weight, bias, stride, padding, Act::None,
                      0.0f);
}

Tensor
convTranspose2d(const Tensor &input, const Tensor &weight,
                const Tensor &bias, int stride, int padding)
{
    return convTranspose2dImpl(input, weight, bias, stride, padding,
                               Act::None, 0.0f);
}

namespace fused {

Tensor
conv2dAct(const Tensor &input, const Tensor &weight, const Tensor &bias,
          int stride, int padding, Act act, float slope)
{
    if (act == Act::Gelu)
        throw std::invalid_argument(
            "conv2dAct: Gelu epilogue unsupported (no output-only "
            "derivative; see docs/GRAPHOPT.md)");
    if (act == Act::None)
        return conv2d(input, weight, bias, stride, padding);
    if (!graphopt::fuseEnabled()) {
        Tensor out = conv2d(input, weight, bias, stride, padding);
        // Anchor tag for fusion rule R2 (src/analysis/graphopt).
        graph::captureAmendLastOp(
            {{"fuseact", static_cast<std::int64_t>(act)}});
        return applyAct(out, act, slope);
    }
    return conv2dImpl(input, weight, bias, stride, padding, act, slope);
}

Tensor
convTranspose2dAct(const Tensor &input, const Tensor &weight,
                   const Tensor &bias, int stride, int padding, Act act,
                   float slope)
{
    if (act == Act::Gelu)
        throw std::invalid_argument(
            "convTranspose2dAct: Gelu epilogue unsupported (no "
            "output-only derivative; see docs/GRAPHOPT.md)");
    if (act == Act::None)
        return convTranspose2d(input, weight, bias, stride, padding);
    if (!graphopt::fuseEnabled()) {
        Tensor out = convTranspose2d(input, weight, bias, stride, padding);
        // Anchor tag for fusion rule R2 (src/analysis/graphopt).
        graph::captureAmendLastOp(
            {{"fuseact", static_cast<std::int64_t>(act)}});
        return applyAct(out, act, slope);
    }
    return convTranspose2dImpl(input, weight, bias, stride, padding, act,
                               slope);
}

} // namespace fused

Tensor
maxPool2d(const Tensor &input, int kernel, int stride)
{
    if (input.ndim() != 4)
        throw std::invalid_argument("maxPool2d: expected 4-D input");
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       h = input.dim(2), w = input.dim(3);
    const std::int64_t ho = convOutSize(h, kernel, stride, 0);
    const std::int64_t wo = convOutSize(w, kernel, stride, 0);
    Tensor out = Tensor::empty({n, c, ho, wo});
    auto argmax = std::make_shared<std::vector<std::int64_t>>(
        static_cast<std::size_t>(out.numel()));

    const float *px = input.data();
    float *po = out.data();
    std::int64_t oidx = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
            const float *plane = px + (i * c + ch) * h * w;
            for (std::int64_t oi = 0; oi < ho; ++oi) {
                for (std::int64_t oj = 0; oj < wo; ++oj, ++oidx) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::int64_t best_idx = 0;
                    for (int ki = 0; ki < kernel; ++ki) {
                        const std::int64_t ii = oi * stride + ki;
                        if (ii >= h)
                            continue;
                        for (int kj = 0; kj < kernel; ++kj) {
                            const std::int64_t jj = oj * stride + kj;
                            if (jj >= w)
                                continue;
                            const float v = plane[ii * w + jj];
                            if (v > best) {
                                best = v;
                                best_idx = (i * c + ch) * h * w + ii * w +
                                           jj;
                            }
                        }
                    }
                    po[oidx] = best;
                    (*argmax)[static_cast<std::size_t>(oidx)] = best_idx;
                }
            }
        }
    }
    profiler::record(kn::pool_max_fwd, KernelCategory::Pooling,
                     static_cast<double>(out.numel()) * kernel * kernel,
                     4.0 * static_cast<double>(input.numel()),
                     4.0 * static_cast<double>(out.numel()),
                     static_cast<double>(out.numel()));
    graph::capturePendingAttrs({{"kernel", kernel}, {"stride", stride}});
    return autograd::makeOutput(
        std::move(out), "maxPool2d", {input},
        [argmax, shape_in = input.shape()](const Tensor &g) {
            Tensor gx = Tensor::zeros(shape_in);
            float *px2 = gx.data();
            const float *pg = g.data();
            const std::int64_t m = g.numel();
            for (std::int64_t i = 0; i < m; ++i)
                px2[(*argmax)[static_cast<std::size_t>(i)]] += pg[i];
            profiler::record(kn::pool_max_bwd, KernelCategory::Pooling,
                             static_cast<double>(m),
                             8.0 * static_cast<double>(m),
                             4.0 * static_cast<double>(m),
                             static_cast<double>(m));
            return std::vector<Tensor>{std::move(gx)};
        });
}

Tensor
avgPool2d(const Tensor &input, int kernel, int stride)
{
    if (input.ndim() != 4)
        throw std::invalid_argument("avgPool2d: expected 4-D input");
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       h = input.dim(2), w = input.dim(3);
    const std::int64_t ho = convOutSize(h, kernel, stride, 0);
    const std::int64_t wo = convOutSize(w, kernel, stride, 0);
    Tensor out = Tensor::empty({n, c, ho, wo});
    const float inv = 1.0f / static_cast<float>(kernel * kernel);

    const float *px = input.data();
    float *po = out.data();
    std::int64_t oidx = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
            const float *plane = px + (i * c + ch) * h * w;
            for (std::int64_t oi = 0; oi < ho; ++oi) {
                for (std::int64_t oj = 0; oj < wo; ++oj, ++oidx) {
                    float acc = 0.0f;
                    for (int ki = 0; ki < kernel; ++ki)
                        for (int kj = 0; kj < kernel; ++kj) {
                            const std::int64_t ii = oi * stride + ki;
                            const std::int64_t jj = oj * stride + kj;
                            if (ii < h && jj < w)
                                acc += plane[ii * w + jj];
                        }
                    po[oidx] = acc * inv;
                }
            }
        }
    }
    profiler::record(kn::pool_avg_fwd, KernelCategory::Pooling,
                     static_cast<double>(out.numel()) * kernel * kernel,
                     4.0 * static_cast<double>(input.numel()),
                     4.0 * static_cast<double>(out.numel()),
                     static_cast<double>(out.numel()));
    graph::capturePendingAttrs(
        {{"kernel", kernel}, {"stride", stride}, {"ordered", 1}});
    return autograd::makeOutput(
        std::move(out), "avgPool2d", {input},
        [shape_in = input.shape(), n, c, h, w, ho, wo, kernel, stride,
         inv](const Tensor &g) {
            Tensor gx = Tensor::zeros(shape_in);
            float *px2 = gx.data();
            const float *pg = g.data();
            std::int64_t oidx = 0;
            for (std::int64_t i = 0; i < n; ++i) {
                for (std::int64_t ch = 0; ch < c; ++ch) {
                    float *plane = px2 + (i * c + ch) * h * w;
                    for (std::int64_t oi = 0; oi < ho; ++oi) {
                        for (std::int64_t oj = 0; oj < wo; ++oj, ++oidx) {
                            const float gv = pg[oidx] * inv;
                            for (int ki = 0; ki < kernel; ++ki)
                                for (int kj = 0; kj < kernel; ++kj) {
                                    const std::int64_t ii =
                                        oi * stride + ki;
                                    const std::int64_t jj =
                                        oj * stride + kj;
                                    if (ii < h && jj < w)
                                        plane[ii * w + jj] += gv;
                                }
                        }
                    }
                }
            }
            profiler::record(kn::pool_avg_bwd, KernelCategory::Pooling,
                             static_cast<double>(g.numel()),
                             4.0 * static_cast<double>(g.numel()),
                             4.0 * static_cast<double>(gx.numel()),
                             static_cast<double>(g.numel()));
            return std::vector<Tensor>{std::move(gx)};
        });
}

Tensor
globalAvgPool2d(const Tensor &input)
{
    if (input.ndim() != 4)
        throw std::invalid_argument("globalAvgPool2d: expected 4-D input");
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       hw = input.dim(2) * input.dim(3);
    Tensor out = Tensor::empty({n, c});
    const float *px = input.data();
    float *po = out.data();
    const float inv = 1.0f / static_cast<float>(hw);
    for (std::int64_t i = 0; i < n * c; ++i) {
        const float *plane = px + i * hw;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < hw; ++j)
            acc += plane[j];
        po[i] = acc * inv;
    }
    profiler::record(kn::pool_avg_fwd, KernelCategory::Pooling,
                     static_cast<double>(input.numel()),
                     4.0 * static_cast<double>(input.numel()),
                     4.0 * static_cast<double>(out.numel()),
                     static_cast<double>(out.numel()));
    graph::capturePendingAttrs({{"ordered", 1}}); // fixed H*W scan
    return autograd::makeOutput(
        std::move(out), "globalAvgPool2d", {input},
        [shape_in = input.shape(), n, c, hw, inv](const Tensor &g) {
            Tensor gx = Tensor::empty(shape_in);
            float *px2 = gx.data();
            const float *pg = g.data();
            for (std::int64_t i = 0; i < n * c; ++i) {
                const float gv = pg[i] * inv;
                float *plane = px2 + i * hw;
                for (std::int64_t j = 0; j < hw; ++j)
                    plane[j] = gv;
            }
            return std::vector<Tensor>{std::move(gx)};
        });
}

Tensor
batchNorm2d(const Tensor &input, const Tensor &gamma, const Tensor &beta,
            float eps, Tensor *save_mean, Tensor *save_var)
{
    if (input.ndim() != 4)
        throw std::invalid_argument("batchNorm2d: expected 4-D input");
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       hw = input.dim(2) * input.dim(3);
    const std::int64_t count = n * hw;

    Tensor mean_t = Tensor::zeros({c});
    Tensor var_t = Tensor::zeros({c});
    const float *px = input.data();
    float *pm = mean_t.data();
    float *pv = var_t.data();
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t ch = 0; ch < c; ++ch) {
            const float *plane = px + (i * c + ch) * hw;
            float acc = 0.0f;
            for (std::int64_t j = 0; j < hw; ++j)
                acc += plane[j];
            pm[ch] += acc;
        }
    for (std::int64_t ch = 0; ch < c; ++ch)
        pm[ch] /= static_cast<float>(count);
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t ch = 0; ch < c; ++ch) {
            const float *plane = px + (i * c + ch) * hw;
            const float m = pm[ch];
            float acc = 0.0f;
            for (std::int64_t j = 0; j < hw; ++j) {
                const float d = plane[j] - m;
                acc += d * d;
            }
            pv[ch] += acc;
        }
    for (std::int64_t ch = 0; ch < c; ++ch)
        pv[ch] /= static_cast<float>(count);

    if (save_mean)
        *save_mean = mean_t.clone();
    if (save_var)
        *save_var = var_t.clone();

    Tensor out = Tensor::empty(input.shape());
    // Normalized activations, saved for the backward pass.
    auto xhat = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(input.numel()));
    const float *pgm = gamma.data();
    const float *pb = beta.data();
    float *po = out.data();
    std::vector<float> inv_std(static_cast<std::size_t>(c));
    for (std::int64_t ch = 0; ch < c; ++ch)
        inv_std[static_cast<std::size_t>(ch)] =
            1.0f / std::sqrt(pv[ch] + eps);
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t ch = 0; ch < c; ++ch) {
            const float *plane = px + (i * c + ch) * hw;
            float *oplane = po + (i * c + ch) * hw;
            float *hplane = xhat->data() + (i * c + ch) * hw;
            const float m = pm[ch];
            const float is = inv_std[static_cast<std::size_t>(ch)];
            const float gmm = pgm[ch], bt = pb[ch];
            for (std::int64_t j = 0; j < hw; ++j) {
                const float xh = (plane[j] - m) * is;
                hplane[j] = xh;
                oplane[j] = gmm * xh + bt;
            }
        }
    profiler::record(kn::bn_fwd, KernelCategory::BatchNorm,
                     5.0 * static_cast<double>(input.numel()),
                     8.0 * static_cast<double>(input.numel()),
                     8.0 * static_cast<double>(input.numel()),
                     static_cast<double>(input.numel()));

    graph::capturePendingAttrs({{"ordered", 1}}); // fixed N*H*W moments
    return autograd::makeOutput(
        std::move(out), "batchNorm2d", {input, gamma, beta},
        [xhat, gamma, inv_std, n, c, hw, count,
         shape_in = input.shape()](const Tensor &g) {
            Tensor gx = Tensor::empty(shape_in);
            Tensor ggamma = Tensor::zeros({c});
            Tensor gbeta = Tensor::zeros({c});
            const float *pg = g.data();
            const float *pgm = gamma.data();
            float *pgx = gx.data();
            float *pgg = ggamma.data();
            float *pgb = gbeta.data();

            // Per-channel sums of g and g*xhat.
            std::vector<float> sum_g(static_cast<std::size_t>(c), 0.0f);
            std::vector<float> sum_gx(static_cast<std::size_t>(c), 0.0f);
            for (std::int64_t i = 0; i < n; ++i)
                for (std::int64_t ch = 0; ch < c; ++ch) {
                    const float *gplane = pg + (i * c + ch) * hw;
                    const float *hplane =
                        xhat->data() + (i * c + ch) * hw;
                    float sg = 0.0f, sgx = 0.0f;
                    for (std::int64_t j = 0; j < hw; ++j) {
                        sg += gplane[j];
                        sgx += gplane[j] * hplane[j];
                    }
                    sum_g[static_cast<std::size_t>(ch)] += sg;
                    sum_gx[static_cast<std::size_t>(ch)] += sgx;
                }
            for (std::int64_t ch = 0; ch < c; ++ch) {
                pgb[ch] = sum_g[static_cast<std::size_t>(ch)];
                pgg[ch] = sum_gx[static_cast<std::size_t>(ch)];
            }
            const float invn = 1.0f / static_cast<float>(count);
            for (std::int64_t i = 0; i < n; ++i)
                for (std::int64_t ch = 0; ch < c; ++ch) {
                    const float *gplane = pg + (i * c + ch) * hw;
                    const float *hplane =
                        xhat->data() + (i * c + ch) * hw;
                    float *xplane = pgx + (i * c + ch) * hw;
                    const float k1 =
                        sum_g[static_cast<std::size_t>(ch)] * invn;
                    const float k2 =
                        sum_gx[static_cast<std::size_t>(ch)] * invn;
                    const float coef =
                        pgm[ch] * inv_std[static_cast<std::size_t>(ch)];
                    for (std::int64_t j = 0; j < hw; ++j) {
                        xplane[j] = coef * (gplane[j] - k1 -
                                            hplane[j] * k2);
                    }
                }
            profiler::record(kn::bn_bwd, KernelCategory::BatchNorm,
                             8.0 * static_cast<double>(g.numel()),
                             12.0 * static_cast<double>(g.numel()),
                             4.0 * static_cast<double>(g.numel()),
                             static_cast<double>(g.numel()));
            return std::vector<Tensor>{std::move(gx), std::move(ggamma),
                                       std::move(gbeta)};
        });
}

Tensor
layerNorm(const Tensor &input, const Tensor &gamma, const Tensor &beta,
          float eps)
{
    const std::int64_t c = input.dim(-1);
    const std::int64_t rows = input.numel() / c;
    if (gamma.numel() != c || beta.numel() != c)
        throw std::invalid_argument("layerNorm: affine size mismatch");

    Tensor out = Tensor::empty(input.shape());
    auto xhat = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(input.numel()));
    auto inv_std = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(rows));
    const float *px = input.data();
    const float *pgm = gamma.data();
    const float *pb = beta.data();
    float *po = out.data();
    for (std::int64_t r = 0; r < rows; ++r) {
        const float *x = px + r * c;
        float *y = po + r * c;
        float *h = xhat->data() + r * c;
        float m = 0.0f;
        for (std::int64_t i = 0; i < c; ++i)
            m += x[i];
        m /= static_cast<float>(c);
        float v = 0.0f;
        for (std::int64_t i = 0; i < c; ++i) {
            const float d = x[i] - m;
            v += d * d;
        }
        v /= static_cast<float>(c);
        const float is = 1.0f / std::sqrt(v + eps);
        (*inv_std)[static_cast<std::size_t>(r)] = is;
        for (std::int64_t i = 0; i < c; ++i) {
            const float xh = (x[i] - m) * is;
            h[i] = xh;
            y[i] = pgm[i] * xh + pb[i];
        }
    }
    profiler::record(kn::ln_fwd, KernelCategory::BatchNorm,
                     5.0 * static_cast<double>(input.numel()),
                     8.0 * static_cast<double>(input.numel()),
                     8.0 * static_cast<double>(input.numel()),
                     static_cast<double>(input.numel()));

    graph::capturePendingAttrs({{"ordered", 1}}); // fixed row moments
    return autograd::makeOutput(
        std::move(out), "layerNorm", {input, gamma, beta},
        [xhat, inv_std, gamma, rows, c,
         shape_in = input.shape()](const Tensor &g) {
            Tensor gx = Tensor::empty(shape_in);
            Tensor ggamma = Tensor::zeros({c});
            Tensor gbeta = Tensor::zeros({c});
            const float *pg = g.data();
            const float *pgm = gamma.data();
            float *pgx = gx.data();
            float *pgg = ggamma.data();
            float *pgb = gbeta.data();
            for (std::int64_t r = 0; r < rows; ++r) {
                const float *go = pg + r * c;
                const float *h = xhat->data() + r * c;
                float *gi = pgx + r * c;
                const float is = (*inv_std)[static_cast<std::size_t>(r)];
                float sum_g = 0.0f, sum_gh = 0.0f;
                for (std::int64_t i = 0; i < c; ++i) {
                    const float gg = go[i] * pgm[i];
                    sum_g += gg;
                    sum_gh += gg * h[i];
                    pgg[i] += go[i] * h[i];
                    pgb[i] += go[i];
                }
                const float k1 = sum_g / static_cast<float>(c);
                const float k2 = sum_gh / static_cast<float>(c);
                for (std::int64_t i = 0; i < c; ++i) {
                    const float gg = go[i] * pgm[i];
                    gi[i] = is * (gg - k1 - h[i] * k2);
                }
            }
            profiler::record(kn::ln_bwd, KernelCategory::BatchNorm,
                             8.0 * static_cast<double>(g.numel()),
                             12.0 * static_cast<double>(g.numel()),
                             4.0 * static_cast<double>(g.numel()),
                             static_cast<double>(g.numel()));
            return std::vector<Tensor>{std::move(gx), std::move(ggamma),
                                       std::move(gbeta)};
        });
}

} // namespace aib::ops
