/**
 * @file
 * Fused element-wise kernels for the graph optimizer
 * (docs/GRAPHOPT.md).
 *
 * Contract: with fusion disabled each entry point executes the
 * literal unfused op chain (same captures, same profiler records,
 * same bits as the pre-graphopt call sites); with fusion enabled it
 * computes the same per-element float expressions in a single
 * traversal, records one fused kernel, and captures one IR op. The
 * differential suite in tests/tensor/test_fused_ops.cc pins the
 * bitwise equivalence; the optimizer's cross-check
 * (src/analysis/graphopt) pins the capture/cost-model agreement.
 */

#include "tensor/ops.h"

#include <cmath>
#include <stdexcept>

#include "tensor/autograd.h"
#include "tensor/detail/op_common.h"
#include "tensor/graph_capture.h"
#include "tensor/graphopt_mode.h"

namespace aib::ops {

namespace {

using detail::KernelCategory;
namespace kn = detail::kn;

constexpr float kGeluAlpha = 0.7978845608028654f;
constexpr float kGeluBeta = 0.044715f;

} // namespace

namespace detail {

float
actFlopsPerElement(Act act)
{
    switch (act) {
    case Act::Relu:
    case Act::LeakyRelu:
        return 1.0f;
    case Act::Sigmoid:
    case Act::Tanh:
    case Act::Gelu:
        return 8.0f;
    case Act::None:
        break;
    }
    return 0.0f;
}

float
actForward(float x, Act act, float slope)
{
    // Expressions match the standalone ops in ops_unary.cc exactly, so
    // fused results are bitwise-equal to the unfused chains.
    switch (act) {
    case Act::Relu:
        return x > 0.0f ? x : 0.0f;
    case Act::LeakyRelu:
        return x > 0.0f ? x : slope * x;
    case Act::Sigmoid:
        return 1.0f / (1.0f + std::exp(-x));
    case Act::Tanh:
        return std::tanh(x);
    case Act::Gelu: {
        const float u = kGeluAlpha * (x + kGeluBeta * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(u));
    }
    case Act::None:
        break;
    }
    return x;
}

float
actBackwardFromInput(float x, Act act, float slope)
{
    switch (act) {
    case Act::Relu:
        return x > 0.0f ? 1.0f : 0.0f;
    case Act::LeakyRelu:
        return x > 0.0f ? 1.0f : slope;
    case Act::Sigmoid: {
        const float y = 1.0f / (1.0f + std::exp(-x));
        return y * (1.0f - y);
    }
    case Act::Tanh: {
        const float y = std::tanh(x);
        return 1.0f - y * y;
    }
    case Act::Gelu: {
        const float u = kGeluAlpha * (x + kGeluBeta * x * x * x);
        const float th = std::tanh(u);
        const float du = kGeluAlpha * (1.0f + 3.0f * kGeluBeta * x * x);
        return 0.5f * (1.0f + th) + 0.5f * x * (1.0f - th * th) * du;
    }
    case Act::None:
        break;
    }
    return 1.0f;
}

float
actBackwardFromOutput(float y, Act act, float slope)
{
    switch (act) {
    case Act::Relu:
        // y > 0 iff x > 0 (y == x there), so this matches the
        // from-input derivative bit for bit, NaN included.
        return y > 0.0f ? 1.0f : 0.0f;
    case Act::LeakyRelu:
        // slope > 0 keeps the sign of x, so y > 0 iff x > 0.
        return y > 0.0f ? 1.0f : slope;
    case Act::Sigmoid:
        return y * (1.0f - y);
    case Act::Tanh:
        return 1.0f - y * y;
    case Act::Gelu:
    case Act::None:
        break;
    }
    throw std::invalid_argument(
        "actBackwardFromOutput: no output-only derivative");
}

} // namespace detail

Tensor
applyAct(const Tensor &a, Act act, float slope)
{
    switch (act) {
    case Act::None:
        return a;
    case Act::Relu:
        return relu(a);
    case Act::LeakyRelu:
        return leakyRelu(a, slope);
    case Act::Sigmoid:
        return sigmoid(a);
    case Act::Tanh:
        return tanh(a);
    case Act::Gelu:
        return gelu(a);
    }
    throw std::invalid_argument("applyAct: unknown activation");
}

namespace fused {

Tensor
addAct(const Tensor &a, const Tensor &b, Act act, float slope)
{
    if (act == Act::None)
        return add(a, b);
    if (!graphopt::fuseEnabled()) {
        Tensor sum = add(a, b);
        // Tag the anchor so the IR fusion pass (rule R1 in
        // src/analysis/graphopt/fusion.cc) predicts this capture
        // exactly; fused::addAct fuses in every mode, so the tag is
        // unconditional.
        graph::captureAmendLastOp(
            {{"fuseact", static_cast<std::int64_t>(act)}});
        return applyAct(sum, act, slope);
    }

    Tensor out = detail::broadcastBinary(
        a, b, [act, slope](float x, float y) {
            return detail::actForward(x + y, act, slope);
        });
    detail::recordMap(kn::ew_add_act, KernelCategory::Elementwise,
                      static_cast<double>(out.numel()), 2.0,
                      1.0 + detail::actFlopsPerElement(act));
    graph::capturePendingAttrs(
        {{"act", static_cast<std::int64_t>(act)}});
    return autograd::makeOutput(
        std::move(out), "addAct", {a, b},
        [a, b, act, slope](const Tensor &g) {
            // Recompute the pre-activation sum (the unfused chain
            // materialized it; the fused kernel did not).
            Tensor t =
                detail::broadcastBinary(a, b, std::plus<float>());
            detail::recordMap(kn::ew_add, KernelCategory::Elementwise,
                              static_cast<double>(t.numel()), 2.0, 1.0);
            Tensor gt = Tensor::empty(g.shape());
            const float *pg = g.data();
            const float *pt = t.data();
            float *po = gt.data();
            const std::int64_t n = g.numel();
            for (std::int64_t i = 0; i < n; ++i)
                po[i] = pg[i] *
                        detail::actBackwardFromInput(pt[i], act, slope);
            if (act == Act::Relu || act == Act::LeakyRelu) {
                profiler::record(kn::relu_bwd, KernelCategory::Relu,
                                 static_cast<double>(n),
                                 8.0 * static_cast<double>(n),
                                 4.0 * static_cast<double>(n),
                                 static_cast<double>(n));
            }
            return std::vector<Tensor>{reduceToShape(gt, a.shape()),
                                       reduceToShape(gt, b.shape())};
        });
}

Tensor
normScale(const Tensor &x, const Tensor &mean, const Tensor &scale,
          const Tensor &gamma, const Tensor &beta)
{
    if (mean.shape() != scale.shape() || mean.shape() != gamma.shape() ||
        mean.shape() != beta.shape()) {
        throw std::invalid_argument(
            "normScale: parameter shapes must match");
    }
    if (broadcastShapes(x.shape(), mean.shape()) != x.shape()) {
        throw std::invalid_argument(
            "normScale: parameters must broadcast into the input");
    }
    // Legality: the fused kernel has no backward (it collapses four
    // tape nodes); any grad-mode execution takes the unfused chain.
    if (!graphopt::fuseEnabled() || gradModeEnabled()) {
        // Tag the chain head so the IR fusion pass (rule R3 in
        // src/analysis/graphopt/fusion.cc) can identify it exactly.
        // Value 1 means "fuses once enabled"; 2 means the grad-mode
        // gate keeps the chain unfused regardless, so the planner
        // must leave it alone too.
        graph::capturePendingAttrs(
            {{"bnchain", gradModeEnabled() ? 2 : 1}});
        Tensor y = sub(x, mean);
        y = mul(y, scale);
        y = mul(y, gamma);
        return add(y, beta);
    }

    Tensor out = Tensor::empty(x.shape());
    const float *px = x.data();
    const float *pm = mean.data();
    const float *ps = scale.data();
    const float *pgm = gamma.data();
    const float *pbt = beta.data();
    float *po = out.data();
    const std::int64_t n = out.numel();
    detail::forEachRun<1>(
        x.shape(), {detail::broadcastStrides(mean.shape(), x.shape())},
        [&](std::int64_t i, const std::array<std::int64_t, 1> &off,
            std::int64_t len, const std::array<std::int64_t, 1> &step) {
            // Same float-op sequence as the unfused sub/mul/mul/add
            // chain, over the same element pairs.
            const float *xr = px + i;
            float *o = po + i;
            const std::int64_t p = off[0];
            if (step[0]) {
                for (std::int64_t e = 0; e < len; ++e)
                    o[e] = ((xr[e] - pm[p + e]) * ps[p + e]) *
                               pgm[p + e] +
                           pbt[p + e];
            } else {
                const float m = pm[p], sc = ps[p], gm = pgm[p],
                            bt = pbt[p];
                for (std::int64_t e = 0; e < len; ++e)
                    o[e] = ((xr[e] - m) * sc) * gm + bt;
            }
        });
    detail::recordMap(kn::bn_inf, KernelCategory::BatchNorm,
                      static_cast<double>(n), 5.0, 4.0);
    return autograd::makeOutput(
        std::move(out), "normScale", {x, mean, scale, gamma, beta},
        [](const Tensor &) -> std::vector<Tensor> {
            throw std::logic_error(
                "normScale: fused kernel is inference-only");
        });
}

} // namespace fused

} // namespace aib::ops
