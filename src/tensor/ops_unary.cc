/**
 * @file
 * Unary element-wise operators and their gradients.
 */

#include "tensor/ops.h"

#include <cmath>

#include "tensor/autograd.h"
#include "tensor/detail/op_common.h"

namespace aib::ops {

namespace {

using detail::KernelCategory;
namespace kn = detail::kn;

/** Map @p fn over @p a into a fresh tensor. */
template <typename Fn>
Tensor
mapUnary(const Tensor &a, Fn fn)
{
    Tensor out = Tensor::empty(a.shape());
    const float *pa = a.data();
    float *po = out.data();
    const std::int64_t n = a.numel();
    for (std::int64_t i = 0; i < n; ++i)
        po[i] = fn(pa[i]);
    return out;
}

/** grad * fn(input, output) element-wise. */
template <typename Fn>
Tensor
mapGrad(const Tensor &g, const Tensor &x, const Tensor &y, Fn fn)
{
    Tensor out = Tensor::empty(g.shape());
    const float *pg = g.data();
    const float *px = x.data();
    const float *py = y.data();
    float *po = out.data();
    const std::int64_t n = g.numel();
    for (std::int64_t i = 0; i < n; ++i)
        po[i] = pg[i] * fn(px[i], py[i]);
    return out;
}

/**
 * g * keep element-wise, keep = x > 0 ? 1 : @p slope: the relu
 * (slope 0) and leakyRelu backward. Selecting the factor and then
 * multiplying leaves a loop GCC vectorizes (compare, blend, multiply)
 * instead of a branch per element, and the multiply keeps -0, NaN and
 * inf bitwise what the scalar g * (x > 0 ? 1 : slope) gives.
 */
Tensor
reluGrad(const Tensor &g, const Tensor &x, float slope)
{
    Tensor out = Tensor::empty(g.shape());
    const float *__restrict pg = g.data();
    const float *__restrict px = x.data();
    float *__restrict po = out.data();
    const std::int64_t n = g.numel();
    for (std::int64_t i = 0; i < n; ++i) {
        const float keep = px[i] > 0.0f ? 1.0f : slope;
        po[i] = pg[i] * keep;
    }
    profiler::record(kn::relu_bwd, KernelCategory::Relu,
                     static_cast<double>(n), 8.0 * static_cast<double>(n),
                     4.0 * static_cast<double>(n), static_cast<double>(n));
    return out;
}

} // namespace

Tensor
neg(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) { return -x; });
    detail::recordMap(kn::ew_unary, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 1.0);
    return autograd::makeOutput(std::move(out), "neg", {a},
                                [](const Tensor &g) {
                                    return std::vector<Tensor>{neg(g)};
                                });
}

Tensor
exp(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) { return std::exp(x); });
    detail::recordMap(kn::ew_exp, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 8.0);
    // NOTE: backward recomputes from the input rather than capturing
    // the output tensor — capturing the output in its own node's
    // closure would create a shared_ptr cycle and leak the graph.
    return autograd::makeOutput(
        std::move(out), "exp", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{mapGrad(
                g, a, a, [](float x, float) { return std::exp(x); })};
        });
}

Tensor
log(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) { return std::log(x); });
    detail::recordMap(kn::ew_exp, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 8.0);
    return autograd::makeOutput(
        std::move(out), "log", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{mapGrad(
                g, a, a, [](float x, float) { return 1.0f / x; })};
        });
}

Tensor
sqrt(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) { return std::sqrt(x); });
    detail::recordMap(kn::ew_exp, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 4.0);
    return autograd::makeOutput(
        std::move(out), "sqrt", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{
                mapGrad(g, a, a, [](float x, float) {
                    return 0.5f / (std::sqrt(x) + 1e-12f);
                })};
        });
}

Tensor
tanh(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) { return std::tanh(x); });
    detail::recordMap(kn::ew_exp, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 8.0);
    return autograd::makeOutput(
        std::move(out), "tanh", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{
                mapGrad(g, a, a, [](float x, float) {
                    const float y = std::tanh(x);
                    return 1.0f - y * y;
                })};
        });
}

Tensor
sigmoid(const Tensor &a)
{
    Tensor out =
        mapUnary(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
    detail::recordMap(kn::ew_exp, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 8.0);
    return autograd::makeOutput(
        std::move(out), "sigmoid", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{
                mapGrad(g, a, a, [](float x, float) {
                    const float y = 1.0f / (1.0f + std::exp(-x));
                    return y * (1.0f - y);
                })};
        });
}

Tensor
relu(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
    profiler::record(kn::relu_fwd, KernelCategory::Relu,
                     static_cast<double>(a.numel()),
                     4.0 * static_cast<double>(a.numel()),
                     4.0 * static_cast<double>(a.numel()),
                     static_cast<double>(a.numel()));
    return autograd::makeOutput(
        std::move(out), "relu", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{reluGrad(g, a, 0.0f)};
        });
}

Tensor
leakyRelu(const Tensor &a, float slope)
{
    Tensor out =
        mapUnary(a, [slope](float x) { return x > 0.0f ? x : slope * x; });
    profiler::record(kn::relu_leaky, KernelCategory::Relu,
                     static_cast<double>(a.numel()),
                     4.0 * static_cast<double>(a.numel()),
                     4.0 * static_cast<double>(a.numel()),
                     static_cast<double>(a.numel()));
    return autograd::makeOutput(
        std::move(out), "leakyRelu", {a}, [a, slope](const Tensor &g) {
            return std::vector<Tensor>{reluGrad(g, a, slope)};
        });
}

namespace {

/** sqrt(2/pi) and the cubic coefficient of the tanh-GELU. */
constexpr float kGeluAlpha = 0.7978845608028654f;
constexpr float kGeluBeta = 0.044715f;

} // namespace

Tensor
gelu(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) {
        const float u = kGeluAlpha * (x + kGeluBeta * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(u));
    });
    detail::recordMap(kn::gelu_fwd, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 8.0);
    return autograd::makeOutput(
        std::move(out), "gelu", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{
                mapGrad(g, a, a, [](float x, float) {
                    const float u =
                        kGeluAlpha * (x + kGeluBeta * x * x * x);
                    const float th = std::tanh(u);
                    const float du =
                        kGeluAlpha * (1.0f + 3.0f * kGeluBeta * x * x);
                    return 0.5f * (1.0f + th) +
                           0.5f * x * (1.0f - th * th) * du;
                })};
        });
}

Tensor
abs(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) { return std::fabs(x); });
    detail::recordMap(kn::ew_unary, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 1.0);
    return autograd::makeOutput(
        std::move(out), "abs", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{
                mapGrad(g, a, a, [](float x, float) {
                    return x >= 0.0f ? 1.0f : -1.0f;
                })};
        });
}

Tensor
square(const Tensor &a)
{
    Tensor out = mapUnary(a, [](float x) { return x * x; });
    detail::recordMap(kn::ew_mul, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 1.0);
    return autograd::makeOutput(
        std::move(out), "square", {a}, [a](const Tensor &g) {
            return std::vector<Tensor>{
                mapGrad(g, a, a, [](float x, float) { return 2.0f * x; })};
        });
}

Tensor
clamp(const Tensor &a, float lo, float hi)
{
    Tensor out = mapUnary(a, [lo, hi](float x) {
        return x < lo ? lo : (x > hi ? hi : x);
    });
    detail::recordMap(kn::ew_threshold, KernelCategory::Elementwise,
                      static_cast<double>(a.numel()), 1.0, 2.0);
    return autograd::makeOutput(
        std::move(out), "clamp", {a}, [a, lo, hi](const Tensor &g) {
            return std::vector<Tensor>{
                mapGrad(g, a, a, [lo, hi](float x, float) {
                    return (x >= lo && x <= hi) ? 1.0f : 0.0f;
                })};
        });
}

} // namespace aib::ops
