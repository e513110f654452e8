/**
 * @file
 * Broadcasting binary element-wise operators and their gradients.
 */

#include "tensor/ops.h"

#include <cassert>
#include <functional>

#include "tensor/autograd.h"
#include "tensor/detail/op_common.h"

namespace aib::ops {

namespace {

using detail::KernelCategory;
namespace kn = detail::kn;
// broadcastBinary lives in detail/op_common.h, shared with the fused
// add+activation kernels (ops_fused.cc) so both traverse identically.
using detail::broadcastBinary;

} // namespace

Tensor
reduceToShape(const Tensor &a, const Shape &target_shape)
{
    if (a.shape() == target_shape)
        return a;
    Tensor out = Tensor::zeros(target_shape);
    const Shape &as = a.shape();
    const float *pa = a.data();
    float *po = out.data();
    const std::int64_t n = a.numel();
    detail::forEachRun<1>(
        as, {detail::broadcastStrides(target_shape, as)},
        [&](std::int64_t i, const std::array<std::int64_t, 1> &off,
            std::int64_t len, const std::array<std::int64_t, 1> &step) {
            const float *src = pa + i;
            float *dst = po + off[0];
            if (step[0]) {
                for (std::int64_t e = 0; e < len; ++e)
                    dst[e] += src[e];
            } else {
                float acc = *dst;
                for (std::int64_t e = 0; e < len; ++e)
                    acc += src[e];
                *dst = acc;
            }
        });
    detail::recordMap(kn::ew_reduce, KernelCategory::Elementwise,
                      static_cast<double>(n), 1.0, 1.0);
    return out;
}

namespace detail {

std::vector<std::int64_t>
broadcastStrides(const Shape &shape, const Shape &out_shape)
{
    const auto strides = contiguousStrides(shape);
    std::vector<std::int64_t> out(out_shape.size(), 0);
    const std::size_t off = out_shape.size() - shape.size();
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (shape[i] != 1)
            out[off + i] = strides[i];
    }
    return out;
}

} // namespace detail

Tensor
add(const Tensor &a, const Tensor &b)
{
    Tensor out = broadcastBinary(a, b, std::plus<float>());
    detail::recordMap(kn::ew_add, KernelCategory::Elementwise,
                      static_cast<double>(out.numel()), 2.0, 1.0);
    return autograd::makeOutput(
        std::move(out), "add", {a, b}, [a, b](const Tensor &g) {
            return std::vector<Tensor>{reduceToShape(g, a.shape()),
                                       reduceToShape(g, b.shape())};
        });
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    Tensor out = broadcastBinary(a, b, std::minus<float>());
    detail::recordMap(kn::ew_add, KernelCategory::Elementwise,
                      static_cast<double>(out.numel()), 2.0, 1.0);
    return autograd::makeOutput(
        std::move(out), "sub", {a, b}, [a, b](const Tensor &g) {
            // reduceToShape may alias g, so negate into a fresh buffer.
            Tensor gb_src = reduceToShape(g, b.shape());
            Tensor gb = Tensor::empty(gb_src.shape());
            const float *src = gb_src.data();
            float *dst = gb.data();
            for (std::int64_t i = 0; i < gb.numel(); ++i)
                dst[i] = -src[i];
            return std::vector<Tensor>{reduceToShape(g, a.shape()),
                                       std::move(gb)};
        });
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    Tensor out = broadcastBinary(a, b, std::multiplies<float>());
    detail::recordMap(kn::ew_mul, KernelCategory::Elementwise,
                      static_cast<double>(out.numel()), 2.0, 1.0);
    return autograd::makeOutput(
        std::move(out), "mul", {a, b}, [a, b](const Tensor &g) {
            Tensor ga = broadcastBinary(g, b, std::multiplies<float>());
            Tensor gb = broadcastBinary(g, a, std::multiplies<float>());
            return std::vector<Tensor>{reduceToShape(ga, a.shape()),
                                       reduceToShape(gb, b.shape())};
        });
}

Tensor
div(const Tensor &a, const Tensor &b)
{
    Tensor out = broadcastBinary(a, b, std::divides<float>());
    detail::recordMap(kn::ew_div, KernelCategory::Elementwise,
                      static_cast<double>(out.numel()), 2.0, 1.0);
    return autograd::makeOutput(
        std::move(out), "div", {a, b}, [a, b](const Tensor &g) {
            Tensor ga = broadcastBinary(g, b, std::divides<float>());
            // gb = -g * a / b^2
            Tensor gb = broadcastBinary(
                broadcastBinary(g, a, std::multiplies<float>()), b,
                [](float x, float y) { return -x / (y * y); });
            return std::vector<Tensor>{reduceToShape(ga, a.shape()),
                                       reduceToShape(gb, b.shape())};
        });
}

Tensor
addScalar(const Tensor &a, float s)
{
    Tensor out = Tensor::empty(a.shape());
    const float *pa = a.data();
    float *po = out.data();
    const std::int64_t n = a.numel();
    for (std::int64_t i = 0; i < n; ++i)
        po[i] = pa[i] + s;
    detail::recordMap(kn::ew_add, KernelCategory::Elementwise,
                      static_cast<double>(n), 1.0, 1.0);
    return autograd::makeOutput(std::move(out), "addScalar", {a},
                                [](const Tensor &g) {
                                    return std::vector<Tensor>{g};
                                });
}

Tensor
mulScalar(const Tensor &a, float s)
{
    Tensor out = Tensor::empty(a.shape());
    const float *pa = a.data();
    float *po = out.data();
    const std::int64_t n = a.numel();
    for (std::int64_t i = 0; i < n; ++i)
        po[i] = pa[i] * s;
    detail::recordMap(kn::ew_mul, KernelCategory::Elementwise,
                      static_cast<double>(n), 1.0, 1.0);
    return autograd::makeOutput(std::move(out), "mulScalar", {a},
                                [s](const Tensor &g) {
                                    return std::vector<Tensor>{
                                        mulScalar(g, s)};
                                });
}

Tensor
affineScalar(const Tensor &a, float s, float b)
{
    Tensor out = Tensor::empty(a.shape());
    const float *pa = a.data();
    float *po = out.data();
    const std::int64_t n = a.numel();
    for (std::int64_t i = 0; i < n; ++i)
        po[i] = pa[i] * s + b;
    detail::recordMap(kn::ew_mul, KernelCategory::Elementwise,
                      static_cast<double>(n), 1.0, 2.0);
    return autograd::makeOutput(std::move(out), "affineScalar", {a},
                                [s](const Tensor &g) {
                                    return std::vector<Tensor>{
                                        mulScalar(g, s)};
                                });
}

} // namespace aib::ops
