/**
 * @file
 * Shape manipulation operators: reshape, permute, slice, concat,
 * embedding lookup.
 */

#include "tensor/ops.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/autograd.h"
#include "tensor/detail/op_common.h"
#include "tensor/graph_capture.h"

namespace aib::ops {

namespace {

using detail::KernelCategory;
namespace kn = detail::kn;

/** A fresh tensor of @p shape holding @p a's values (same numel). */
Tensor
copyAs(const Tensor &a, const Shape &shape)
{
    Tensor out = Tensor::empty(shape);
    std::copy_n(a.data(), a.numel(), out.data());
    return out;
}

} // namespace

Tensor
reshape(const Tensor &a, const Shape &shape)
{
    Shape resolved = shape;
    std::int64_t known = 1;
    int infer = -1;
    for (std::size_t i = 0; i < resolved.size(); ++i) {
        if (resolved[i] == -1) {
            if (infer >= 0)
                throw std::invalid_argument("reshape: multiple -1 dims");
            infer = static_cast<int>(i);
        } else {
            known *= resolved[i];
        }
    }
    if (infer >= 0) {
        if (known == 0 || a.numel() % known != 0)
            throw std::invalid_argument("reshape: cannot infer dimension");
        resolved[static_cast<std::size_t>(infer)] = a.numel() / known;
    }
    if (numel(resolved) != a.numel()) {
        throw std::invalid_argument(
            "reshape: numel mismatch " + shapeToString(a.shape()) +
            " -> " + shapeToString(shape));
    }
    Tensor out = copyAs(a, resolved);
    detail::recordCopy(static_cast<double>(a.numel()));
    return autograd::makeOutput(
        std::move(out), "reshape", {a},
        [shape_in = a.shape()](const Tensor &g) {
            return std::vector<Tensor>{copyAs(g, shape_in)};
        });
}

Tensor
permute(const Tensor &a, const std::vector<int> &dims)
{
    const int nd = a.ndim();
    if (static_cast<int>(dims.size()) != nd)
        throw std::invalid_argument("permute: rank mismatch");
    Shape out_shape(static_cast<std::size_t>(nd));
    for (int i = 0; i < nd; ++i)
        out_shape[static_cast<std::size_t>(i)] =
            a.dim(dims[static_cast<std::size_t>(i)]);

    const auto in_strides = contiguousStrides(a.shape());
    Tensor out = Tensor::empty(out_shape);
    const float *pa = a.data();
    float *po = out.data();
    const std::int64_t n = a.numel();
    std::vector<std::int64_t> index(static_cast<std::size_t>(nd), 0);
    std::int64_t src = 0;
    // Walk the output in order; track the source offset incrementally.
    std::vector<std::int64_t> strides_for_out(static_cast<std::size_t>(nd));
    for (int i = 0; i < nd; ++i) {
        strides_for_out[static_cast<std::size_t>(i)] =
            in_strides[static_cast<std::size_t>(
                dims[static_cast<std::size_t>(i)] < 0
                    ? dims[static_cast<std::size_t>(i)] + nd
                    : dims[static_cast<std::size_t>(i)])];
    }
    for (std::int64_t i = 0; i < n; ++i) {
        po[i] = pa[src];
        for (int d = nd - 1; d >= 0; --d) {
            ++index[static_cast<std::size_t>(d)];
            src += strides_for_out[static_cast<std::size_t>(d)];
            if (index[static_cast<std::size_t>(d)] <
                out_shape[static_cast<std::size_t>(d)])
                break;
            index[static_cast<std::size_t>(d)] = 0;
            src -= strides_for_out[static_cast<std::size_t>(d)] *
                   out_shape[static_cast<std::size_t>(d)];
        }
    }
    detail::recordArrange(static_cast<double>(n));

    // Inverse permutation for the backward pass.
    std::vector<int> inverse(static_cast<std::size_t>(nd));
    for (int i = 0; i < nd; ++i) {
        int d = dims[static_cast<std::size_t>(i)];
        if (d < 0)
            d += nd;
        inverse[static_cast<std::size_t>(d)] = i;
    }
    return autograd::makeOutput(std::move(out), "permute", {a},
                                [inverse](const Tensor &g) {
                                    return std::vector<Tensor>{
                                        permute(g, inverse)};
                                });
}

Tensor
sliceDim(const Tensor &a, int dim, std::int64_t start, std::int64_t stop)
{
    const int nd = a.ndim();
    if (dim < 0)
        dim += nd;
    if (dim < 0 || dim >= nd)
        throw std::invalid_argument("sliceDim: dim out of range");
    const Shape &as = a.shape();
    if (start < 0 || stop > as[static_cast<std::size_t>(dim)] ||
        start >= stop)
        throw std::invalid_argument("sliceDim: bad range");

    std::int64_t outer = 1, inner = 1;
    for (int i = 0; i < dim; ++i)
        outer *= as[static_cast<std::size_t>(i)];
    for (int i = dim + 1; i < nd; ++i)
        inner *= as[static_cast<std::size_t>(i)];
    const std::int64_t len = as[static_cast<std::size_t>(dim)];
    const std::int64_t out_len = stop - start;

    Shape out_shape = as;
    out_shape[static_cast<std::size_t>(dim)] = out_len;
    Tensor out = Tensor::empty(out_shape);
    const float *pa = a.data();
    float *po = out.data();
    for (std::int64_t o = 0; o < outer; ++o) {
        const float *src = pa + (o * len + start) * inner;
        float *dst = po + o * out_len * inner;
        std::copy(src, src + out_len * inner, dst);
    }
    detail::recordCopy(static_cast<double>(out.numel()));
    graph::capturePendingAttrs(
        {{"dim", dim}, {"start", start}, {"stop", stop}});
    return autograd::makeOutput(
        std::move(out), "sliceDim", {a},
        [shape_in = a.shape(), dim, start, outer, inner, len,
         out_len](const Tensor &g) {
            Tensor gx = Tensor::zeros(shape_in);
            const float *pg = g.data();
            float *px = gx.data();
            for (std::int64_t o = 0; o < outer; ++o) {
                const float *src = pg + o * out_len * inner;
                float *dst = px + (o * len + start) * inner;
                std::copy(src, src + out_len * inner, dst);
            }
            return std::vector<Tensor>{std::move(gx)};
        });
}

Tensor
concat(const std::vector<Tensor> &parts, int dim)
{
    if (parts.empty())
        throw std::invalid_argument("concat: no inputs");
    const Tensor &first = parts.front();
    const int nd = first.ndim();
    if (dim < 0)
        dim += nd;
    if (dim < 0 || dim >= nd)
        throw std::invalid_argument("concat: dim out of range");

    Shape out_shape = first.shape();
    std::int64_t total = 0;
    for (const Tensor &p : parts) {
        if (p.ndim() != nd)
            throw std::invalid_argument("concat: rank mismatch");
        for (int i = 0; i < nd; ++i) {
            if (i != dim && p.dim(i) != first.dim(i))
                throw std::invalid_argument("concat: shape mismatch");
        }
        total += p.dim(dim);
    }
    out_shape[static_cast<std::size_t>(dim)] = total;

    std::int64_t outer = 1, inner = 1;
    for (int i = 0; i < dim; ++i)
        outer *= out_shape[static_cast<std::size_t>(i)];
    for (int i = dim + 1; i < nd; ++i)
        inner *= out_shape[static_cast<std::size_t>(i)];

    Tensor out = Tensor::empty(out_shape);
    float *po = out.data();
    std::int64_t offset = 0;
    for (const Tensor &p : parts) {
        const std::int64_t len = p.dim(dim);
        const float *pp = p.data();
        for (std::int64_t o = 0; o < outer; ++o) {
            const float *src = pp + o * len * inner;
            float *dst = po + (o * total + offset) * inner;
            std::copy(src, src + len * inner, dst);
        }
        offset += len;
    }
    detail::recordCopy(static_cast<double>(out.numel()));

    std::vector<std::int64_t> lens;
    lens.reserve(parts.size());
    for (const Tensor &p : parts)
        lens.push_back(p.dim(dim));
    graph::capturePendingAttrs({{"dim", dim}});
    return autograd::makeOutput(
        std::move(out), "concat", parts,
        [lens, dim](const Tensor &g) {
            std::vector<Tensor> grads;
            grads.reserve(lens.size());
            std::int64_t start = 0;
            for (std::int64_t len : lens) {
                grads.push_back(sliceDim(g, dim, start, start + len));
                start += len;
            }
            return grads;
        });
}

Tensor
embeddingLookup(const Tensor &table, const std::vector<int> &indices)
{
    if (table.ndim() != 2)
        throw std::invalid_argument("embeddingLookup: table must be 2-D");
    const std::int64_t rows = table.dim(0), width = table.dim(1);
    const std::int64_t n = static_cast<std::int64_t>(indices.size());
    Tensor out = Tensor::empty({n, width});
    const float *pt = table.data();
    float *po = out.data();
    for (std::int64_t i = 0; i < n; ++i) {
        const int idx = indices[static_cast<std::size_t>(i)];
        if (idx < 0 || idx >= rows)
            throw std::out_of_range("embeddingLookup: index out of range");
        std::copy(pt + idx * width, pt + (idx + 1) * width,
                  po + i * width);
    }
    detail::recordArrange(static_cast<double>(out.numel()));
    return autograd::makeOutput(
        std::move(out), "embeddingLookup", {table},
        [indices, rows, width, n](const Tensor &g) {
            Tensor gt = Tensor::zeros({rows, width});
            const float *pg = g.data();
            float *pt2 = gt.data();
            for (std::int64_t i = 0; i < n; ++i) {
                const int idx = indices[static_cast<std::size_t>(i)];
                float *dst = pt2 + idx * width;
                const float *src = pg + i * width;
                for (std::int64_t j = 0; j < width; ++j)
                    dst[j] += src[j];
            }
            detail::recordArrange(static_cast<double>(g.numel()));
            return std::vector<Tensor>{std::move(gt)};
        });
}

Tensor
repeatRows(const Tensor &a, std::int64_t times)
{
    Shape out_shape = a.shape();
    if (out_shape.empty())
        throw std::invalid_argument("repeatRows: rank must be >= 1");
    if (out_shape[0] != 1)
        throw std::invalid_argument("repeatRows: leading dim must be 1");
    out_shape[0] = times;
    const std::int64_t inner = a.numel();
    Tensor out = Tensor::empty(out_shape);
    const float *pa = a.data();
    float *po = out.data();
    for (std::int64_t t = 0; t < times; ++t)
        std::copy(pa, pa + inner, po + t * inner);
    detail::recordCopy(static_cast<double>(out.numel()));
    return autograd::makeOutput(
        std::move(out), "repeatRows", {a},
        [shape_in = a.shape()](const Tensor &g) {
            return std::vector<Tensor>{reduceToShape(g, shape_in)};
        });
}

} // namespace aib::ops
