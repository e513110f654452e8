#include "tensor/tensor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <new>
#include <stdexcept>

#include "core/faultinject.h"
#include "tensor/alloctrack.h"
#include "tensor/autograd.h"
#include "tensor/graph_capture.h"

namespace aib {

namespace {

thread_local bool tl_grad_mode = true;

Rng g_global_rng{0x5eedULL};

/**
 * A TensorImpl of @p shape with uninitialized storage, registered with
 * the allocation tracker.
 */
std::shared_ptr<TensorImpl>
makeImpl(const Shape &shape)
{
    // Fail-nth-allocation fault point: every tensor allocation in the
    // suite funnels through here.
    if (core::fault::anyArmed() && core::fault::fires("tensor.alloc"))
        throw std::bad_alloc();
    auto impl = std::make_shared<TensorImpl>();
    impl->shape = shape;
    impl->data.resize(static_cast<std::size_t>(numel(shape)));
    impl->accountedBytes = impl->data.size() * sizeof(float);
    alloctrack::onAcquire(impl->accountedBytes, impl.get());
    return impl;
}

} // namespace

TensorImpl::~TensorImpl()
{
    if (accountedBytes != 0)
        alloctrack::onRelease(accountedBytes, this);
}

Shape
broadcastShapes(const Shape &a, const Shape &b)
{
    const std::size_t n = std::max(a.size(), b.size());
    Shape out(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t da =
            i < n - a.size() ? 1 : a[i - (n - a.size())];
        const std::int64_t db =
            i < n - b.size() ? 1 : b[i - (n - b.size())];
        if (da != db && da != 1 && db != 1) {
            throw std::invalid_argument(
                "broadcastShapes: incompatible shapes " + shapeToString(a) +
                " and " + shapeToString(b));
        }
        out[i] = std::max(da, db);
    }
    return out;
}

Rng &
globalRng()
{
    return g_global_rng;
}

void
seedGlobalRng(std::uint64_t seed)
{
    g_global_rng.seed(seed);
}

Tensor
Tensor::empty(const Shape &shape)
{
    auto impl = makeImpl(shape);
#ifdef AIB_POISON_EMPTY_TENSORS
    std::fill(impl->data.begin(), impl->data.end(),
              std::numeric_limits<float>::quiet_NaN());
#endif
    return Tensor(std::move(impl));
}

Tensor
Tensor::zeros(const Shape &shape)
{
    return full(shape, 0.0f);
}

Tensor
Tensor::ones(const Shape &shape)
{
    return full(shape, 1.0f);
}

Tensor
Tensor::full(const Shape &shape, float value)
{
    auto impl = makeImpl(shape);
    std::fill(impl->data.begin(), impl->data.end(), value);
    return Tensor(std::move(impl));
}

Tensor
Tensor::fromVector(const Shape &shape, std::vector<float> values)
{
    if (static_cast<std::int64_t>(values.size()) != aib::numel(shape)) {
        throw std::invalid_argument(
            "fromVector: value count does not match shape " +
            shapeToString(shape));
    }
    // Copy: the storage buffer may live in the arena (FloatBuffer's
    // allocator differs from std::vector's), so adoption can't move.
    auto impl = makeImpl(shape);
    std::copy(values.begin(), values.end(), impl->data.begin());
    return Tensor(std::move(impl));
}

Tensor
Tensor::scalar(float value)
{
    auto impl = makeImpl(Shape{});
    impl->data[0] = value;
    return Tensor(std::move(impl));
}

Tensor
Tensor::randn(const Shape &shape, Rng &rng)
{
    auto impl = makeImpl(shape);
    rng.normal(impl->data.data(),
               static_cast<std::int64_t>(impl->data.size()), 0.0f, 1.0f);
    return Tensor(std::move(impl));
}

Tensor
Tensor::rand(const Shape &shape, Rng &rng, float lo, float hi)
{
    auto impl = makeImpl(shape);
    for (float &v : impl->data)
        v = rng.uniform(lo, hi);
    return Tensor(std::move(impl));
}

Tensor
Tensor::arange(std::int64_t n)
{
    auto impl = makeImpl(Shape{n});
    for (std::int64_t i = 0; i < n; ++i)
        impl->data[static_cast<std::size_t>(i)] = static_cast<float>(i);
    return Tensor(std::move(impl));
}

const Shape &
Tensor::shape() const
{
    assert(impl_);
    return impl_->shape;
}

std::int64_t
Tensor::numel() const
{
    assert(impl_);
    return static_cast<std::int64_t>(impl_->data.size());
}

int
Tensor::ndim() const
{
    assert(impl_);
    return static_cast<int>(impl_->shape.size());
}

std::int64_t
Tensor::dim(int i) const
{
    assert(impl_);
    const int n = ndim();
    if (i < 0)
        i += n;
    if (i < 0 || i >= n)
        throw std::out_of_range("Tensor::dim: index out of range");
    return impl_->shape[static_cast<std::size_t>(i)];
}

float *
Tensor::data()
{
    assert(impl_);
    return impl_->data.data();
}

const float *
Tensor::data() const
{
    assert(impl_);
    return impl_->data.data();
}

float
Tensor::item() const
{
    if (!impl_ || impl_->data.size() != 1)
        throw std::logic_error("Tensor::item: tensor is not a scalar");
    return impl_->data[0];
}

float
Tensor::at(std::initializer_list<std::int64_t> index) const
{
    assert(impl_);
    if (index.size() != impl_->shape.size())
        throw std::invalid_argument("Tensor::at: rank mismatch");
    const auto strides = contiguousStrides(impl_->shape);
    std::int64_t offset = 0;
    std::size_t d = 0;
    for (std::int64_t i : index) {
        if (i < 0 || i >= impl_->shape[d])
            throw std::out_of_range("Tensor::at: index out of range");
        offset += i * strides[d];
        ++d;
    }
    return impl_->data[static_cast<std::size_t>(offset)];
}

void
Tensor::set(std::initializer_list<std::int64_t> index, float value)
{
    assert(impl_);
    if (index.size() != impl_->shape.size())
        throw std::invalid_argument("Tensor::set: rank mismatch");
    const auto strides = contiguousStrides(impl_->shape);
    std::int64_t offset = 0;
    std::size_t d = 0;
    for (std::int64_t i : index) {
        if (i < 0 || i >= impl_->shape[d])
            throw std::out_of_range("Tensor::set: index out of range");
        offset += i * strides[d];
        ++d;
    }
    impl_->data[static_cast<std::size_t>(offset)] = value;
}

std::vector<float>
Tensor::toVector() const
{
    assert(impl_);
    return {impl_->data.begin(), impl_->data.end()};
}

bool
Tensor::requiresGrad() const
{
    return impl_ && impl_->requiresGrad;
}

Tensor &
Tensor::setRequiresGrad(bool value)
{
    assert(impl_);
    impl_->requiresGrad = value;
    return *this;
}

Tensor
Tensor::grad() const
{
    assert(impl_);
    return impl_->grad ? Tensor(impl_->grad) : Tensor();
}

void
Tensor::zeroGrad()
{
    assert(impl_);
    impl_->grad.reset();
}

const std::shared_ptr<autograd::Node> &
Tensor::gradFn() const
{
    assert(impl_);
    return impl_->gradFn;
}

void
Tensor::setGradFn(std::shared_ptr<autograd::Node> node)
{
    assert(impl_);
    impl_->gradFn = std::move(node);
}

void
Tensor::accumulateGrad(const Tensor &g)
{
    assert(impl_ && g.defined());
    const auto &src = g.impl()->data;
    if (src.size() != impl_->data.size())
        throw std::invalid_argument(
            "Tensor::accumulateGrad: gradient size does not match");
    if (!impl_->grad) {
        auto grad_impl = makeImpl(impl_->shape);
        std::copy(src.begin(), src.end(), grad_impl->data.begin());
        impl_->grad = std::move(grad_impl);
        return;
    }
    auto &dst = impl_->grad->data;
    for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] += src[i];
}

void
Tensor::backward()
{
    if (!impl_)
        throw std::logic_error("Tensor::backward: undefined tensor");
    if (impl_->data.size() != 1) {
        throw std::logic_error(
            "Tensor::backward: implicit gradient only for scalars");
    }
    autograd::backward(*this, Tensor::full(impl_->shape, 1.0f));
}

Tensor
Tensor::detach() const
{
    assert(impl_);
    auto impl = makeImpl(impl_->shape);
    std::copy(impl_->data.begin(), impl_->data.end(), impl->data.begin());
    Tensor out(std::move(impl));
    // detach creates a fresh impl, so without this hook a captured
    // graph would see the value chain silently end here.
    if (graph::captureActive())
        graph::captureNonDiff("detach", {this}, out);
    return out;
}

Tensor
Tensor::clone() const
{
    return detach();
}

void
Tensor::fill(float value)
{
    assert(impl_);
    std::fill(impl_->data.begin(), impl_->data.end(), value);
}

void
Tensor::copyFrom(const Tensor &src)
{
    assert(impl_ && src.defined());
    if (src.impl()->data.size() != impl_->data.size())
        throw std::invalid_argument("Tensor::copyFrom: numel mismatch");
    impl_->data = src.impl()->data;
}

NoGradGuard::NoGradGuard() : previous_(tl_grad_mode)
{
    tl_grad_mode = false;
}

NoGradGuard::~NoGradGuard()
{
    tl_grad_mode = previous_;
}

bool
gradModeEnabled()
{
    return tl_grad_mode;
}

} // namespace aib
