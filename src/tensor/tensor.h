/**
 * @file
 * Dense float32 tensor with tape-based automatic differentiation.
 *
 * Tensors are contiguous, row-major, reference-counted value types:
 * copying a Tensor aliases the same storage. All differentiable
 * operators live in ops.h and build a dynamic autograd graph; calling
 * @c backward() on a scalar result propagates gradients to every leaf
 * tensor with @c requiresGrad() set.
 */

#ifndef AIB_TENSOR_TENSOR_H
#define AIB_TENSOR_TENSOR_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "tensor/arena.h"
#include "tensor/random.h"
#include "tensor/shape.h"

namespace aib {

namespace autograd {
struct Node;
} // namespace autograd

struct TensorImpl;

/** Reference-counted dense float tensor. */
class Tensor
{
  public:
    /** An undefined (null) tensor. */
    Tensor() = default;

    /** Wrap an existing implementation (autograd internal use). */
    explicit Tensor(std::shared_ptr<TensorImpl> impl)
        : impl_(std::move(impl))
    {}

    /** @name Factories
     * @{
     */
    /**
     * Tensor with uninitialized storage: the caller must write every
     * element before anything reads it. Use zeros() for an output
     * that is accumulated into. Sanitizer builds (AIB_SANITIZE) fill
     * the storage with quiet NaN so that a missed element shows.
     */
    static Tensor empty(const Shape &shape);
    static Tensor zeros(const Shape &shape);
    static Tensor ones(const Shape &shape);
    static Tensor full(const Shape &shape, float value);
    static Tensor fromVector(const Shape &shape, std::vector<float> values);
    /** Scalar (rank-0) tensor. */
    static Tensor scalar(float value);
    /** I.i.d. N(0, 1) entries. */
    static Tensor randn(const Shape &shape, Rng &rng);
    /** I.i.d. uniform [lo, hi) entries. */
    static Tensor rand(const Shape &shape, Rng &rng, float lo = 0.0f,
                       float hi = 1.0f);
    /** arange(0..n-1) as a 1-D tensor. */
    static Tensor arange(std::int64_t n);
    /** @} */

    /** True when the tensor has storage. */
    bool defined() const { return impl_ != nullptr; }

    const Shape &shape() const;
    std::int64_t numel() const;
    /** Rank (number of dimensions). */
    int ndim() const;
    /** Size of dimension @p i (negative counts from the end). */
    std::int64_t dim(int i) const;

    float *data();
    const float *data() const;

    /** Value of a rank-0 or single-element tensor. */
    float item() const;

    /** Element access by multi-index (bounds-checked; for tests). */
    float at(std::initializer_list<std::int64_t> index) const;
    /** Mutable element access by multi-index. */
    void set(std::initializer_list<std::int64_t> index, float value);

    /** Copy values out into a std::vector. */
    std::vector<float> toVector() const;

    /** @name Autograd
     * @{
     */
    bool requiresGrad() const;
    /** Mark as a trainable leaf; returns *this for chaining. */
    Tensor &setRequiresGrad(bool value);
    /** Accumulated gradient (undefined until backward). */
    Tensor grad() const;
    /** Clear the accumulated gradient. */
    void zeroGrad();
    /** Producing autograd node, or nullptr for leaves. */
    const std::shared_ptr<autograd::Node> &gradFn() const;
    void setGradFn(std::shared_ptr<autograd::Node> node);
    /** Accumulate @p g into this tensor's gradient buffer. */
    void accumulateGrad(const Tensor &g);
    /**
     * Backpropagate from this scalar tensor. @p grad defaults to 1.
     */
    void backward();
    /** Same storage, detached from the autograd graph. */
    Tensor detach() const;
    /** Deep copy of the values (detached leaf). */
    Tensor clone() const;
    /** @} */

    /** In-place fill (does not touch the graph; use on leaves). */
    void fill(float value);
    /** In-place copy of values from @p src (same numel). */
    void copyFrom(const Tensor &src);

    /** Underlying implementation (autograd internal use). */
    const std::shared_ptr<TensorImpl> &impl() const { return impl_; }

  private:
    std::shared_ptr<TensorImpl> impl_;
};

/**
 * Tensor storage buffer. Routed through the static arena allocator
 * when graphopt's arena mode is enabled (arena.h), plain heap
 * otherwise; value semantics are identical either way.
 */
using FloatBuffer = std::vector<float, arena::TensorAllocator<float>>;

/** Tensor storage and autograd metadata. */
struct TensorImpl {
    TensorImpl() = default;
    ~TensorImpl(); ///< deregisters accountedBytes (alloctrack.h)
    TensorImpl(const TensorImpl &) = delete;
    TensorImpl &operator=(const TensorImpl &) = delete;

    Shape shape;
    FloatBuffer data;
    bool requiresGrad = false;
    std::shared_ptr<TensorImpl> grad;
    std::shared_ptr<autograd::Node> gradFn;
    /**
     * Storage bytes registered with alloctrack. Set once by
     * tensor.cc's makeImpl, through which every tensor is created,
     * after @c data is sized; 0 for impls that never registered.
     */
    std::size_t accountedBytes = 0;
};

/**
 * Thread-local gradient-mode switch (mirrors torch.no_grad()).
 */
class NoGradGuard
{
  public:
    NoGradGuard();
    ~NoGradGuard();
    NoGradGuard(const NoGradGuard &) = delete;
    NoGradGuard &operator=(const NoGradGuard &) = delete;

  private:
    bool previous_;
};

/** True when operations should record autograd nodes. */
bool gradModeEnabled();

} // namespace aib

#endif // AIB_TENSOR_TENSOR_H
