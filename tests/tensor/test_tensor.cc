/**
 * @file
 * Unit tests for the Tensor core: factories, accessors, autograd
 * bookkeeping, and grad-mode switching.
 */

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace aib {
namespace {

TEST(Tensor, FactoriesProduceExpectedValues)
{
    Tensor z = Tensor::zeros({2, 3});
    EXPECT_EQ(z.numel(), 6);
    for (float v : z.toVector())
        EXPECT_EQ(v, 0.0f);

    Tensor o = Tensor::ones({4});
    for (float v : o.toVector())
        EXPECT_EQ(v, 1.0f);

    Tensor f = Tensor::full({2, 2}, 3.5f);
    EXPECT_EQ(f.at({1, 1}), 3.5f);

    Tensor a = Tensor::arange(5);
    EXPECT_EQ(a.at({3}), 3.0f);

    Tensor s = Tensor::scalar(2.5f);
    EXPECT_EQ(s.item(), 2.5f);
    EXPECT_EQ(s.ndim(), 0);
}

TEST(Tensor, FromVectorValidatesSize)
{
    EXPECT_NO_THROW(Tensor::fromVector({2, 2}, {1, 2, 3, 4}));
    EXPECT_THROW(Tensor::fromVector({2, 2}, {1, 2, 3}),
                 std::invalid_argument);
}

TEST(Tensor, AtAndSetRoundTrip)
{
    Tensor t = Tensor::zeros({2, 3});
    t.set({1, 2}, 7.0f);
    EXPECT_EQ(t.at({1, 2}), 7.0f);
    EXPECT_EQ(t.at({0, 2}), 0.0f);
    EXPECT_THROW(t.at({2, 0}), std::out_of_range);
    EXPECT_THROW((void)t.at({0}), std::invalid_argument);
}

TEST(Tensor, CopySharesStorageCloneDoesNot)
{
    Tensor a = Tensor::zeros({3});
    Tensor alias = a;
    Tensor deep = a.clone();
    a.data()[0] = 5.0f;
    EXPECT_EQ(alias.at({0}), 5.0f);
    EXPECT_EQ(deep.at({0}), 0.0f);
}

TEST(Tensor, NegativeDimIndexing)
{
    Tensor t = Tensor::zeros({2, 3, 4});
    EXPECT_EQ(t.dim(-1), 4);
    EXPECT_EQ(t.dim(-3), 2);
    EXPECT_THROW(t.dim(3), std::out_of_range);
}

TEST(Tensor, RandnIsSeedDeterministic)
{
    Rng rng1(42), rng2(42);
    Tensor a = Tensor::randn({16}, rng1);
    Tensor b = Tensor::randn({16}, rng2);
    EXPECT_EQ(a.toVector(), b.toVector());
}

TEST(Tensor, BackwardOnScalarAccumulatesLeafGrad)
{
    Tensor x = Tensor::full({3}, 2.0f).setRequiresGrad(true);
    Tensor loss = ops::sum(ops::mul(x, x));
    loss.backward();
    ASSERT_TRUE(x.grad().defined());
    for (float g : x.grad().toVector())
        EXPECT_FLOAT_EQ(g, 4.0f);

    // Second backward accumulates.
    Tensor loss2 = ops::sum(x);
    loss2.backward();
    for (float g : x.grad().toVector())
        EXPECT_FLOAT_EQ(g, 5.0f);

    x.zeroGrad();
    EXPECT_FALSE(x.grad().defined());
}

TEST(Tensor, BackwardRequiresScalar)
{
    Tensor x = Tensor::ones({2}).setRequiresGrad(true);
    Tensor y = ops::mulScalar(x, 2.0f);
    EXPECT_THROW(y.backward(), std::logic_error);
}

TEST(Tensor, NoGradGuardSuppressesGraph)
{
    Tensor x = Tensor::ones({2}).setRequiresGrad(true);
    {
        NoGradGuard guard;
        Tensor y = ops::mulScalar(x, 2.0f);
        EXPECT_EQ(y.gradFn(), nullptr);
        EXPECT_FALSE(gradModeEnabled());
    }
    EXPECT_TRUE(gradModeEnabled());
    Tensor y = ops::mulScalar(x, 2.0f);
    EXPECT_NE(y.gradFn(), nullptr);
}

TEST(Tensor, DetachCutsGraph)
{
    Tensor x = Tensor::ones({2}).setRequiresGrad(true);
    Tensor y = ops::mulScalar(x, 3.0f).detach();
    EXPECT_EQ(y.gradFn(), nullptr);
    EXPECT_FALSE(y.requiresGrad());
    EXPECT_FLOAT_EQ(y.at({0}), 3.0f);
}

TEST(Tensor, DiamondGraphAccumulatesBothPaths)
{
    // y = x*x + x*x: gradient should be 4x.
    Tensor x = Tensor::full({2}, 3.0f).setRequiresGrad(true);
    Tensor a = ops::mul(x, x);
    Tensor b = ops::mul(x, x);
    Tensor loss = ops::sum(ops::add(a, b));
    loss.backward();
    for (float g : x.grad().toVector())
        EXPECT_FLOAT_EQ(g, 12.0f);
}

TEST(Tensor, ReusedTensorInSameOp)
{
    // z = x * x uses the same tensor twice in one node.
    Tensor x = Tensor::full({1}, 5.0f).setRequiresGrad(true);
    Tensor z = ops::mul(x, x);
    ops::sum(z).backward();
    EXPECT_FLOAT_EQ(x.grad().item(), 10.0f);
}

TEST(Tensor, SharedGradientInTwoSlotsIsNotAddedInPlace)
{
    // add's backward hands its incoming gradient itself to both
    // inputs. So the seed reaches the slots of w and s, and through s
    // those of p and q; then w adds into q's slot and v into p's while
    // those still hold the seed.
    Tensor x =
        Tensor::fromVector({3}, {1.0f, -2.0f, 0.5f}).setRequiresGrad(true);
    Tensor p = ops::mulScalar(x, 2.0f);
    Tensor q = ops::mulScalar(x, 3.0f);
    Tensor s = ops::add(p, q);
    Tensor v = ops::mulScalar(p, 5.0f);
    Tensor w = ops::add(q, v);
    Tensor root = ops::add(w, s); // 2q + 6p = 18x
    const std::vector<float> seed_values = {1.0f, 0.25f, -3.0f};
    Tensor seed = Tensor::fromVector({3}, seed_values);
    autograd::backward(root, seed);
    EXPECT_EQ(seed.toVector(), seed_values);
    const std::vector<float> grad = x.grad().toVector();
    for (std::size_t i = 0; i < seed_values.size(); ++i)
        EXPECT_EQ(grad[i], 18.0f * seed_values[i]) << i;
}

TEST(Tensor, AccumulateGradRejectsAGradientOfAnotherSize)
{
    // The first gradient is copied into a buffer of the leaf's size,
    // so a longer one must be refused, not written past its end.
    Tensor leaf = Tensor::zeros({3});
    leaf.setRequiresGrad(true);
    EXPECT_THROW(leaf.accumulateGrad(Tensor::ones({4})),
                 std::invalid_argument);
    EXPECT_FALSE(leaf.grad().defined());
    leaf.accumulateGrad(Tensor::ones({3}));
    EXPECT_THROW(leaf.accumulateGrad(Tensor::ones({2})),
                 std::invalid_argument);
    EXPECT_EQ(leaf.grad().toVector(), (std::vector<float>{1, 1, 1}));
}

TEST(Shape, BroadcastRules)
{
    EXPECT_EQ(broadcastShapes({2, 3}, {3}), (Shape{2, 3}));
    EXPECT_EQ(broadcastShapes({4, 1, 3}, {2, 1}), (Shape{4, 2, 3}));
    EXPECT_EQ(broadcastShapes({}, {5}), (Shape{5}));
    EXPECT_THROW(broadcastShapes({2, 3}, {4}), std::invalid_argument);
}

TEST(Shape, StridesAndNumel)
{
    EXPECT_EQ(numel({2, 3, 4}), 24);
    EXPECT_EQ(numel({}), 1);
    EXPECT_EQ(contiguousStrides({2, 3, 4}),
              (std::vector<std::int64_t>{12, 4, 1}));
}

} // namespace
} // namespace aib
