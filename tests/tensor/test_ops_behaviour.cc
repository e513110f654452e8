/**
 * @file
 * Value-level behaviour tests for tensor operators: shapes, known
 * results, error handling, and numeric edge cases.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/alloctrack.h"
#include "tensor/autograd.h"
#include "tensor/graphopt_mode.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace aib {
namespace {

TEST(OpsBehaviour, AddBroadcastTrailing)
{
    Tensor a = Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b = Tensor::fromVector({3}, {10, 20, 30});
    Tensor c = ops::add(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 3}));
    EXPECT_FLOAT_EQ(c.at({0, 0}), 11);
    EXPECT_FLOAT_EQ(c.at({1, 2}), 36);
}

TEST(OpsBehaviour, AddBroadcastGeneralStrided)
{
    Tensor a = Tensor::fromVector({2, 1, 2}, {1, 2, 3, 4});
    Tensor b = Tensor::fromVector({1, 3, 1}, {10, 20, 30});
    Tensor c = ops::add(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 3, 2}));
    EXPECT_FLOAT_EQ(c.at({0, 0, 0}), 11);
    EXPECT_FLOAT_EQ(c.at({0, 2, 1}), 32);
    EXPECT_FLOAT_EQ(c.at({1, 1, 0}), 23);
}

TEST(OpsBehaviour, BroadcastIncompatibleThrows)
{
    Tensor a = Tensor::zeros({2, 3});
    Tensor b = Tensor::zeros({4});
    EXPECT_THROW(ops::add(a, b), std::invalid_argument);
}

TEST(OpsBehaviour, MatmulKnownResult)
{
    Tensor a = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
    Tensor b = Tensor::fromVector({2, 2}, {5, 6, 7, 8});
    Tensor c = ops::matmul(a, b);
    EXPECT_FLOAT_EQ(c.at({0, 0}), 19);
    EXPECT_FLOAT_EQ(c.at({0, 1}), 22);
    EXPECT_FLOAT_EQ(c.at({1, 0}), 43);
    EXPECT_FLOAT_EQ(c.at({1, 1}), 50);
    EXPECT_THROW(ops::matmul(a, Tensor::zeros({3, 2})),
                 std::invalid_argument);
}

TEST(OpsBehaviour, BmmMatchesPerBatchMatmul)
{
    Rng rng(7);
    Tensor a = Tensor::randn({3, 2, 4}, rng);
    Tensor b = Tensor::randn({3, 4, 5}, rng);
    Tensor c = ops::bmm(a, b);
    for (std::int64_t i = 0; i < 3; ++i) {
        Tensor ai = ops::sliceDim(a, 0, i, i + 1);
        Tensor bi = ops::sliceDim(b, 0, i, i + 1);
        Tensor mi = ops::matmul(ops::reshape(ai, {2, 4}),
                                ops::reshape(bi, {4, 5}));
        for (std::int64_t r = 0; r < 2; ++r)
            for (std::int64_t s = 0; s < 5; ++s)
                EXPECT_NEAR(c.at({i, r, s}), mi.at({r, s}), 1e-4f);
    }
}

TEST(OpsBehaviour, SoftmaxRowsSumToOne)
{
    Rng rng(3);
    Tensor x = Tensor::randn({4, 7}, rng);
    Tensor y = ops::softmax(x);
    for (std::int64_t r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (std::int64_t c = 0; c < 7; ++c) {
            const float v = y.at({r, c});
            EXPECT_GT(v, 0.0f);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(OpsBehaviour, SoftmaxIsShiftInvariantAndStable)
{
    Tensor x = Tensor::fromVector({1, 3}, {1000.0f, 1001.0f, 1002.0f});
    Tensor y = ops::softmax(x);
    EXPECT_FALSE(std::isnan(y.at({0, 0})));
    Tensor x2 = Tensor::fromVector({1, 3}, {0.0f, 1.0f, 2.0f});
    Tensor y2 = ops::softmax(x2);
    for (std::int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(y.at({0, i}), y2.at({0, i}), 1e-5f);
}

TEST(OpsBehaviour, LogSoftmaxMatchesLogOfSoftmax)
{
    Rng rng(11);
    Tensor x = Tensor::randn({3, 5}, rng);
    Tensor a = ops::logSoftmax(x);
    Tensor b = ops::log(ops::softmax(x));
    for (std::int64_t i = 0; i < x.numel(); ++i)
        EXPECT_NEAR(a.data()[i], b.data()[i], 1e-5f);
}

TEST(OpsBehaviour, ArgmaxAndMax)
{
    Tensor x = Tensor::fromVector({2, 3}, {1, 5, 2, 9, 0, 3});
    Tensor am = ops::argmaxLastDim(x);
    Tensor mx = ops::maxLastDim(x);
    EXPECT_FLOAT_EQ(am.at({0}), 1);
    EXPECT_FLOAT_EQ(am.at({1}), 0);
    EXPECT_FLOAT_EQ(mx.at({0}), 5);
    EXPECT_FLOAT_EQ(mx.at({1}), 9);
}

TEST(OpsBehaviour, CrossEntropyMatchesManual)
{
    Tensor logits = Tensor::fromVector({2, 2}, {2.0f, 0.0f, 0.0f, 2.0f});
    const std::vector<int> targets{0, 0};
    Tensor loss = ops::crossEntropyLogits(logits, targets);
    // Row 0: -log(e^2/(e^2+1)); row 1: -log(1/(1+e^2)).
    const float l0 = -std::log(std::exp(2.0f) / (std::exp(2.0f) + 1.0f));
    const float l1 = -std::log(1.0f / (1.0f + std::exp(2.0f)));
    EXPECT_NEAR(loss.item(), 0.5f * (l0 + l1), 1e-5f);
}

TEST(OpsBehaviour, Conv2dIdentityKernel)
{
    // 1x1 kernel with weight 1 reproduces the input.
    Rng rng(5);
    Tensor x = Tensor::randn({1, 1, 3, 3}, rng);
    Tensor w = Tensor::ones({1, 1, 1, 1});
    Tensor y = ops::conv2d(x, w, Tensor(), 1, 0);
    EXPECT_EQ(y.shape(), x.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i)
        EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
}

TEST(OpsBehaviour, Conv2dKnownSum)
{
    // 3x3 all-ones kernel on all-ones input, valid region = 9.
    Tensor x = Tensor::ones({1, 1, 5, 5});
    Tensor w = Tensor::ones({1, 1, 3, 3});
    Tensor y = ops::conv2d(x, w, Tensor(), 1, 0);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
    for (std::int64_t i = 0; i < y.numel(); ++i)
        EXPECT_FLOAT_EQ(y.data()[i], 9.0f);
}

TEST(OpsBehaviour, Conv2dPaddingShrinksBorderSums)
{
    Tensor x = Tensor::ones({1, 1, 3, 3});
    Tensor w = Tensor::ones({1, 1, 3, 3});
    Tensor y = ops::conv2d(x, w, Tensor(), 1, 1);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
    EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 9.0f);
    EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 4.0f);
    EXPECT_FLOAT_EQ(y.at({0, 0, 0, 1}), 6.0f);
}

TEST(OpsBehaviour, ConvTransposeInvertsStride2Shape)
{
    Rng rng(9);
    Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
    Tensor w = Tensor::randn({3, 2, 4, 4}, rng);
    Tensor y = ops::convTranspose2d(x, w, Tensor(), 2, 1);
    EXPECT_EQ(y.shape(), (Shape{2, 2, 8, 8}));
}

TEST(OpsBehaviour, MaxPoolPicksMaxima)
{
    Tensor x = Tensor::fromVector(
        {1, 1, 4, 4},
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    Tensor y = ops::maxPool2d(x, 2, 2);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 6);
    EXPECT_FLOAT_EQ(y.at({0, 0, 0, 1}), 8);
    EXPECT_FLOAT_EQ(y.at({0, 0, 1, 0}), 14);
    EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 16);
}

TEST(OpsBehaviour, AvgPoolAverages)
{
    Tensor x = Tensor::fromVector({1, 1, 2, 2}, {1, 3, 5, 7});
    Tensor y = ops::avgPool2d(x, 2, 2);
    EXPECT_FLOAT_EQ(y.item(), 4.0f);
}

TEST(OpsBehaviour, BatchNormNormalizesChannels)
{
    Rng rng(21);
    Tensor x = Tensor::randn({4, 2, 3, 3}, rng);
    Tensor gamma = Tensor::ones({2});
    Tensor beta = Tensor::zeros({2});
    Tensor mean_t, var_t;
    Tensor y = ops::batchNorm2d(x, gamma, beta, 1e-5f, &mean_t, &var_t);
    // Per-channel mean of the output should be ~0, variance ~1.
    for (std::int64_t ch = 0; ch < 2; ++ch) {
        double sum = 0.0, sq = 0.0;
        std::int64_t count = 0;
        for (std::int64_t n = 0; n < 4; ++n)
            for (std::int64_t i = 0; i < 3; ++i)
                for (std::int64_t j = 0; j < 3; ++j) {
                    const float v = y.at({n, ch, i, j});
                    sum += v;
                    sq += v * v;
                    ++count;
                }
        EXPECT_NEAR(sum / count, 0.0, 1e-4);
        EXPECT_NEAR(sq / count, 1.0, 1e-3);
    }
    EXPECT_EQ(mean_t.shape(), (Shape{2}));
    EXPECT_EQ(var_t.shape(), (Shape{2}));
}

TEST(OpsBehaviour, LayerNormRows)
{
    Rng rng(22);
    Tensor x = Tensor::randn({5, 8}, rng);
    Tensor y = ops::layerNorm(x, Tensor::ones({8}), Tensor::zeros({8}),
                              1e-5f);
    for (std::int64_t r = 0; r < 5; ++r) {
        double sum = 0.0, sq = 0.0;
        for (std::int64_t c = 0; c < 8; ++c) {
            const float v = y.at({r, c});
            sum += v;
            sq += v * v;
        }
        EXPECT_NEAR(sum / 8.0, 0.0, 1e-4);
        EXPECT_NEAR(sq / 8.0, 1.0, 1e-3);
    }
}

TEST(OpsBehaviour, AffineGridIdentityThenSampleReproducesInput)
{
    Rng rng(31);
    Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
    Tensor theta =
        Tensor::fromVector({1, 2, 3}, {1, 0, 0, 0, 1, 0});
    Tensor grid = ops::affineGrid(theta, 1, 5, 5);
    Tensor y = ops::gridSample(x, grid);
    for (std::int64_t i = 0; i < x.numel(); ++i)
        EXPECT_NEAR(y.data()[i], x.data()[i], 1e-5f);
}

TEST(OpsBehaviour, GridSampleOutOfBoundsIsZero)
{
    Tensor x = Tensor::ones({1, 1, 2, 2});
    // Grid far outside [-1,1] samples nothing.
    Tensor grid = Tensor::full({1, 1, 1, 2}, 5.0f);
    Tensor y = ops::gridSample(x, grid);
    EXPECT_FLOAT_EQ(y.item(), 0.0f);
}

TEST(OpsBehaviour, DropoutTrainAndEval)
{
    Rng rng(17);
    Tensor x = Tensor::ones({1000});
    Tensor eval = ops::dropout(x, 0.5f, false, rng);
    EXPECT_EQ(eval.impl().get(), x.impl().get());

    Tensor train = ops::dropout(x, 0.5f, true, rng);
    std::int64_t zeros = 0;
    double sum = 0.0;
    for (float v : train.toVector()) {
        if (v == 0.0f)
            ++zeros;
        sum += v;
    }
    // Roughly half dropped, inverted scaling keeps the mean near 1.
    EXPECT_GT(zeros, 350);
    EXPECT_LT(zeros, 650);
    EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);
}

TEST(OpsBehaviour, ReluBackwardBitsMatchTheScalarFormula)
{
    // Every pair of signed zeros, infinities, quiet NaNs (one negative
    // with a payload), subnormals and normals as (x, g). Signaling NaNs
    // are left out: a compiler may fold g * 1 to g, which differs from
    // the multiply only in quieting them.
    const std::uint32_t patterns[] = {
        0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u,
        0x7fc00000u, 0xffc00123u, 0x00000001u, 0x80000001u,
        0x00400000u, 0x80400000u, 0x3fc00000u, 0xc0100000u,
        0x7f7fffffu};
    std::vector<float> values;
    for (std::uint32_t u : patterns) {
        float f;
        std::memcpy(&f, &u, sizeof(f));
        values.push_back(f);
    }
    std::vector<float> xs, gs;
    for (float x : values)
        for (float g : values) {
            xs.push_back(x);
            gs.push_back(g);
        }
    const auto n = static_cast<std::int64_t>(xs.size());
    for (const float slope : {0.0f, 0.01f, -0.5f}) {
        Tensor x = Tensor::fromVector({n}, xs).setRequiresGrad(true);
        Tensor y = slope == 0.0f ? ops::relu(x) : ops::leakyRelu(x, slope);
        autograd::backward(y, Tensor::fromVector({n}, gs));
        std::vector<float> want(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i)
            want[i] = gs[i] * (xs[i] > 0.0f ? 1.0f : slope);
        const float *got = x.grad().data();
        EXPECT_EQ(std::memcmp(got, want.data(), want.size() * sizeof(float)),
                  0)
            << "slope " << slope;
    }
}

TEST(OpsBehaviour, EmbeddingLookupSelectsRows)
{
    Tensor table = Tensor::fromVector({3, 2}, {0, 1, 10, 11, 20, 21});
    Tensor out = ops::embeddingLookup(table, {2, 0});
    EXPECT_FLOAT_EQ(out.at({0, 0}), 20);
    EXPECT_FLOAT_EQ(out.at({1, 1}), 1);
    EXPECT_THROW(ops::embeddingLookup(table, {3}), std::out_of_range);
}

TEST(OpsBehaviour, ReshapeInfersDimension)
{
    Tensor x = Tensor::arange(12);
    Tensor y = ops::reshape(x, {3, -1});
    EXPECT_EQ(y.shape(), (Shape{3, 4}));
    EXPECT_THROW(ops::reshape(x, {5, -1}), std::invalid_argument);
    EXPECT_THROW(ops::reshape(x, {-1, -1}), std::invalid_argument);
}

TEST(OpsBehaviour, ConcatValidation)
{
    Tensor a = Tensor::zeros({2, 3});
    Tensor b = Tensor::zeros({2, 4});
    EXPECT_EQ(ops::concat({a, b}, 1).shape(), (Shape{2, 7}));
    EXPECT_THROW(ops::concat({a, b}, 0), std::invalid_argument);
    EXPECT_THROW(ops::concat({}, 0), std::invalid_argument);
}

/** The gradients a conv-family node hands back, and what they cost. */
struct ConvBackward {
    std::vector<Tensor> grads; ///< d/input, d/weight, d/bias
    std::uint64_t bytes = 0;   ///< tensor storage its backward allocated
    std::int64_t inputNumel = 0;
};

/**
 * One conv2d or convTranspose2d (stride 2, padding 1) through the fused
 * entry, so an act other than None runs in the conv's own epilogue,
 * and its node's backward on a fixed output gradient.
 */
ConvBackward
convBackward(bool transpose, bool with_bias, ops::Act act, bool input_grad)
{
    Rng rng(17);
    Tensor input = Tensor::randn({2, 3, 6, 6}, rng);
    Tensor weight = transpose ? Tensor::randn({3, 4, 3, 3}, rng)
                              : Tensor::randn({4, 3, 3, 3}, rng);
    Tensor bias = with_bias ? Tensor::randn({4}, rng) : Tensor();
    input.setRequiresGrad(input_grad);
    weight.setRequiresGrad(true);
    if (with_bias)
        bias.setRequiresGrad(true);
    graphopt::ModeGuard fuse(graphopt::Mode{true, false});
    Tensor out =
        transpose
            ? ops::fused::convTranspose2dAct(input, weight, bias, 2, 1, act)
            : ops::fused::conv2dAct(input, weight, bias, 2, 1, act);
    const Tensor g = Tensor::randn(out.shape(), rng);
    ConvBackward r;
    r.inputNumel = input.numel();
    const std::uint64_t before = alloctrack::snapshot().totalBytes;
    {
        NoGradGuard no_grad;
        r.grads = out.gradFn()->backward(g);
    }
    r.bytes = alloctrack::snapshot().totalBytes - before;
    return r;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.defined() == b.defined() &&
           (!a.defined() ||
            (a.shape() == b.shape() &&
             std::memcmp(a.data(), b.data(),
                         static_cast<std::size_t>(a.numel()) *
                             sizeof(float)) == 0));
}

TEST(ConvInputGradient, AnInputThatNeedsNoGradientGetsNoneAndNoBuffer)
{
    for (const bool transpose : {false, true})
        for (const bool with_bias : {false, true})
            for (const ops::Act act : {ops::Act::None, ops::Act::Relu}) {
                SCOPED_TRACE(::testing::Message()
                             << (transpose ? "convTranspose2d" : "conv2d")
                             << (with_bias ? " with bias" : " no bias")
                             << " act " << static_cast<int>(act));
                const ConvBackward with =
                    convBackward(transpose, with_bias, act, true);
                const ConvBackward without =
                    convBackward(transpose, with_bias, act, false);
                ASSERT_EQ(with.grads.size(), 3u);
                ASSERT_EQ(without.grads.size(), 3u);
                EXPECT_TRUE(with.grads[0].defined());
                EXPECT_FALSE(without.grads[0].defined());
                // The data gradient's buffer is all the backward saves.
                EXPECT_EQ(with.bytes - without.bytes,
                          static_cast<std::uint64_t>(with.inputNumel) *
                              sizeof(float));
                EXPECT_TRUE(sameBits(with.grads[1], without.grads[1]));
                EXPECT_TRUE(sameBits(with.grads[2], without.grads[2]));
                EXPECT_EQ(without.grads[2].defined(), with_bias);
            }
}

} // namespace
} // namespace aib
