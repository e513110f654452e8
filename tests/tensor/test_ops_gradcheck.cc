/**
 * @file
 * Gradient checks: every differentiable operator is verified against
 * central finite differences on small random inputs.
 */

#include <gtest/gtest.h>

#include "tensor/graphopt_mode.h"
#include "tensor/ops.h"
#include "testing/gradcheck.h"

namespace aib {
namespace {

using testing::expectGradientsMatch;

Rng &
rng()
{
    static Rng r(1234);
    return r;
}

TEST(GradCheck, Add)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::add(in[0], in[1]));
        },
        {Tensor::randn({2, 3}, rng()), Tensor::randn({2, 3}, rng())});
}

TEST(GradCheck, AddBroadcast)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::mul(ops::add(in[0], in[1]), in[0]));
        },
        {Tensor::randn({2, 3}, rng()), Tensor::randn({3}, rng())});
}

TEST(GradCheck, SubMulDiv)
{
    Tensor denom = Tensor::rand({2, 2}, rng(), 0.5f, 2.0f);
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(
                ops::div(ops::mul(ops::sub(in[0], in[1]), in[0]), in[2]));
        },
        {Tensor::randn({2, 2}, rng()), Tensor::randn({2, 2}, rng()),
         denom});
}

TEST(GradCheck, BroadcastChannelBias)
{
    // (N,C,H,W) + (C,1,1), the conv-bias pattern.
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::square(ops::add(in[0], in[1])));
        },
        {Tensor::randn({2, 3, 2, 2}, rng()),
         Tensor::randn({3, 1, 1}, rng())});
}

TEST(GradCheck, Unaries)
{
    Tensor pos = Tensor::rand({3, 3}, rng(), 0.2f, 2.0f);
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            Tensor t = ops::tanh(in[0]);
            Tensor s = ops::sigmoid(in[0]);
            Tensor e = ops::exp(ops::mulScalar(in[0], 0.3f));
            Tensor l = ops::log(in[1]);
            Tensor q = ops::sqrt(in[1]);
            return ops::sum(
                ops::add(ops::add(t, s), ops::add(e, ops::add(l, q))));
        },
        {Tensor::randn({3, 3}, rng()), pos});
}

TEST(GradCheck, ReluAndLeaky)
{
    // Shift away from the kink at 0 to keep finite differences valid.
    Tensor x = Tensor::randn({4, 4}, rng());
    float *p = x.data();
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        if (std::fabs(p[i]) < 0.05f)
            p[i] = 0.2f;
    }
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::add(ops::relu(in[0]),
                                     ops::leakyRelu(in[0], 0.1f)));
        },
        {x});
}

TEST(GradCheck, SquareAbsClamp)
{
    Tensor x = Tensor::rand({3, 3}, rng(), 0.1f, 0.9f);
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::add(
                ops::square(in[0]),
                ops::add(ops::abs(in[0]), ops::clamp(in[0], 0.0f, 1.0f))));
        },
        {x});
}

TEST(GradCheck, Reductions)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            Tensor s = ops::sumDim(in[0], 1);
            Tensor m = ops::meanDim(in[0], 0);
            return ops::add(ops::mean(ops::square(s)),
                            ops::sum(ops::square(m)));
        },
        {Tensor::randn({3, 4}, rng())});
}

TEST(GradCheck, SumDimMiddleAxis)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::square(ops::sumDim(in[0], 1)));
        },
        {Tensor::randn({2, 3, 4}, rng())});
}

TEST(GradCheck, SoftmaxAndLogSoftmax)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            Tensor sm = ops::softmax(in[0]);
            Tensor lsm = ops::logSoftmax(in[0]);
            return ops::add(ops::sum(ops::square(sm)),
                            ops::mean(ops::square(lsm)));
        },
        {Tensor::randn({3, 5}, rng())});
}

TEST(GradCheck, CrossEntropy)
{
    std::vector<int> targets{1, 0, 3};
    expectGradientsMatch(
        [targets](const std::vector<Tensor> &in) {
            return ops::crossEntropyLogits(in[0], targets);
        },
        {Tensor::randn({3, 4}, rng())});
}

TEST(GradCheck, Matmul)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::square(ops::matmul(in[0], in[1])));
        },
        {Tensor::randn({3, 4}, rng()), Tensor::randn({4, 2}, rng())});
}

TEST(GradCheck, Bmm)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::square(ops::bmm(in[0], in[1])));
        },
        {Tensor::randn({2, 3, 4}, rng()),
         Tensor::randn({2, 4, 2}, rng())});
}

TEST(GradCheck, TransposeAndPermute)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            Tensor t = ops::transposeLast2(in[0]);
            Tensor p = ops::permute(in[0], {1, 0, 2});
            return ops::add(ops::sum(ops::square(t)),
                            ops::sum(ops::square(ops::mul(p, p))));
        },
        {Tensor::randn({2, 3, 4}, rng())});
}

TEST(GradCheck, ReshapeSliceConcat)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            Tensor r = ops::reshape(in[0], {4, 3});
            Tensor s = ops::sliceDim(in[0], 1, 1, 3);
            Tensor c = ops::concat({in[0], in[0]}, 0);
            return ops::add(
                ops::sum(ops::square(r)),
                ops::add(ops::sum(ops::square(s)),
                         ops::mean(ops::square(c))));
        },
        {Tensor::randn({2, 6}, rng())});
}

TEST(GradCheck, EmbeddingLookup)
{
    std::vector<int> idx{0, 2, 2, 1};
    expectGradientsMatch(
        [idx](const std::vector<Tensor> &in) {
            return ops::sum(ops::square(ops::embeddingLookup(in[0], idx)));
        },
        {Tensor::randn({3, 4}, rng())});
}

TEST(GradCheck, Conv2d)
{
    // Mean-squared loss keeps the magnitude small enough for float32
    // central differences.
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::mean(
                ops::square(ops::conv2d(in[0], in[1], in[2], 1, 1)));
        },
        {Tensor::randn({2, 2, 5, 5}, rng()),
         Tensor::randn({3, 2, 3, 3}, rng()), Tensor::randn({3}, rng())},
        1e-2f, 3e-2f);
}

TEST(GradCheck, Conv2dStride2NoBias)
{
    // The loss is exactly quadratic in each scalar input, so the wider
    // step has zero truncation error and much less float cancellation
    // noise than the default eps.
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(
                ops::square(ops::conv2d(in[0], in[1], Tensor(), 2, 1)));
        },
        {Tensor::randn({1, 2, 6, 6}, rng()),
         Tensor::randn({2, 2, 3, 3}, rng())},
        1e-2f);
}

TEST(GradCheck, ConvTranspose2d)
{
    // Wider step for the same reason as Conv2dStride2NoBias.
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::square(
                ops::convTranspose2d(in[0], in[1], in[2], 2, 1)));
        },
        {Tensor::randn({1, 3, 4, 4}, rng()),
         Tensor::randn({3, 2, 4, 4}, rng()), Tensor::randn({2}, rng())},
        1e-2f);
}

TEST(GradCheck, FusedConvActWithInputGradient)
{
    // The fused epilogue's backward, input gradient included; a smooth
    // act keeps central differences away from a kink. Its own
    // generator, so the tests after it draw the same inputs.
    Rng local(4242);
    graphopt::ModeGuard fuse(graphopt::Mode{true, false});
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::mean(ops::square(ops::fused::conv2dAct(
                in[0], in[1], in[2], 1, 1, ops::Act::Tanh)));
        },
        {Tensor::randn({2, 2, 5, 5}, local),
         Tensor::randn({3, 2, 3, 3}, local), Tensor::randn({3}, local)},
        1e-2f, 3e-2f);
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::mean(ops::square(ops::fused::convTranspose2dAct(
                in[0], in[1], in[2], 2, 1, ops::Act::Sigmoid)));
        },
        {Tensor::randn({1, 3, 4, 4}, local),
         Tensor::randn({3, 2, 4, 4}, local), Tensor::randn({2}, local)},
        1e-2f, 3e-2f);
}

TEST(GradCheck, Pooling)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            Tensor mp = ops::maxPool2d(in[0], 2, 2);
            Tensor ap = ops::avgPool2d(in[0], 2, 2);
            Tensor gp = ops::globalAvgPool2d(in[0]);
            return ops::add(ops::sum(ops::square(mp)),
                            ops::add(ops::sum(ops::square(ap)),
                                     ops::sum(ops::square(gp))));
        },
        {Tensor::randn({2, 2, 4, 4}, rng())});
}

TEST(GradCheck, BatchNorm2d)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::square(
                ops::batchNorm2d(in[0], in[1], in[2], 1e-5f)));
        },
        {Tensor::randn({3, 2, 3, 3}, rng()),
         Tensor::rand({2}, rng(), 0.5f, 1.5f),
         Tensor::randn({2}, rng())},
        1e-2f, 5e-2f);
}

TEST(GradCheck, LayerNorm)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(
                ops::square(ops::layerNorm(in[0], in[1], in[2], 1e-5f)));
        },
        {Tensor::randn({4, 6}, rng()),
         Tensor::rand({6}, rng(), 0.5f, 1.5f),
         Tensor::randn({6}, rng())},
        1e-2f, 5e-2f);
}

TEST(GradCheck, AffineGridAndGridSample)
{
    Tensor theta = Tensor::fromVector(
        {1, 2, 3}, {1.0f, 0.05f, 0.1f, -0.05f, 1.0f, -0.1f});
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            Tensor grid = ops::affineGrid(in[1], 1, 4, 4);
            return ops::sum(ops::square(ops::gridSample(in[0], grid)));
        },
        {Tensor::randn({1, 2, 4, 4}, rng()), theta}, 1e-3f, 5e-2f);
}

TEST(GradCheck, MseLoss)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::mseLoss(in[0], in[1]);
        },
        {Tensor::randn({3, 3}, rng()), Tensor::randn({3, 3}, rng())});
}

TEST(GradCheck, RepeatRows)
{
    expectGradientsMatch(
        [](const std::vector<Tensor> &in) {
            return ops::sum(ops::square(ops::repeatRows(in[0], 3)));
        },
        {Tensor::randn({1, 4}, rng())});
}

TEST(GradCheck, DeepChainDoesNotOverflow)
{
    // A 200-op chain exercises the iterative topological sort.
    Tensor x = Tensor::full({4}, 1.001f).setRequiresGrad(true);
    Tensor y = x;
    for (int i = 0; i < 200; ++i)
        y = ops::mulScalar(y, 1.0f);
    ops::sum(y).backward();
    for (float g : x.grad().toVector())
        EXPECT_NEAR(g, 1.0f, 1e-5f);
}

} // namespace
} // namespace aib
