/**
 * @file
 * Tests for the energy model, trace CSV export, and checkpoint
 * serialization.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/runner.h"
#include "gpusim/kernel_model.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "profiler/trace.h"
#include "tensor/ops.h"

namespace aib {
namespace {

TEST(Energy, ScalesWithWorkAndStaysBounded)
{
    profiler::TraceSession small, big;
    {
        profiler::ScopedTrace scope(small);
        profiler::record("k", profiler::KernelCategory::Gemm, 1e9,
                         1e8, 1e8, 1e6);
    }
    {
        profiler::ScopedTrace scope(big);
        profiler::record("k", profiler::KernelCategory::Gemm, 1e12,
                         1e11, 1e11, 1e6);
    }
    const auto device = gpusim::titanXp();
    const auto sim_small = gpusim::simulateTrace(small, device);
    const auto sim_big = gpusim::simulateTrace(big, device);
    const double e_small =
        gpusim::simulatedEnergyJoules(sim_small, device);
    const double e_big = gpusim::simulatedEnergyJoules(sim_big, device);
    EXPECT_GT(e_big, e_small * 100.0);
    // Power stays within [idle, tdp].
    EXPECT_GE(e_big / sim_big.totalTimeSec, device.idleWatts);
    EXPECT_LE(e_big / sim_big.totalTimeSec, device.tdpWatts);
}

TEST(Energy, RtxDrawsMorePowerButFinishesFaster)
{
    profiler::TraceSession trace;
    {
        profiler::ScopedTrace scope(trace);
        profiler::record("k", profiler::KernelCategory::Convolution,
                         1e12, 1e10, 1e10, 1e7);
    }
    const auto xp = gpusim::titanXp();
    const auto rtx = gpusim::titanRtx();
    const auto sim_xp = gpusim::simulateTrace(trace, xp);
    const auto sim_rtx = gpusim::simulateTrace(trace, rtx);
    EXPECT_LT(sim_rtx.totalTimeSec, sim_xp.totalTimeSec);
    EXPECT_GT(rtx.tdpWatts, xp.tdpWatts);
}

TEST(TraceCsv, ContainsHeaderAndRows)
{
    profiler::TraceSession trace;
    {
        profiler::ScopedTrace scope(trace);
        profiler::record("gemm_x", profiler::KernelCategory::Gemm,
                         100.0, 40.0, 20.0, 10.0);
        profiler::record("relu_y", profiler::KernelCategory::Relu, 5.0,
                         4.0, 4.0, 5.0);
    }
    const std::string csv = profiler::toCsv(trace);
    EXPECT_NE(csv.find("kernel,category,launches"), std::string::npos);
    EXPECT_NE(csv.find("gemm_x,GEMM,1"), std::string::npos);
    EXPECT_NE(csv.find("relu_y,Relu,1"), std::string::npos);
    // Header + two rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

class CheckpointTest : public ::testing::Test
{
  protected:
    std::string
    tempPath() const
    {
        return ::testing::TempDir() + "aib_ckpt_test.bin";
    }

    void TearDown() override { std::remove(tempPath().c_str()); }
};

TEST_F(CheckpointTest, RoundTripRestoresParameters)
{
    Rng rng(3);
    nn::Sequential net;
    net.emplace<nn::Linear>(4, 8, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Linear>(8, 2, rng);

    nn::saveCheckpoint(net, tempPath());
    const auto before = net.parameters();
    std::vector<std::vector<float>> saved;
    for (const Tensor &p : before)
        saved.push_back(p.toVector());

    // Perturb, then restore.
    for (Tensor &p : net.parameters())
        p.fill(0.0f);
    nn::loadCheckpoint(net, tempPath());
    std::size_t i = 0;
    for (const Tensor &p : net.parameters())
        EXPECT_EQ(p.toVector(), saved[i++]);
}

TEST_F(CheckpointTest, RestoredModelGivesIdenticalOutputs)
{
    Rng rng(5);
    nn::Linear net(6, 3, rng);
    Tensor x = Tensor::randn({4, 6}, rng);
    Tensor y_before = net.forward(x);
    nn::saveCheckpoint(net, tempPath());

    nn::Linear other(6, 3, rng); // different random init
    nn::loadCheckpoint(other, tempPath());
    Tensor y_after = other.forward(x);
    EXPECT_EQ(y_before.toVector(), y_after.toVector());
}

TEST_F(CheckpointTest, MismatchesAreRejected)
{
    Rng rng(6);
    nn::Linear a(4, 4, rng);
    nn::saveCheckpoint(a, tempPath());

    nn::Linear wrong_shape(4, 5, rng);
    EXPECT_THROW(nn::loadCheckpoint(wrong_shape, tempPath()),
                 std::runtime_error);

    nn::Sequential wrong_count;
    wrong_count.emplace<nn::Linear>(4, 4, rng);
    wrong_count.emplace<nn::Linear>(4, 4, rng);
    EXPECT_THROW(nn::loadCheckpoint(wrong_count, tempPath()),
                 std::runtime_error);

    EXPECT_THROW(nn::loadCheckpoint(a, tempPath() + ".missing"),
                 std::runtime_error);
}

TEST_F(CheckpointTest, CorruptMagicRejected)
{
    {
        std::ofstream out(tempPath(), std::ios::binary);
        out << "NOTACKPT-garbage";
    }
    Rng rng(8);
    nn::Linear net(2, 2, rng);
    EXPECT_THROW(nn::loadCheckpoint(net, tempPath()),
                 std::runtime_error);
}

TEST_F(CheckpointTest, TrainedBenchmarkModelRoundTrips)
{
    const auto *b = core::findBenchmark("DC-AI-C10");
    seedGlobalRng(9);
    auto task = b->makeTask(9);
    task->runEpoch();
    const double quality = task->evaluate();
    nn::saveCheckpoint(task->model(), tempPath());

    auto task2 = b->makeTask(9); // same seed -> same eval data
    nn::loadCheckpoint(task2->model(), tempPath());
    EXPECT_DOUBLE_EQ(task2->evaluate(), quality);
}

} // namespace
} // namespace aib
