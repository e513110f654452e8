/**
 * @file
 * Unit tests for the fault-injection registry (core/faultinject.h):
 * one-shot trigger semantics, spec parsing, environment arming, and
 * the tensor-allocation hook.
 */

#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/faultinject.h"
#include "tensor/tensor.h"

namespace fault = aib::core::fault;

namespace {

class FaultInjectTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::resetAll(); }
    void TearDown() override { fault::resetAll(); }
};

TEST_F(FaultInjectTest, UnarmedPointNeverFires)
{
    EXPECT_FALSE(fault::anyArmed());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(fault::fires("runner.epoch"));
    EXPECT_NO_THROW(fault::maybeThrow("runner.epoch"));
}

TEST_F(FaultInjectTest, FiresOnNthPassAndDisarms)
{
    fault::arm("runner.epoch", 3);
    EXPECT_TRUE(fault::anyArmed());
    EXPECT_FALSE(fault::fires("runner.epoch"));
    EXPECT_FALSE(fault::fires("runner.epoch"));
    EXPECT_TRUE(fault::fires("runner.epoch"));
    // One-shot: the fired point is disarmed.
    EXPECT_FALSE(fault::anyArmed());
    EXPECT_FALSE(fault::fires("runner.epoch"));
}

TEST_F(FaultInjectTest, MaybeThrowCarriesPointName)
{
    fault::arm("optim.step", 1);
    try {
        fault::maybeThrow("optim.step");
        FAIL() << "expected FaultInjected";
    } catch (const fault::FaultInjected &e) {
        EXPECT_EQ(e.point(), "optim.step");
        EXPECT_NE(std::string(e.what()).find("optim.step"),
                  std::string::npos);
    }
}

TEST_F(FaultInjectTest, HitsCountPassesEvenAfterDisarm)
{
    fault::arm("runner.epoch", 2);
    (void)fault::fires("runner.epoch");
    (void)fault::fires("runner.epoch"); // fires + disarms
    (void)fault::fires("runner.epoch"); // unarmed pass, not counted
    EXPECT_EQ(fault::hits("runner.epoch"), 2);
}

TEST_F(FaultInjectTest, ParamFallsBackWhenUnarmed)
{
    EXPECT_EQ(fault::param("checkpoint.truncate", -7), -7);
    fault::arm("checkpoint.truncate", 1, 128);
    EXPECT_EQ(fault::param("checkpoint.truncate", -7), 128);
}

TEST_F(FaultInjectTest, RearmingResetsThePassCounter)
{
    fault::arm("runner.epoch", 2);
    EXPECT_FALSE(fault::fires("runner.epoch"));
    fault::arm("runner.epoch", 2);
    EXPECT_FALSE(fault::fires("runner.epoch"));
    EXPECT_TRUE(fault::fires("runner.epoch"));
}

TEST_F(FaultInjectTest, DisarmAndResetAll)
{
    fault::arm("a", 1);
    fault::arm("b", 1);
    fault::disarm("a");
    EXPECT_FALSE(fault::fires("a"));
    EXPECT_TRUE(fault::anyArmed());
    fault::resetAll();
    EXPECT_FALSE(fault::anyArmed());
    EXPECT_FALSE(fault::fires("b"));
    EXPECT_EQ(fault::hits("b"), 0);
}

TEST_F(FaultInjectTest, ArmSpecParsesCountAndParam)
{
    fault::armSpec("checkpoint.corrupt@2:40");
    EXPECT_EQ(fault::param("checkpoint.corrupt", -1), 40);
    EXPECT_FALSE(fault::fires("checkpoint.corrupt"));
    EXPECT_TRUE(fault::fires("checkpoint.corrupt"));

    fault::armSpec("runner.epoch@1");
    EXPECT_TRUE(fault::fires("runner.epoch"));
}

TEST_F(FaultInjectTest, ArmSpecRejectsMalformedSpecs)
{
    EXPECT_THROW(fault::armSpec(""), std::invalid_argument);
    EXPECT_THROW(fault::armSpec("runner.epoch"), std::invalid_argument);
    EXPECT_THROW(fault::armSpec("@2"), std::invalid_argument);
    EXPECT_THROW(fault::armSpec("runner.epoch@"), std::invalid_argument);
    EXPECT_THROW(fault::armSpec("runner.epoch@x"),
                 std::invalid_argument);
    EXPECT_THROW(fault::armSpec("runner.epoch@2x"),
                 std::invalid_argument);
    EXPECT_THROW(fault::armSpec("runner.epoch@2:"),
                 std::invalid_argument);
    EXPECT_THROW(fault::armSpec("runner.epoch@2:7y"),
                 std::invalid_argument);
    EXPECT_THROW(fault::armSpec("runner.epoch@0"),
                 std::invalid_argument);
}

TEST_F(FaultInjectTest, ArmFromEnvArmsEverySpec)
{
    ::setenv("AIBENCH_FAULTS", "runner.epoch@1;optim.step@2:5", 1);
    EXPECT_EQ(fault::armFromEnv(), 2);
    ::unsetenv("AIBENCH_FAULTS");
    EXPECT_TRUE(fault::fires("runner.epoch"));
    EXPECT_EQ(fault::param("optim.step", -1), 5);
    EXPECT_FALSE(fault::fires("optim.step"));
    EXPECT_TRUE(fault::fires("optim.step"));
}

TEST_F(FaultInjectTest, ArmFromEnvUnsetIsANoOp)
{
    ::unsetenv("AIBENCH_FAULTS");
    EXPECT_EQ(fault::armFromEnv(), 0);
    EXPECT_FALSE(fault::anyArmed());
}

TEST_F(FaultInjectTest, TensorAllocationHookThrowsBadAlloc)
{
    fault::arm("tensor.alloc", 2);
    aib::Tensor first = aib::Tensor::zeros({4}); // pass 1
    (void)first;
    EXPECT_THROW(aib::Tensor::zeros({4}), std::bad_alloc);
    // Disarmed after firing: allocation works again.
    EXPECT_NO_THROW(aib::Tensor::zeros({4}));
}

TEST_F(FaultInjectTest, EveryTensorCreationPassesTheAllocationHook)
{
    const aib::Tensor src = aib::Tensor::ones({3});
    fault::arm("tensor.alloc", 1);
    EXPECT_THROW(aib::Tensor::fromVector({2}, {1.0f, 2.0f}), std::bad_alloc);
    fault::arm("tensor.alloc", 1);
    EXPECT_THROW(src.detach(), std::bad_alloc);
    fault::arm("tensor.alloc", 1);
    EXPECT_THROW(src.clone(), std::bad_alloc);

    // A leaf's first gradient is a new tensor; later ones add in place.
    aib::Tensor leaf = aib::Tensor::zeros({3});
    leaf.setRequiresGrad(true);
    fault::arm("tensor.alloc", 1);
    EXPECT_THROW(leaf.accumulateGrad(src), std::bad_alloc);
    EXPECT_FALSE(leaf.grad().defined());
    leaf.accumulateGrad(src);
    fault::arm("tensor.alloc", 1);
    EXPECT_NO_THROW(leaf.accumulateGrad(src));
    EXPECT_EQ(leaf.grad().toVector(), (std::vector<float>{2.0f, 2.0f, 2.0f}));
}

} // namespace
