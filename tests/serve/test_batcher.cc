/**
 * @file
 * The dynamic batcher: planBatches as a pure policy function (edge
 * cases and a coverage property), the arrival traces it is fed, and
 * the AdmissionQueue runtime (shedding at capacity, timeout
 * dispatch, close-and-drain).
 */

#include <chrono>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "serve/batcher.h"
#include "serve/loadgen.h"

using aib::serve::AdmissionQueue;
using aib::serve::BatchPlan;
using aib::serve::BatchPolicy;
using aib::serve::planBatches;
using aib::serve::Request;

namespace {

Request
makeRequest(int id)
{
    Request r;
    r.id = id;
    r.enqueue = std::chrono::steady_clock::now();
    return r;
}

std::vector<int>
concatIds(const std::vector<BatchPlan> &plans)
{
    std::vector<int> ids;
    for (const BatchPlan &p : plans)
        ids.insert(ids.end(), p.ids.begin(), p.ids.end());
    return ids;
}

} // namespace

TEST(PlanBatches, EmptyTraceMakesNoBatches)
{
    EXPECT_TRUE(planBatches({}, BatchPolicy{}).empty());
}

TEST(PlanBatches, BurstSplitsAtMaxBatch)
{
    const std::vector<double> burst(17, 0.0);
    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxDelayUs = 2000;
    const auto plans = planBatches(burst, policy);
    ASSERT_EQ(plans.size(), 3u);
    EXPECT_EQ(plans[0].ids.size(), 8u);
    EXPECT_EQ(plans[1].ids.size(), 8u);
    EXPECT_EQ(plans[2].ids.size(), 1u);
    // Full batches close at their last member's arrival; the
    // trailing partial batch waits out the delay window.
    EXPECT_DOUBLE_EQ(plans[0].closeUs, 0.0);
    EXPECT_DOUBLE_EQ(plans[1].closeUs, 0.0);
    EXPECT_DOUBLE_EQ(plans[2].closeUs, 2000.0);
}

TEST(PlanBatches, SparseArrivalsBecomeSingletons)
{
    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxDelayUs = 2000;
    const auto plans = planBatches({0.0, 10000.0, 20000.0}, policy);
    ASSERT_EQ(plans.size(), 3u);
    for (std::size_t b = 0; b < plans.size(); ++b) {
        EXPECT_EQ(plans[b].ids,
                  std::vector<int>{static_cast<int>(b)});
        EXPECT_DOUBLE_EQ(plans[b].closeUs, 10000.0 * b + 2000.0);
    }
}

TEST(PlanBatches, DelayWindowBoundaryIsInclusive)
{
    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxDelayUs = 2000;
    const auto plans = planBatches({0.0, 2000.0, 2001.0}, policy);
    ASSERT_EQ(plans.size(), 2u);
    EXPECT_EQ(plans[0].ids, (std::vector<int>{0, 1}));
    EXPECT_EQ(plans[1].ids, std::vector<int>{2});
}

TEST(PlanBatches, WindowAnchorsToFirstMemberNotLast)
{
    // 0, 1500, 3000: 3000 is within 1500's window but outside 0's —
    // the batch window anchors at the first member.
    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxDelayUs = 2000;
    const auto plans = planBatches({0.0, 1500.0, 3000.0}, policy);
    ASSERT_EQ(plans.size(), 2u);
    EXPECT_EQ(plans[0].ids, (std::vector<int>{0, 1}));
    EXPECT_EQ(plans[1].ids, std::vector<int>{2});
}

TEST(PlanBatches, BatchOneDisablesCoalescing)
{
    BatchPolicy policy;
    policy.maxBatch = 1;
    policy.maxDelayUs = 100000;
    const auto plans = planBatches(std::vector<double>(5, 0.0), policy);
    ASSERT_EQ(plans.size(), 5u);
    for (const BatchPlan &p : plans)
        EXPECT_EQ(p.ids.size(), 1u);
}

TEST(PlanBatches, CoversEveryRequestExactlyOnceInOrder)
{
    std::mt19937_64 rng(17);
    std::exponential_distribution<double> gap(1.0 / 700.0);
    std::vector<double> arrivals;
    double t = 0.0;
    for (int i = 0; i < 500; ++i) {
        t += gap(rng);
        arrivals.push_back(t);
    }
    BatchPolicy policy;
    policy.maxBatch = 5;
    policy.maxDelayUs = 1500;
    const auto plans = planBatches(arrivals, policy);
    std::vector<int> expected(arrivals.size());
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(concatIds(plans), expected);
    for (const BatchPlan &p : plans)
        EXPECT_LE(p.ids.size(),
                  static_cast<std::size_t>(policy.maxBatch));
}

TEST(PlanBatches, RejectsBadPolicy)
{
    BatchPolicy bad_batch;
    bad_batch.maxBatch = 0;
    EXPECT_THROW(planBatches({0.0}, bad_batch),
                 std::invalid_argument);
    BatchPolicy bad_delay;
    bad_delay.maxDelayUs = -1;
    EXPECT_THROW(planBatches({0.0}, bad_delay),
                 std::invalid_argument);
}

TEST(PlanBatches, RejectsNaNArrival)
{
    // A NaN arrival fits no delay window: planning it must fail
    // instead of appending empty batches forever.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(planBatches({nan}, BatchPolicy{}),
                 std::invalid_argument);
    EXPECT_THROW(planBatches({0.0, 10.0, nan, 20.0}, BatchPolicy{}),
                 std::invalid_argument);
}

TEST(ArrivalTraces, RejectNonFiniteRates)
{
    for (const double qps : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             0.0, -5.0}) {
        EXPECT_THROW(aib::serve::poissonTrace(1, qps, 4),
                     std::invalid_argument)
            << qps;
        EXPECT_THROW(aib::serve::uniformTrace(qps, 4),
                     std::invalid_argument)
            << qps;
    }
}

TEST(AdmissionQueue, ShedsAtCapacity)
{
    AdmissionQueue queue(4);
    int admitted = 0;
    for (int i = 0; i < 7; ++i)
        admitted += queue.push(makeRequest(i)) ? 1 : 0;
    EXPECT_EQ(admitted, 4);
    EXPECT_EQ(queue.rejected(), 3u);
    EXPECT_EQ(queue.peakDepth(), 4);

    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxDelayUs = 0;
    std::vector<Request> batch;
    ASSERT_TRUE(queue.popBatch(policy, &batch));
    EXPECT_EQ(batch.size(), 4u);
    // The four oldest survived, in arrival order.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(batch[static_cast<std::size_t>(i)].id, i);
}

TEST(AdmissionQueue, DispatchesPartialBatchAfterDelay)
{
    AdmissionQueue queue(16);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(queue.push(makeRequest(i)));
    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxDelayUs = 20000; // 20 ms
    std::vector<Request> batch;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(queue.popBatch(policy, &batch));
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch.size(), 3u);
    // Must have waited out (roughly) the delay window rather than
    // dispatching a partial batch immediately.
    const double waited_us =
        std::chrono::duration<double, std::micro>(waited).count();
    EXPECT_GE(waited_us, 0.5 * static_cast<double>(policy.maxDelayUs));
}

TEST(AdmissionQueue, CloseDrainsThenStops)
{
    AdmissionQueue queue(16);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(queue.push(makeRequest(i)));
    queue.close();
    EXPECT_FALSE(queue.push(makeRequest(99)));

    BatchPolicy policy;
    policy.maxBatch = 2;
    policy.maxDelayUs = 1000000;
    std::vector<Request> batch;
    std::vector<std::size_t> sizes;
    while (queue.popBatch(policy, &batch))
        sizes.push_back(batch.size());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 1}));
}

TEST(AdmissionQueue, PopOnClosedEmptyReturnsFalseImmediately)
{
    AdmissionQueue queue(4);
    queue.close();
    BatchPolicy policy;
    std::vector<Request> batch;
    EXPECT_FALSE(queue.popBatch(policy, &batch));
    EXPECT_TRUE(batch.empty());
}
