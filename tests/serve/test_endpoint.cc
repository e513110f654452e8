/**
 * @file
 * ServingEndpoint unit tests: the failure rule (a batch whose
 * serveBatch throws completes every member exactly once, flagged
 * failed, and drain() rethrows the error) in both batching modes at
 * 1 and 2 workers, and the planned-mode admission verdicts.
 */

#include <chrono>
#include <map>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "core/faultinject.h"
#include "core/registry.h"
#include "dag/scenario.h"
#include "serve/endpoint.h"

using namespace aib;
using serve::BatchingMode;
using serve::EndpointCompletion;
using serve::EndpointOptions;
using serve::ServingEndpoint;
using serve::SubmitResult;

namespace {

serve::Request
requestFor(int id)
{
    serve::Request r;
    r.id = id;
    r.enqueue = std::chrono::steady_clock::now();
    return r;
}

/** Completions per id, filled from the workers' callbacks. */
struct Ledger {
    std::mutex mutex;
    std::map<int, int> completions;
    int failed = 0;

    serve::EndpointCallback
    callback()
    {
        return [this](const EndpointCompletion &c) {
            std::lock_guard<std::mutex> lock(mutex);
            completions[c.id] += 1;
            failed += c.failed ? 1 : 0;
        };
    }
};

struct FailedBatchCase {
    BatchingMode batching;
    int workers;
};

class EndpointFailedBatch
    : public ::testing::TestWithParam<FailedBatchCase>
{
  protected:
    void SetUp() override { core::fault::resetAll(); }
    void TearDown() override { core::fault::resetAll(); }
};

} // namespace

TEST_P(EndpointFailedBatch, EveryAcceptedRequestCompletesOnce)
{
    // SCN-MEDIA with the first DAG stage check armed: one batch of
    // the 8 requests throws. Its members must still complete
    // (failed), everything else admitted must be served, and drain()
    // must hand the fault to the caller.
    const auto *scenario = dag::findScenario("SCN-MEDIA");
    ASSERT_NE(scenario, nullptr);
    EndpointOptions eo;
    eo.workers = GetParam().workers;
    eo.policy.maxBatch = 4;
    eo.batching = GetParam().batching;
    if (eo.batching == BatchingMode::Planned)
        eo.plan = {{{0, 1, 2, 3}, 0.0}, {{4, 5, 6, 7}, 0.0}};

    Ledger ledger;
    ServingEndpoint endpoint(*scenario, eo, ledger.callback());
    core::fault::arm("dag.stage", /*fire_at=*/1);
    int accepted = 0;
    for (int id = 0; id < 8; ++id)
        accepted +=
            endpoint.submit(requestFor(id)) == SubmitResult::Accepted;
    EXPECT_THROW(endpoint.drain(), core::fault::FaultInjected);

    ASSERT_GE(accepted, 4);
    int completions = 0;
    for (const auto &[id, n] : ledger.completions) {
        EXPECT_EQ(n, 1) << "id " << id;
        completions += n;
    }
    EXPECT_EQ(completions, accepted);
    EXPECT_GE(ledger.failed, 1);
    EXPECT_EQ(endpoint.completed() + ledger.failed,
              static_cast<std::uint64_t>(accepted));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWorkers, EndpointFailedBatch,
    ::testing::Values(FailedBatchCase{BatchingMode::Dynamic, 1},
                      FailedBatchCase{BatchingMode::Dynamic, 2},
                      FailedBatchCase{BatchingMode::Planned, 1},
                      FailedBatchCase{BatchingMode::Planned, 2}),
    [](const ::testing::TestParamInfo<FailedBatchCase> &info) {
        return std::string(info.param.batching == BatchingMode::Dynamic
                               ? "Dynamic"
                               : "Planned") +
               std::to_string(info.param.workers) + "Workers";
    });

TEST(ServingEndpoint, PlannedSubmitRejectsUnknownAndRepeatedIds)
{
    const auto *bench = core::findBenchmark("DC-AI-C10");
    ASSERT_NE(bench, nullptr);
    EndpointOptions eo;
    eo.workers = 1;
    eo.warmupQueries = 0;
    eo.batching = BatchingMode::Planned;
    eo.plan = {{{0, 1, 2}, 0.0}, {{3, 4}, 0.0}};

    Ledger ledger;
    ServingEndpoint endpoint(*bench, eo, ledger.callback());
    EXPECT_EQ(endpoint.submit(requestFor(99)), SubmitResult::UnknownId);
    EXPECT_EQ(endpoint.submit(requestFor(-1)), SubmitResult::UnknownId);
    EXPECT_EQ(endpoint.submit(requestFor(0)), SubmitResult::Accepted);
    EXPECT_EQ(endpoint.submit(requestFor(0)), SubmitResult::UnknownId)
        << "a repeated id of a pending batch";

    // Every id of the plan, each offered three times over, in an
    // order that completes batch 0 midway: none is accepted twice.
    std::map<int, int> acceptedTimes{{0, 1}};
    for (const int id : {1, 3, 1, 2, 3, 2, 0, 1, 3, 2})
        acceptedTimes[id] +=
            endpoint.submit(requestFor(id)) == SubmitResult::Accepted;
    endpoint.drain(); // flushes batch 1, where only id 3 arrived
    EXPECT_EQ(endpoint.submit(requestFor(4)), SubmitResult::Closed);

    const std::map<int, int> once{{0, 1}, {1, 1}, {2, 1}, {3, 1}};
    EXPECT_EQ(acceptedTimes, once);
    EXPECT_EQ(ledger.completions, once);
    EXPECT_EQ(ledger.failed, 0);
    EXPECT_EQ(endpoint.completed(), 4u);
    EXPECT_EQ(endpoint.batches(), 2u);
}
