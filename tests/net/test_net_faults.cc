/**
 * @file
 * The net.conn fault matrix: arm the per-query connection-killer at
 * different trigger counts and in both batching modes, and prove the
 * blast radius is exactly one connection — the server retires the
 * killed socket, keeps serving the survivors, drains without
 * wedging (planned mode flushes the batches the dead client's
 * queries will never complete), and publishes coherent stats. The
 * client sees one fatal connection and finishes anyway. A batch that
 * fails in the server (dag.stage) answers its queries with Internal
 * errors, so the client still resolves every query and finishes.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/faultinject.h"
#include "core/registry.h"
#include "dag/scenario.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/loadgen.h"

using namespace aib;
using namespace aib::net;

namespace {

class NetConnFault : public ::testing::Test
{
  protected:
    void TearDown() override { core::fault::resetAll(); }
};

struct FaultOutcome {
    NetBenchResult client;
    NetServerStats server;
    bool clientThrew = false;
};

FaultOutcome
runFaulted(serve::BatchingMode batching, long fireAt,
           int connections, int queries)
{
    const auto *bench = core::findBenchmark("DC-AI-C1");
    if (bench == nullptr)
        throw std::runtime_error("DC-AI-C1 not registered");

    const double qps = 2000.0;
    NetServerOptions so;
    so.exitAfterLastClient = true;
    so.drainGraceMs = 500;
    so.endpoint.workers = 2;
    so.endpoint.batching = batching;
    if (batching == serve::BatchingMode::Planned) {
        so.endpoint.plan = serve::planBatches(
            serve::poissonTrace(42, qps, queries),
            so.endpoint.policy);
        so.helloQueries = static_cast<std::uint32_t>(queries);
        so.helloQps = qps;
    }
    NetServer server(*bench, std::move(so));
    server.start();

    // Arm AFTER start: replica building and handshakes must not
    // consume the trigger — only decoded Query frames hit net.conn.
    core::fault::arm("net.conn", fireAt);

    NetBenchOptions co;
    co.benchmarkId = "DC-AI-C1";
    co.port = server.boundPort();
    co.processes = 0;
    co.connections = connections;
    co.queries = queries;
    co.qps = qps;
    co.batching = batching;
    co.mode = batching == serve::BatchingMode::Planned
                  ? LoadMode::Open
                  : LoadMode::Closed;
    // Survivors whose replies ride in a batch wedged by the dead
    // connection's queries give up quickly instead of waiting the
    // default 30 s; the drain then flushes those batches.
    co.replyTimeoutMs = 3000;

    FaultOutcome out;
    try {
        out.client = runNetBench(co);
    } catch (...) {
        out.clientThrew = true;
        server.requestStop();
    }
    server.waitStopped();
    out.server = server.stop();
    return out;
}

void
expectOneKilledConnection(const FaultOutcome &out, int connections,
                          int queries)
{
    int killed = 0;
    for (const ConnectionStats &c : out.server.connections)
        killed += c.faultKilled ? 1 : 0;
    EXPECT_EQ(killed, 1);

    // One connection died; the client run as a whole survived.
    EXPECT_FALSE(out.clientThrew);
    EXPECT_EQ(out.client.errors, 1u);
    EXPECT_LT(out.client.replies,
              static_cast<std::uint64_t>(queries));
    EXPECT_GT(out.client.replies, 0u);
    EXPECT_EQ(static_cast<int>(out.server.connections.size()),
              connections);

    // The endpoint drained: batches were dispatched (including any
    // flushed partials) and accounting is internally consistent.
    EXPECT_GT(out.server.batches, 0u);
    EXPECT_LE(out.server.completed,
              static_cast<std::uint64_t>(queries));
}

} // namespace

TEST_F(NetConnFault, PlannedModeFirstQueryKillsOneConnection)
{
    const FaultOutcome out =
        runFaulted(serve::BatchingMode::Planned, 1, 4, 32);
    expectOneKilledConnection(out, 4, 32);
}

TEST_F(NetConnFault, PlannedModeMidRunKillDoesNotWedgeTheDrain)
{
    const FaultOutcome out =
        runFaulted(serve::BatchingMode::Planned, 13, 4, 32);
    expectOneKilledConnection(out, 4, 32);
}

TEST_F(NetConnFault, DynamicModeKilledConnectionLeavesOthersWhole)
{
    const FaultOutcome out =
        runFaulted(serve::BatchingMode::Dynamic, 5, 4, 32);
    expectOneKilledConnection(out, 4, 32);

    // Dynamic batches form from whatever actually arrives, so the
    // server resolved every query it decoded from a surviving
    // connection — a reply or a typed shed, nothing dropped.
    for (const ConnectionStats &c : out.server.connections)
        if (!c.faultKilled)
            EXPECT_EQ(c.queries, c.replies + c.errorsSent);
}

TEST_F(NetConnFault, UnarmedPointCostsNothingAndKillsNothing)
{
    const FaultOutcome out = runFaulted(
        serve::BatchingMode::Planned, 1000000, 2, 16);
    for (const ConnectionStats &c : out.server.connections)
        EXPECT_FALSE(c.faultKilled);
    EXPECT_EQ(out.client.replies, 16u);
    EXPECT_EQ(out.client.errors, 0u);
}

TEST_F(NetConnFault, FailedBatchAnswersInternalAndTheRunEnds)
{
    // The batch that trips dag.stage fails: its queries get
    // Error{Internal}, and every later one Draining, since the
    // endpoint stops admitting. The client resolves all of them long
    // before its reply timeout instead of waiting for replies that
    // never come.
    const auto *scenario = dag::findScenario("SCN-MEDIA");
    ASSERT_NE(scenario, nullptr);
    NetServerOptions so;
    so.exitAfterLastClient = true;
    so.drainGraceMs = 500;
    so.endpoint.workers = 2;
    so.endpoint.policy.maxBatch = 4;
    so.endpoint.batching = serve::BatchingMode::Dynamic;
    NetServer server(*scenario, std::move(so));
    server.start();
    core::fault::arm("dag.stage", /*fire_at=*/1);

    NetBenchOptions co;
    co.benchmarkId = "SCN-MEDIA";
    co.port = server.boundPort();
    co.processes = 0;
    co.connections = 2;
    co.queries = 16;
    co.mode = LoadMode::Closed;
    co.policy.maxBatch = 4;
    co.batching = serve::BatchingMode::Dynamic;
    co.replyTimeoutMs = 20000;
    const NetBenchResult client = runNetBench(co);
    EXPECT_LT(client.wallSeconds, 10.0);
    EXPECT_EQ(client.errors, 0u);
    EXPECT_EQ(client.replies + client.shed, 16u);
    EXPECT_GE(client.shed, 1u);

    server.waitStopped();
    EXPECT_THROW(server.stop(), core::fault::FaultInjected);
    std::uint64_t errorsSent = 0;
    for (const ConnectionStats &c : server.stop().connections)
        errorsSent += c.errorsSent;
    EXPECT_EQ(errorsSent, client.shed);
}
