/**
 * @file
 * Determinism matrix for scenario benchmarks (mirrors the serve
 * engine's replay-determinism suite, tests/serve/test_engine.cc):
 *
 *  - every component a scenario composes serves a batch with a
 *    bitwise-reproducible digest across independently built tasks;
 *  - replaying a scenario through the serve engine yields identical
 *    batch composition, digests and latency streams at any worker
 *    count;
 *  - `runScenario` digests are bitwise invariant to the replica
 *    count and the global thread pool width (the AIBENCH_NUM_THREADS
 *    knob), and a replica built with any DAG worker count serves the
 *    run's batch digests;
 *  - closed-loop serving of a scenario completes every query;
 *  - the catalog exposes >= 3 scenarios under Suite::Scenario,
 *    findable by id but NOT merged into core::allBenchmarks();
 *  - a ScenarioTask's model() is every stage's model, each under its
 *    benchmark id.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "dag/scenario.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "tensor/random.h"

using namespace aib;
using serve::ReplayResult;
using serve::ServingOptions;

namespace {

/** Restores the default pool width however the test exits. */
struct PoolGuard {
    ~PoolGuard() { core::ThreadPool::setGlobalThreads(0); }
};

const core::ComponentBenchmark &
scenario(const char *id)
{
    const auto *b = dag::findScenario(id);
    EXPECT_NE(b, nullptr) << id;
    return *b;
}

} // namespace

TEST(ScenarioCatalog, ExposesScenarioSuite)
{
    const auto &specs = dag::scenarioSpecs();
    ASSERT_GE(specs.size(), 3u);
    ASSERT_EQ(dag::scenarioSuite().size(), specs.size());

    for (const dag::ScenarioSpec &spec : specs) {
        EXPECT_FALSE(spec.components.empty()) << spec.id;
        ASSERT_NE(dag::findScenarioSpec(spec.id), nullptr) << spec.id;

        const auto *b = dag::findScenario(spec.id);
        ASSERT_NE(b, nullptr) << spec.id;
        EXPECT_EQ(b->info.suite, core::Suite::Scenario) << spec.id;
        EXPECT_STREQ(core::suiteName(b->info.suite), "Scenario");

        // Scenarios must not leak into the component registry: the
        // golden-trace / lint / crash sweeps enumerate components.
        EXPECT_EQ(core::findBenchmark(spec.id), nullptr) << spec.id;

        // Every composed component really is a registered benchmark.
        for (const std::string &component : spec.components)
            EXPECT_NE(core::findBenchmark(component), nullptr)
                << spec.id << " -> " << component;
    }
    EXPECT_EQ(dag::findScenario("SCN-NOPE"), nullptr);
    EXPECT_EQ(dag::findScenarioSpec("SCN-NOPE"), nullptr);
}

TEST(ScenarioTask, ModelSpansEveryStageUnderItsBenchmarkId)
{
    dag::ScenarioTask task(*dag::findScenarioSpec("SCN-MEDIA"), 42);
    // 18,674 (DC-AI-C1) + 3,335 (DC-AI-C12).
    EXPECT_EQ(task.model().parameterCount(), 22009);

    const std::vector<nn::NamedParam> names =
        task.model().namedParameters();
    std::size_t at = 0;
    std::int64_t stageSum = 0;
    for (dag::TaskNode *node : task.taskNodes()) {
        stageSum += node->task().model().parameterCount();
        for (const nn::NamedParam &p :
             node->task().model().namedParameters()) {
            ASSERT_LT(at, names.size());
            EXPECT_EQ(names[at++].name, node->benchmarkId() + "." + p.name);
        }
    }
    EXPECT_EQ(at, names.size());
    EXPECT_EQ(task.model().parameterCount(), stageSum);
}

TEST(ScenarioDeterminism, ComponentServeDigestsAreReproducible)
{
    // The union of components used by the shipped scenarios that
    // gained batched serving in this change, plus C1 (already served).
    const std::vector<int> ids{1, 2, 3, 5, 8};
    for (const char *id : {"DC-AI-C7", "DC-AI-C8", "DC-AI-C9",
                           "DC-AI-C10", "DC-AI-C16"}) {
        const auto *b = core::findBenchmark(id);
        ASSERT_NE(b, nullptr) << id;

        aib::seedGlobalRng(99);
        auto first = b->makeTask(99);
        aib::seedGlobalRng(99);
        auto second = b->makeTask(99);
        ASSERT_TRUE(first->supportsBatchedServe()) << id;

        const double a = first->serveBatch(ids);
        const double c = second->serveBatch(ids);
        // Bitwise: request inputs are pure functions of the ids and
        // replicas are clones, the serve engine's replica contract.
        EXPECT_EQ(a, c) << id;
        // And stable under re-serving the same batch.
        EXPECT_EQ(a, first->serveBatch(ids)) << id;
    }
}

TEST(ScenarioDeterminism, ReplayIgnoresWorkerCount)
{
    const std::vector<double> trace =
        serve::poissonTrace(/*seed=*/11, /*qps=*/4000.0,
                            /*queries=*/16);

    ServingOptions options;
    options.seed = 5;
    options.policy.maxBatch = 4;
    options.policy.maxDelayUs = 1500;

    ReplayResult reference;
    bool have_reference = false;
    for (const int workers : {1, 2, 4}) {
        options.workers = workers;
        const ReplayResult run =
            serve::replayTrace(scenario("SCN-MEDIA"), trace, options);
        ASSERT_EQ(run.report.completed, 16) << workers;
        if (!have_reference) {
            reference = run;
            have_reference = true;
            continue;
        }
        ASSERT_EQ(run.batches.size(), reference.batches.size())
            << workers;
        for (std::size_t b = 0; b < run.batches.size(); ++b) {
            EXPECT_EQ(run.batches[b].ids, reference.batches[b].ids)
                << "workers=" << workers << " batch=" << b;
            // Bitwise: a whole pipeline must replay like a single
            // component — the digest folds only pure stage outputs.
            EXPECT_EQ(run.batches[b].digest,
                      reference.batches[b].digest)
                << "workers=" << workers << " batch=" << b;
        }
        // The derived latency stream is repeatable too.
        EXPECT_EQ(run.latencyUs, reference.latencyUs) << workers;
    }
}

TEST(ScenarioDeterminism, RunScenarioDigestIgnoresWorkerKnobs)
{
    const dag::ScenarioSpec *spec = dag::findScenarioSpec("SCN-MEDIA");
    ASSERT_NE(spec, nullptr);

    dag::ScenarioRunOptions options;
    options.queries = 16;
    options.batch = 4;
    options.seed = 9;

    bool have_reference = false;
    double referenceDigest = 0.0;
    std::vector<double> referenceBatches;
    for (const int workers : {1, 2, 4}) {
        options.workers = workers;
        const dag::ScenarioRunReport report =
            dag::runScenario(*spec, options);
        EXPECT_EQ(report.queries, 16);
        ASSERT_EQ(report.batchDigests.size(), 4u);
        if (!have_reference) {
            have_reference = true;
            referenceDigest = report.digest;
            referenceBatches = report.batchDigests;
            EXPECT_NE(referenceDigest, 0.0);
            continue;
        }
        EXPECT_EQ(report.digest, referenceDigest) << "workers=" << workers;
        EXPECT_EQ(report.batchDigests, referenceBatches)
            << "workers=" << workers;
    }

    // The DAG worker count is a property of the task: replicas built
    // with any count serve the run's batches bitwise.
    for (const int dagWorkers : {1, 3}) {
        aib::seedGlobalRng(options.seed);
        dag::ScenarioTask task(*spec, options.seed, dagWorkers);
        for (int b = 0; b < 4; ++b) {
            const std::vector<int> ids{4 * b, 4 * b + 1, 4 * b + 2,
                                       4 * b + 3};
            EXPECT_EQ(task.executeBatch(ids).digest,
                      referenceBatches[static_cast<std::size_t>(b)])
                << "dagWorkers=" << dagWorkers << " batch=" << b;
        }
    }
}

TEST(ScenarioDeterminism, DigestIgnoresGlobalThreadPoolWidth)
{
    const dag::ScenarioSpec *spec = dag::findScenarioSpec("SCN-MEDIA");
    ASSERT_NE(spec, nullptr);

    dag::ScenarioRunOptions options;
    options.queries = 8;
    options.batch = 4;
    options.workers = 2;
    options.seed = 21;

    PoolGuard guard;
    bool have_reference = false;
    double referenceDigest = 0.0;
    for (const int threads : {1, 2, 4}) {
        // Same knob AIBENCH_NUM_THREADS drives at process start.
        core::ThreadPool::setGlobalThreads(threads);
        const dag::ScenarioRunReport report =
            dag::runScenario(*spec, options);
        if (!have_reference) {
            have_reference = true;
            referenceDigest = report.digest;
            continue;
        }
        EXPECT_EQ(report.digest, referenceDigest)
            << "threads=" << threads;
    }
}

TEST(ScenarioDeterminism, ClosedLoopServeCompletesEveryQuery)
{
    ServingOptions options;
    options.workers = 2;
    options.queries = 12;
    options.policy.maxBatch = 4;

    const serve::ServingReport report =
        serve::serveBenchmark(scenario("SCN-MEDIA"), options);
    EXPECT_EQ(report.completed, 12);
    EXPECT_GT(report.throughputQps, 0.0);
}
