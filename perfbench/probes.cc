/**
 * @file
 * Layer probes every traced run makes, whatever its workload, so
 * each traced run reports the same per-layer metrics: the thread
 * pool's dispatch round trip, the GEMM kernels, a standalone replica
 * of each served model and of each scenario pipeline, and (outside
 * train-subset, whose sessions give them) a short training probe.
 * Each probe calls the layer's public API from here and edits
 * nothing in it.
 */

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "dag/scenario.h"
#include "serve/endpoint.h"
#include "stats.h"
#include "tensor/detail/gemm.h"

namespace perfbench {

namespace {

namespace gemm = aib::ops::detail;

/**
 * Round trip of an empty-body parallelFor on a pool of @p threads,
 * issued after a 200 us idle gap so the workers have parked: the
 * wake-up cost every small tensor op pays.
 */
double
poolDispatchUs(int threads)
{
    core::ThreadPool pool(threads);
    std::vector<double> us;
    for (int i = 0; i < 400; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        const auto t0 = Clock::now();
        pool.parallelFor(0, threads, 1, [](std::int64_t, std::int64_t) {});
        us.push_back(msBetween(t0, Clock::now()) * 1e3);
    }
    return median(us);
}

/** Single-thread GFLOP/s of gemm() at n^3 under @p backend. */
double
gemmGflops(gemm::GemmBackend backend, std::int64_t n, std::uint64_t seed)
{
    if (!gemm::setGemmBackend(backend))
        return 0.0;
    core::ThreadPool one(1);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    const auto size = static_cast<std::size_t>(n * n);
    std::vector<float> a(size), b(size), c(size, 0.0f);
    for (std::size_t i = 0; i < size; ++i) {
        a[i] = dist(rng);
        b[i] = dist(rng);
    }
    auto call = [&] {
        gemm::gemm(a.data(), b.data(), c.data(), n, n, n, false, false, &one);
    };
    call(); // pack buffers and caches warm
    const double flop = 2.0 * static_cast<double>(n) * n * n;
    std::vector<double> rates;
    for (int trial = 0; trial < 3; ++trial) {
        int reps = 0;
        const auto t0 = Clock::now();
        do {
            call();
            ++reps;
        } while (secondsSince(t0) < 0.05);
        rates.push_back(flop * reps / secondsSince(t0) * 1e-9);
    }
    gemm::setGemmBackend(gemm::GemmBackend::Auto);
    return median(rates);
}

/** Eight request ids drawn from the workload seed. */
std::vector<int>
probeIds(std::uint64_t seed)
{
    std::mt19937_64 rng(seed ^ 0x70726f6265ULL);
    std::vector<int> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(static_cast<int>(rng() % 1024));
    return ids;
}

/** Median serveBatch time of a standalone replica, in ms. */
double
serveBatchMs(core::TrainableTask &task, const std::vector<int> &ids,
             const std::string &id, SpanRecorder &spans)
{
    std::vector<double> ms;
    const auto start = Clock::now();
    while (ms.size() < 15 || (ms.size() < 400 && secondsSince(start) < 0.3)) {
        ScopedSpan span(spans, "serveBatch", "models", id);
        const auto t0 = Clock::now();
        task.serveBatch(ids);
        ms.push_back(msBetween(t0, Clock::now()));
    }
    return median(ms);
}

/**
 * Scenario batch time and its executor overhead: the batch's
 * end-to-end time minus the longest chain of stage times through the
 * graph (the critical path), both medians over repeats.
 */
void
probeScenario(const char *id, const RunOptions &opt, SpanRecorder &spans,
              Outcome &out)
{
    const core::ComponentBenchmark *b = dag::findScenario(id);
    if (b == nullptr)
        throw std::runtime_error(std::string("unknown scenario ") + id);
    auto task = serve::buildReplica(*b, opt.seed, 0, 2);
    auto &scenario = dynamic_cast<dag::ScenarioTask &>(*task);
    const dag::Graph &graph = scenario.graph();
    const std::vector<int> ids = probeIds(opt.seed);
    std::vector<double> batchMs, overheadMs;
    const auto start = Clock::now();
    while (batchMs.size() < 15 ||
           (batchMs.size() < 400 && secondsSince(start) < 0.4)) {
        ScopedSpan span(spans, "serveBatch", "dag", id);
        const auto t0 = Clock::now();
        const dag::ExecResult r = scenario.executeBatch(ids);
        const double ms = msBetween(t0, Clock::now());
        std::vector<double> finish(static_cast<std::size_t>(graph.size()), 0);
        double critical = 0.0;
        for (const dag::NodeId n : graph.topoOrder()) {
            double ready = 0.0;
            for (const dag::NodeId p : graph.producers(n))
                ready = std::max(ready, finish[static_cast<std::size_t>(p)]);
            finish[static_cast<std::size_t>(n)] =
                ready + r.stageUs[static_cast<std::size_t>(n)];
            critical = std::max(critical, finish[static_cast<std::size_t>(n)]);
        }
        batchMs.push_back(ms);
        overheadMs.push_back(ms - critical * 1e-3);
    }
    out.perLayer.push_back({std::string("dag.batch_ms.") + id,
                            median(batchMs), "ms"});
    out.perLayer.push_back({std::string("dag.overhead_ms.") + id,
                            median(overheadMs), "ms"});
}

} // namespace

void
runLayerProbes(const RunOptions &opt, SpanRecorder &spans, Outcome &out)
{
    {
        ScopedSpan span(spans, "probe", "core", "pool");
        out.perLayer.push_back(
            {"core.pool_dispatch_us.t2", poolDispatchUs(2), "us"});
        out.perLayer.push_back(
            {"core.pool_dispatch_us.t4", poolDispatchUs(4), "us"});
    }
    {
        ScopedSpan span(spans, "probe", "tensor", "gemm");
        for (const std::int64_t n : {64, 256, 512}) {
            out.perLayer.push_back(
                {"tensor.gemm_gflops.generic." + std::to_string(n),
                 gemmGflops(gemm::GemmBackend::Generic, n, opt.seed),
                 "GFLOP/s"});
            out.perLayer.push_back(
                {"tensor.gemm_gflops.auto." + std::to_string(n),
                 gemmGflops(gemm::GemmBackend::Auto, n, opt.seed),
                 "GFLOP/s"});
            // Forced kernels are host-dependent, so they go to the
            // report only: forced AVX2 runs ~7x slower than generic here.
            for (const gemm::GemmBackend backend :
                 gemm::availableGemmBackends()) {
                if (backend == gemm::GemmBackend::Generic)
                    continue;
                out.report.push_back(
                    {"tensor.gemm_gflops." +
                         std::string(gemm::gemmBackendName(backend)) + "." +
                         std::to_string(n),
                     gemmGflops(backend, n, opt.seed), "GFLOP/s"});
            }
        }
    }

    // Standalone replicas run their ops inline on one thread, as a
    // serving worker does.
    const int saved = core::ThreadPool::global().numThreads();
    core::ThreadPool::setGlobalThreads(1);
    {
        ScopedSpan span(spans, "probe", "models", "serveBatch");
        const std::vector<int> ids = probeIds(opt.seed);
        for (const char *id : {"DC-AI-C1", "DC-AI-C9", "DC-AI-C16",
                               "DC-AI-C10"}) {
            const core::ComponentBenchmark *b = core::findBenchmark(id);
            auto task = serve::buildReplica(*b, opt.seed, 0, 2);
            out.perLayer.push_back({std::string("models.serve_batch_ms.") + id,
                                    serveBatchMs(*task, ids, id, spans),
                                    "ms"});
        }
    }
    {
        ScopedSpan span(spans, "probe", "dag", "scenarios");
        probeScenario("SCN-ECOMMERCE", opt, spans, out);
        probeScenario("SCN-RECOMMEND", opt, spans, out);
    }
    core::ThreadPool::setGlobalThreads(saved);

    if (opt.workload != "train-subset") {
        ScopedSpan span(spans, "probe", "models", "training");
        probeTrainingLayers(opt, spans, out);
    }
}

} // namespace perfbench
