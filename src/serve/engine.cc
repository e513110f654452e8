#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "gpusim/kernel_model.h"
#include "serve/endpoint.h"
#include "serve/loadgen.h"

namespace aib::serve {

namespace {

using Clock = std::chrono::steady_clock;

void
validate(const ServingOptions &options)
{
    if (options.workers < 1)
        throw std::invalid_argument("serve: workers must be >= 1");
    if (options.queries < 1)
        throw std::invalid_argument("serve: queries must be >= 1");
    if (options.policy.maxBatch < 1)
        throw std::invalid_argument("serve: maxBatch must be >= 1");
    if (options.policy.maxDelayUs < 0)
        throw std::invalid_argument("serve: negative maxDelayUs");
    if (options.queueCapacity < 1)
        throw std::invalid_argument("serve: queueCapacity must be >= 1");
    if (options.mode == DriveMode::OpenLoop && options.qps <= 0.0)
        throw std::invalid_argument("serve: open loop needs qps > 0");
}

EndpointOptions
endpointOptions(const ServingOptions &options)
{
    EndpointOptions eo;
    eo.workers = options.workers;
    eo.policy = options.policy;
    eo.queueCapacity = options.queueCapacity;
    eo.trainEpochs = options.trainEpochs;
    eo.warmupQueries = options.warmupQueries;
    eo.seed = options.seed;
    return eo;
}

/** The fields every mode reads off a drained endpoint. */
ServingReport
reportOf(const core::ComponentBenchmark &benchmark,
         const ServingOptions &options, const ServingEndpoint &endpoint,
         const char *mode)
{
    ServingReport report;
    report.benchmarkId = benchmark.info.id;
    report.mode = mode;
    report.workers = options.workers;
    report.maxBatch = options.policy.maxBatch;
    report.maxDelayUs = options.policy.maxDelayUs;
    report.seed = options.seed;
    report.completed = static_cast<int>(endpoint.completed());
    report.batchSizeCounts = endpoint.batchSizeCounts();

    const profiler::TraceSession &trace = endpoint.trace();
    if (report.completed > 0 && trace.totalLaunches() > 0) {
        const gpusim::TraceSimResult sim =
            gpusim::simulateTrace(trace, options.device);
        report.energyPerQueryMj =
            gpusim::simulatedEnergyJoules(sim, options.device) * 1e3 /
            report.completed;
        report.simServiceMsPerQuery =
            sim.totalTimeSec * 1e3 / report.completed;
    }
    return report;
}

} // namespace

ServingReport
serveBenchmark(const core::ComponentBenchmark &benchmark,
               const ServingOptions &options)
{
    validate(options);
    const bool closed = options.mode == DriveMode::ClosedLoop;
    const int queries = options.queries;
    const int concurrency = std::min(
        options.concurrency > 0
            ? options.concurrency
            : 2 * options.policy.maxBatch * options.workers,
        queries);

    EndpointOptions eo = endpointOptions(options);
    // A closed loop never sheds: its in-flight bound is the queue
    // bound. An open loop sheds at the configured high-water mark.
    if (closed)
        eo.queueCapacity = std::max(options.queueCapacity, concurrency);

    // Closed loop: issue order is id order, and every completion
    // submits the next unissued id before retiring itself, so
    // inFlight reaches 0 only once the ids ran out or the endpoint
    // refused a submit (it closes after a failed batch).
    std::mutex mutex;
    std::condition_variable idle;
    int next = 0;
    int inFlight = 0;
    const auto retire = [&] {
        std::lock_guard<std::mutex> lock(mutex);
        if (--inFlight == 0)
            idle.notify_all();
    };
    const auto issue = [&](ServingEndpoint &endpoint) {
        Request r;
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (next >= queries)
                return;
            r.id = next++;
            ++inFlight;
        }
        r.enqueue = Clock::now();
        if (endpoint.submit(r) != SubmitResult::Accepted)
            retire();
    };
    // The callback resubmits through the endpoint it is registered
    // with; completions only fire after construction.
    ServingEndpoint endpoint(benchmark, eo,
                             [&](const EndpointCompletion &) {
                                 if (closed) {
                                     issue(endpoint);
                                     retire();
                                 }
                             });

    const auto runStart = Clock::now();
    if (closed) {
        for (int i = 0; i < concurrency; ++i)
            issue(endpoint);
        std::unique_lock<std::mutex> lock(mutex);
        idle.wait(lock, [&] { return inFlight == 0; });
    } else {
        const std::vector<double> arrivals =
            poissonTrace(options.seed, options.qps, queries);
        for (int i = 0; i < queries; ++i) {
            Request r;
            r.id = i;
            r.arrivalUs = arrivals[static_cast<std::size_t>(i)];
            // Stamped with the due time, not the push: a late
            // generator inflates latency instead of hiding it.
            r.enqueue = runStart +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::micro>(
                                r.arrivalUs));
            std::this_thread::sleep_until(r.enqueue);
            if (endpoint.submit(r) == SubmitResult::Closed)
                break;
        }
    }
    endpoint.drain();
    const double wall =
        std::chrono::duration<double>(Clock::now() - runStart).count();

    ServingReport report = reportOf(benchmark, options, endpoint,
                                    closed ? "closed" : "open");
    report.latency = endpoint.latency();
    report.issued = queries;
    report.rejected = static_cast<int>(endpoint.rejected());
    report.peakQueueDepth = endpoint.peakQueueDepth();
    report.wallSeconds = wall;
    report.throughputQps =
        wall > 0.0 ? static_cast<double>(report.completed) / wall
                   : 0.0;
    if (!closed)
        report.openLoopQps = options.qps;
    return report;
}

ReplayResult
replayTrace(const core::ComponentBenchmark &benchmark,
            const std::vector<double> &arrivalUs,
            const ServingOptions &options)
{
    validate(options);
    const int workers = options.workers;
    EndpointOptions eo = endpointOptions(options);
    eo.batching = BatchingMode::Planned;
    eo.plan = planBatches(arrivalUs, options.policy);

    // Execute every batch for real: composition comes from the pure
    // plan, inputs are pure functions of request ids, and replicas
    // are bitwise-identical — so digests are independent of which
    // worker runs which batch. Per-batch traces feed the simulated
    // service time and energy.
    ServingEndpoint endpoint(benchmark, std::move(eo), nullptr);
    for (std::size_t i = 0; i < arrivalUs.size(); ++i) {
        Request r;
        r.id = static_cast<int>(i);
        r.enqueue = Clock::now();
        endpoint.submit(r);
    }
    endpoint.drain();
    const std::vector<BatchPlan> &plans = endpoint.options().plan;

    ReplayResult result;
    result.batches.resize(plans.size());
    double energyJoules = 0.0;
    for (std::size_t b = 0; b < plans.size(); ++b) {
        const PlannedBatchResult &ran = endpoint.plannedBatches()[b];
        ReplayBatch &out = result.batches[b];
        out.ids = plans[b].ids;
        out.digest = ran.digest;
        const gpusim::TraceSimResult sim =
            gpusim::simulateTrace(ran.trace, options.device);
        out.serviceUs = sim.totalTimeSec * 1e6;
        energyJoules +=
            gpusim::simulatedEnergyJoules(sim, options.device);
    }

    // Discrete-event simulation: k identical servers, FCFS in batch
    // order, each batch starting when both it and the
    // earliest-free server are ready. Deterministic in (trace,
    // policy, workers, device).
    result.latencyUs.assign(arrivalUs.size(), 0.0);
    std::vector<double> worker_free(
        static_cast<std::size_t>(workers), 0.0);
    double makespan_us = 0.0;
    for (std::size_t b = 0; b < plans.size(); ++b) {
        std::size_t k = 0;
        for (std::size_t i = 1; i < worker_free.size(); ++i)
            if (worker_free[i] < worker_free[k])
                k = i;
        const double start =
            std::max(plans[b].closeUs, worker_free[k]);
        const double end = start + result.batches[b].serviceUs;
        worker_free[k] = end;
        makespan_us = std::max(makespan_us, end);
        for (const int id : plans[b].ids)
            result.latencyUs[static_cast<std::size_t>(id)] =
                end - arrivalUs[static_cast<std::size_t>(id)];
    }

    ServingReport report =
        reportOf(benchmark, options, endpoint, "replay");
    report.issued = static_cast<int>(arrivalUs.size());
    report.rejected = 0;
    report.wallSeconds = makespan_us / 1e6;
    report.throughputQps =
        makespan_us > 0.0
            ? static_cast<double>(report.completed) * 1e6 /
                  makespan_us
            : 0.0;
    // Latency histogram from the simulated stream, recorded in id
    // order (order-invariant anyway).
    for (const double us : result.latencyUs)
        report.latency.record(us);
    // Energy is the per-batch sum, each batch simulated on its own
    // trace like its service time, not the merged-trace estimate.
    if (report.completed > 0)
        report.energyPerQueryMj =
            energyJoules * 1e3 / static_cast<double>(report.completed);
    result.report = std::move(report);
    return result;
}

} // namespace aib::serve
