/**
 * @file
 * Serving sessions (paper Sec. 4.2.1's online-inference metrics,
 * grown into a real serving path): load drivers over
 * @c ServingEndpoint, the one place a batch executes.
 *
 * Requests flow through the endpoint's bounded admission queue
 * (backpressure by rejection, not unbounded growth), its dynamic
 * batcher (dispatch at maxBatch or maxDelayUs, whichever first) and
 * its worker replicas, each built from the same seed — replicas are
 * bitwise-identical at start, so no model state is ever shared
 * across threads.
 *
 * Three ways to drive it:
 *  - open loop: seeded Poisson arrivals at a target QPS, real
 *    sleeps, latency from each request's scheduled arrival; queueing
 *    delay and load shedding are visible.
 *  - closed loop: a fixed number of in-flight requests, each
 *    completion immediately submitting the next; measures peak
 *    sustainable throughput. At batch 1 on one worker it is the
 *    single-query inference measurement.
 *  - replay (@c replayTrace): a fixed arrival trace is planned into
 *    batches by the pure policy function, a planned endpoint really
 *    executes every batch (output digests), and latencies come from
 *    a discrete-event simulation with gpusim-projected service times
 *    — fully deterministic under a fixed seed and trace, regardless
 *    of wall clock.
 */

#ifndef AIB_SERVE_ENGINE_H
#define AIB_SERVE_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/benchmark.h"
#include "gpusim/device.h"
#include "serve/batcher.h"
#include "serve/report.h"

namespace aib::serve {

/** How the load generator drives the endpoint. */
enum class DriveMode {
    OpenLoop,
    ClosedLoop,
};

/** Options for one serving run. */
struct ServingOptions {
    int workers = 3;          ///< serving workers (task replicas)
    BatchPolicy policy;       ///< dynamic batching policy
    int queueCapacity = 64;   ///< admission high-water mark
    int queries = 120;        ///< total queries to issue
    int warmupQueries = 2;    ///< per-replica, not measured
    DriveMode mode = DriveMode::ClosedLoop;
    double qps = 200.0;       ///< open-loop target arrival rate
    /** Closed-loop in-flight target; 0 = 2 x maxBatch x workers. */
    int concurrency = 0;
    /** Train this many epochs before serving (0 = fresh weights). */
    int trainEpochs = 0;
    std::uint64_t seed = 42;
    gpusim::DeviceSpec device = gpusim::titanXp();
};

/** Result of executing one batch in replay mode. */
struct ReplayBatch {
    std::vector<int> ids;   ///< composition, arrival order
    double digest = 0.0;    ///< serveBatch output digest
    double serviceUs = 0.0; ///< simulated service time
};

/** Deterministic replay result. */
struct ReplayResult {
    std::vector<ReplayBatch> batches;
    /** Per-request latency in us, indexed by request id. */
    std::vector<double> latencyUs;
    ServingReport report;
};

/**
 * Run a live (open- or closed-loop) serving session of @p benchmark
 * and return its report. Throws std::invalid_argument on nonsensical
 * options (workers < 1, queries < 1...), and rethrows the first
 * error of a batch that failed.
 */
ServingReport serveBenchmark(const core::ComponentBenchmark &benchmark,
                             const ServingOptions &options);

/**
 * Deterministically replay @p arrivalUs (non-decreasing offsets, one
 * per request) against @p benchmark: plan batches with
 * @c planBatches, execute every batch on a planned endpoint
 * (digests), and derive the latency stream from a k-server FCFS
 * event simulation using gpusim-projected batch service times.
 * Batch composition and digests are independent of the worker
 * count; the latency stream is a pure function of (benchmark, seed,
 * trace, options).
 */
ReplayResult replayTrace(const core::ComponentBenchmark &benchmark,
                         const std::vector<double> &arrivalUs,
                         const ServingOptions &options);

} // namespace aib::serve

#endif // AIB_SERVE_ENGINE_H
