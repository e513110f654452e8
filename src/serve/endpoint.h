/**
 * @file
 * The serving endpoint: the one place a batch executes.
 *
 * Callers @c submit() requests from any thread; the endpoint groups
 * them into batches, a pool of worker replicas executes each batch
 * with @c TrainableTask::serveBatch, and a completion callback fires
 * once per request on the worker that served it. The network server
 * (docs/NETSERVE.md), the open- and closed-loop drivers of
 * @c serveBenchmark and the planned replay of @c replayTrace
 * (docs/SERVING.md) all serve through it.
 *
 * Two batching modes:
 *
 *  - @c Dynamic: bounded admission queue (shedding by rejection),
 *    batches closed at maxBatch or maxDelayUs. Batch composition
 *    depends on arrival timing, so digests are real but not
 *    reproducible run-to-run.
 *
 *  - @c Planned: batch composition is fixed up front from a
 *    @c planBatches plan both sides can derive (seeded arrival
 *    trace). Requests are buffered per planned batch and a batch
 *    dispatches when its last member arrives, so the executed
 *    compositions — and therefore the per-batch digests and their
 *    batch-order fold — do not depend on arrival timing or on the
 *    worker count. This is what lets a loopback netbench run be
 *    gated against the in-process replay digest in CI.
 *
 * Every worker records the kernels it launches (per worker in
 * dynamic mode, per batch in planned mode): the input of the
 * simulated-device service-time and energy columns.
 *
 * A batch whose @c serveBatch throws still completes each of its
 * members exactly once, with @c EndpointCompletion::failed set. The
 * endpoint then stops admitting, serves what it already admitted,
 * and @c drain() rethrows the first such error.
 *
 * Worker replicas are built from the same seed, and worker loops run
 * inside a dedicated ThreadPool parallel region so every tensor op
 * executes inline on its worker.
 */

#ifndef AIB_SERVE_ENDPOINT_H
#define AIB_SERVE_ENDPOINT_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/annotations.h"
#include "core/benchmark.h"
#include "profiler/trace.h"
#include "serve/batcher.h"
#include "serve/histogram.h"

namespace aib::serve {

/** How an endpoint composes batches. */
enum class BatchingMode {
    Dynamic, ///< admission queue + maxBatch/maxDelayUs batcher
    Planned, ///< fixed plan; dispatch when a batch's members arrived
};

/** Configuration of one endpoint. */
struct EndpointOptions {
    int workers = 2;          ///< serving replicas
    BatchPolicy policy;       ///< dynamic-mode batching policy
    int queueCapacity = 256;  ///< dynamic-mode admission high-water
    int trainEpochs = 0;      ///< pre-serving training per replica
    int warmupQueries = 2;    ///< unmeasured warmup per replica
    std::uint64_t seed = 42;
    BatchingMode batching = BatchingMode::Dynamic;
    /** Planned mode: the fixed batch composition (ids per batch). */
    std::vector<BatchPlan> plan;
};

/** Verdict of @c ServingEndpoint::submit. */
enum class SubmitResult {
    Accepted,
    Shed,      ///< dynamic mode: admission queue at capacity
    Closed,    ///< endpoint is draining / drained
    UnknownId, ///< planned mode: id outside the plan (or duplicate)
};

/** Delivered to the completion callback, once per accepted request. */
struct EndpointCompletion {
    int id = 0;                 ///< the request's exemplar id
    double batchDigest = 0.0;   ///< digest of the batch it rode in
    long batchIndex = -1;       ///< planned-mode batch number
    int batchSize = 0;
    double serverLatencyUs = 0; ///< enqueue -> served, server clock
    /** The batch's serveBatch threw: no digest, nothing served. */
    bool failed = false;
};

/** Planned mode: what executing one planned batch produced. */
struct PlannedBatchResult {
    bool ran = false;             ///< executed without throwing
    double digest = 0.0;          ///< serveBatch output digest
    profiler::TraceSession trace; ///< kernels the batch launched
};

/**
 * Per-request completion hook. Runs on the serving worker that
 * executed the batch, possibly concurrently with other workers'
 * callbacks — the callee synchronizes its own state.
 */
using EndpointCallback = std::function<void(const EndpointCompletion &)>;

/**
 * Build one serving replica: reseed the global RNG, construct,
 * optionally train and warm up. Replicas built with equal arguments
 * are bitwise clones — the digest-parity contract between live
 * serving, replay and the network endpoint. Must be called from one
 * thread at a time (the global RNG is process state).
 */
std::unique_ptr<core::TrainableTask>
buildReplica(const core::ComponentBenchmark &benchmark,
             std::uint64_t seed, int trainEpochs, int warmupQueries);

class ServingEndpoint
{
  public:
    /**
     * Build replicas (sequentially, on the calling thread) and start
     * the worker pool. Throws std::invalid_argument on nonsensical
     * options (workers < 1, planned mode without a plan...).
     */
    ServingEndpoint(const core::ComponentBenchmark &benchmark,
                    EndpointOptions options, EndpointCallback onComplete);

    /** Drains (joining all workers) if the caller did not. */
    ~ServingEndpoint();

    ServingEndpoint(const ServingEndpoint &) = delete;
    ServingEndpoint &operator=(const ServingEndpoint &) = delete;

    /**
     * Admit one request from any thread. @c request.id is the
     * exemplar id; latency is measured from @c request.enqueue — the
     * caller's receive timestamp, or a load generator's scheduled
     * arrival.
     */
    SubmitResult submit(const Request &request) AIB_EXCLUDES(mutex_);

    /**
     * Stop admitting, serve everything already admitted (planned
     * mode flushes partially-arrived batches so a dead client cannot
     * wedge the drain), join the workers, and rethrow the first
     * worker exception, if any. Idempotent.
     */
    void drain() AIB_EXCLUDES(mutex_);

    // ---- post-drain accounting (stable once drain() returned) ----

    /** Requests served without error. */
    std::uint64_t completed() const { return completed_; }
    std::uint64_t rejected() const;
    int peakQueueDepth() const;
    std::uint64_t batches() const { return batchesServed_; }
    /** Enqueue->served latency of the served requests. */
    const LatencyHistogram &latency() const { return latency_; }
    /** batchSizeCounts[s] = batches dispatched with size s+1. */
    const std::vector<std::uint64_t> &batchSizeCounts() const
    {
        return batchSizeCounts_;
    }
    /**
     * Fold of per-batch digests. Planned mode: strictly in batch
     * index order — bitwise equal to folding @c replayTrace batch
     * digests on the same plan. Dynamic mode: dispatch order, real
     * but timing-dependent.
     */
    double sessionDigest() const { return sessionDigest_; }
    /** Kernels launched by every batch served, merged. */
    const profiler::TraceSession &trace() const { return trace_; }
    /** Planned mode: one result per planned batch, in plan order. */
    const std::vector<PlannedBatchResult> &plannedBatches() const
    {
        return planned_;
    }

    const EndpointOptions &options() const { return options_; }

  private:
    struct WorkerState;
    struct PlannedBatch;

    void workerLoop(WorkerState &w);
    bool nextPlannedBatch(int *batchIndex,
                          std::vector<Request> *members)
        AIB_EXCLUDES(mutex_);
    void execute(WorkerState &w, int batchIndex,
                 const std::vector<Request> &members,
                 const std::vector<int> &ids) AIB_EXCLUDES(mutex_);
    /** Record the first worker error and stop admitting. */
    void fail(std::exception_ptr error) AIB_EXCLUDES(mutex_);
    /** Stop admitting; everything admitted is still served. */
    void closeAdmission() AIB_EXCLUDES(mutex_);
    void finish();

    const core::ComponentBenchmark &benchmark_;
    const EndpointOptions options_;
    const EndpointCallback onComplete_;

    std::vector<std::unique_ptr<WorkerState>> workers_;
    std::unique_ptr<AdmissionQueue> queue_; ///< dynamic mode
    std::thread coordinator_;

    /** Planned mode: id -> index of its planned batch. Built once
     *  by the constructor, read-only afterwards. */
    std::unordered_map<int, int> batchOf_;

    mutable core::Mutex mutex_;
    std::condition_variable readyCv_;
    /** Planned mode: arrival buffers, one per planned batch. */
    std::vector<PlannedBatch> pending_ AIB_GUARDED_BY(mutex_);
    std::deque<int> ready_ AIB_GUARDED_BY(mutex_);
    bool closed_ AIB_GUARDED_BY(mutex_) = false;
    std::uint64_t plannedRejected_ AIB_GUARDED_BY(mutex_) = 0;
    std::exception_ptr firstError_ AIB_GUARDED_BY(mutex_);

    /**
     * Planned mode: per-batch result slots. Slot b is written only by
     * the worker that executed batch b (each ready_ entry is popped
     * exactly once), and read after the pool joined — distinct slots,
     * no lock.
     */
    std::vector<PlannedBatchResult> planned_;

    bool drained_ = false;

    // Merged after the pool joined; read-only afterwards.
    std::uint64_t completed_ = 0;
    std::uint64_t batchesServed_ = 0;
    double sessionDigest_ = 0.0;
    LatencyHistogram latency_;
    std::vector<std::uint64_t> batchSizeCounts_;
    profiler::TraceSession trace_;
};

} // namespace aib::serve

#endif // AIB_SERVE_ENDPOINT_H
