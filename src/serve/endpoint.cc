#include "serve/endpoint.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/thread_pool.h"
#include "tensor/random.h"

namespace aib::serve {

namespace {

using Clock = std::chrono::steady_clock;

} // namespace

std::unique_ptr<core::TrainableTask>
buildReplica(const core::ComponentBenchmark &benchmark,
             std::uint64_t seed, int trainEpochs, int warmupQueries)
{
    seedGlobalRng(seed);
    std::unique_ptr<core::TrainableTask> task = benchmark.makeTask(seed);
    for (int e = 0; e < trainEpochs; ++e)
        task->runEpoch();
    for (int q = 0; q < warmupQueries; ++q)
        task->forwardOnce();
    return task;
}

/** Private serving state of one worker; never shared across workers. */
struct ServingEndpoint::WorkerState {
    std::unique_ptr<core::TrainableTask> task;
    LatencyHistogram latency;
    std::vector<std::uint64_t> batchSizeCounts;
    std::uint64_t served = 0;
    std::uint64_t batches = 0;
    /** Dynamic mode: digest fold in this worker's dispatch order. */
    double digestFold = 0.0;
    /** Dynamic mode: kernels of every batch this worker ran. */
    profiler::TraceSession trace;
};

struct ServingEndpoint::PlannedBatch {
    std::vector<Request> arrived;
    int expected = 0;
    bool enqueued = false; ///< pushed to ready_ (complete or flushed)
};

ServingEndpoint::ServingEndpoint(
    const core::ComponentBenchmark &benchmark, EndpointOptions options,
    EndpointCallback onComplete)
    : benchmark_(benchmark), options_(std::move(options)),
      onComplete_(std::move(onComplete))
{
    if (options_.workers < 1)
        throw std::invalid_argument("endpoint: workers must be >= 1");
    if (options_.policy.maxBatch < 1)
        throw std::invalid_argument("endpoint: maxBatch must be >= 1");
    if (options_.batching == BatchingMode::Planned) {
        if (options_.plan.empty())
            throw std::invalid_argument(
                "endpoint: planned batching needs a non-empty plan");
        pending_.resize(options_.plan.size());
        for (std::size_t b = 0; b < options_.plan.size(); ++b) {
            if (options_.plan[b].ids.empty())
                throw std::invalid_argument(
                    "endpoint: plan contains an empty batch");
            pending_[b].expected =
                static_cast<int>(options_.plan[b].ids.size());
            for (const int id : options_.plan[b].ids)
                if (!batchOf_.emplace(id, static_cast<int>(b)).second)
                    throw std::invalid_argument(
                        "endpoint: plan repeats id " +
                        std::to_string(id));
        }
    } else {
        queue_ = std::make_unique<AdmissionQueue>(
            options_.queueCapacity);
    }

    int maxSize = options_.policy.maxBatch;
    for (const BatchPlan &p : options_.plan)
        maxSize = std::max(maxSize, static_cast<int>(p.ids.size()));
    batchSizeCounts_.assign(static_cast<std::size_t>(maxSize), 0);

    const int workers = options_.workers;
    planned_ = std::vector<PlannedBatchResult>(options_.plan.size());
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        auto state = std::make_unique<WorkerState>();
        // Replicas are built sequentially here: constructors and
        // runEpoch draw from the process-global RNG.
        state->task = buildReplica(benchmark_, options_.seed,
                                   options_.trainEpochs,
                                   options_.warmupQueries);
        state->batchSizeCounts.assign(
            static_cast<std::size_t>(maxSize), 0);
        workers_.push_back(std::move(state));
    }

    // The worker loops run as chunks of one parallel region on a
    // dedicated pool: every tensor op inside a loop executes inline
    // on its worker, giving inter-query parallelism without
    // oversubscribing the global tensor pool.
    coordinator_ = std::thread([this, workers] {
        try {
            core::ThreadPool pool(workers);
            pool.parallelForChunked(
                0, workers, 1,
                [this](int chunk, std::int64_t, std::int64_t) {
                    try {
                        workerLoop(*workers_[static_cast<std::size_t>(
                            chunk)]);
                    } catch (...) {
                        // A throwing completion callback: stop
                        // admitting so the peers drain and exit.
                        fail(std::current_exception());
                    }
                });
        } catch (...) {
            fail(std::current_exception());
        }
    });
}

ServingEndpoint::~ServingEndpoint()
{
    try {
        drain();
    } catch (...) {
        // Destructor swallows what drain() would have reported.
    }
}

SubmitResult
ServingEndpoint::submit(const Request &request)
{
    if (queue_) {
        // Held across the push, so no request is admitted after
        // closeAdmission() returned.
        core::MutexLock lock(mutex_);
        if (closed_)
            return SubmitResult::Closed;
        return queue_->push(request) ? SubmitResult::Accepted
                                     : SubmitResult::Shed;
    }

    {
        core::MutexLock lock(mutex_);
        if (closed_)
            return SubmitResult::Closed;
        const auto it = batchOf_.find(request.id);
        if (it == batchOf_.end()) {
            plannedRejected_ += 1;
            return SubmitResult::UnknownId;
        }
        PlannedBatch &p = pending_[static_cast<std::size_t>(it->second)];
        for (const Request &r : p.arrived)
            if (r.id == request.id) {
                plannedRejected_ += 1;
                return SubmitResult::UnknownId; // duplicate
            }
        if (p.enqueued) {
            plannedRejected_ += 1;
            return SubmitResult::Closed; // batch already flushed
        }
        p.arrived.push_back(request);
        if (static_cast<int>(p.arrived.size()) < p.expected)
            return SubmitResult::Accepted;
        p.enqueued = true;
        ready_.push_back(it->second);
    }
    readyCv_.notify_one();
    return SubmitResult::Accepted;
}

bool
ServingEndpoint::nextPlannedBatch(int *batchIndex,
                                  std::vector<Request> *members)
{
    core::MutexLock lock(mutex_);
    while (!closed_ && ready_.empty())
        readyCv_.wait(lock.native());
    if (ready_.empty())
        return false; // closed and drained
    const int bi = ready_.front();
    ready_.pop_front();
    PlannedBatch &p = pending_[static_cast<std::size_t>(bi)];
    *batchIndex = bi;
    *members = std::move(p.arrived);
    p.arrived.clear();
    return true;
}

void
ServingEndpoint::workerLoop(WorkerState &w)
{
    std::vector<Request> members;
    std::vector<int> ids;
    if (queue_) {
        while (queue_->popBatch(options_.policy, &members)) {
            ids.clear();
            for (const Request &r : members)
                ids.push_back(r.id);
            execute(w, -1, members, ids);
        }
        return;
    }

    int bi = -1;
    while (nextPlannedBatch(&bi, &members)) {
        const auto &planned =
            options_.plan[static_cast<std::size_t>(bi)].ids;
        if (members.size() == planned.size()) {
            // Complete batch: execute the exact planned composition,
            // in plan order — the replay-digest contract.
            ids = planned;
        } else {
            // Drain-flushed partial batch: the arrived subset, in
            // plan order (deterministic given who arrived).
            ids.clear();
            for (const int id : planned)
                for (const Request &r : members)
                    if (r.id == id) {
                        ids.push_back(id);
                        break;
                    }
        }
        execute(w, bi, members, ids);
    }
}

void
ServingEndpoint::execute(WorkerState &w, int batchIndex,
                         const std::vector<Request> &members,
                         const std::vector<int> &ids)
{
    PlannedBatchResult *slot =
        batchIndex >= 0 ? &planned_[static_cast<std::size_t>(batchIndex)]
                        : nullptr;
    double digest = 0.0;
    bool failed = false;
    try {
        profiler::ScopedTrace scope(slot ? slot->trace : w.trace);
        digest = w.task->serveBatch(ids);
    } catch (...) {
        // Stop admitting before the members complete, so a
        // completion that resubmits cannot feed a failing endpoint.
        failed = true;
        fail(std::current_exception());
    }
    const auto end = Clock::now();
    if (!failed) {
        if (slot) {
            slot->digest = digest;
            slot->ran = true;
        } else {
            w.digestFold += digest;
        }
        w.batchSizeCounts[ids.size() - 1] += 1;
        w.batches += 1;
    }
    for (const Request &r : members) {
        const double lat =
            std::chrono::duration<double, std::micro>(end - r.enqueue)
                .count();
        if (!failed) {
            w.latency.record(lat);
            w.served += 1;
        }
        if (onComplete_)
            onComplete_({r.id, digest, batchIndex,
                         static_cast<int>(ids.size()), lat, failed});
    }
}

void
ServingEndpoint::fail(std::exception_ptr error)
{
    {
        core::MutexLock lock(mutex_);
        if (!firstError_)
            firstError_ = std::move(error);
    }
    closeAdmission();
}

void
ServingEndpoint::closeAdmission()
{
    {
        core::MutexLock lock(mutex_);
        closed_ = true;
        // Planned mode: flush partially-arrived batches, so a client
        // that died mid-trace cannot wedge the drain.
        for (std::size_t b = 0; b < pending_.size(); ++b) {
            PlannedBatch &p = pending_[b];
            if (!p.enqueued && !p.arrived.empty()) {
                p.enqueued = true;
                ready_.push_back(static_cast<int>(b));
            }
        }
    }
    readyCv_.notify_all();
    if (queue_)
        queue_->close();
}

void
ServingEndpoint::finish()
{
    for (const auto &w : workers_) {
        latency_.merge(w->latency);
        for (std::size_t s = 0; s < w->batchSizeCounts.size(); ++s)
            batchSizeCounts_[s] += w->batchSizeCounts[s];
        completed_ += w->served;
        batchesServed_ += w->batches;
    }
    if (options_.batching == BatchingMode::Planned) {
        // Batch-index order, regardless of execution order.
        for (const PlannedBatchResult &b : planned_)
            if (b.ran) {
                sessionDigest_ += b.digest;
                trace_.merge(b.trace);
            }
    } else {
        for (const auto &w : workers_) {
            sessionDigest_ += w->digestFold;
            trace_.merge(w->trace);
        }
    }
}

void
ServingEndpoint::drain()
{
    if (drained_)
        return;
    closeAdmission();
    if (coordinator_.joinable())
        coordinator_.join();
    finish();
    drained_ = true;
    std::exception_ptr error;
    {
        core::MutexLock lock(mutex_);
        error = firstError_;
    }
    if (error)
        std::rethrow_exception(error);
}

std::uint64_t
ServingEndpoint::rejected() const
{
    if (queue_)
        return queue_->rejected();
    core::MutexLock lock(mutex_);
    return plannedRejected_;
}

int
ServingEndpoint::peakQueueDepth() const
{
    return queue_ ? queue_->peakDepth() : 0;
}

const core::TrainableTask &
ServingEndpoint::replica(int w) const
{
    return *workers_[static_cast<std::size_t>(w)]->task;
}

} // namespace aib::serve
