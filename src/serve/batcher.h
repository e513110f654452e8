/**
 * @file
 * Dynamic batching for the serving subsystem.
 *
 * Two layers share one policy:
 *
 *  - @c planBatches is the batching policy as a pure function: given
 *    the arrival trace and a @c BatchPolicy it returns the exact
 *    batch composition a lightly loaded server would form (close a
 *    batch when it holds maxBatch requests, or when the next arrival
 *    falls outside the first member's maxDelayUs window). Pure means
 *    testable and deterministic — the replay engine and the
 *    determinism suite are built on it.
 *
 *  - @c AdmissionQueue is the runtime: a bounded MPMC queue in front
 *    of the workers (clipper-style adaptive batching). Producers
 *    push requests and are *rejected* — never blocked, never
 *    unbounded — once the queue is at capacity (load shedding under
 *    overload); consumers pop whole batches, waiting at most
 *    maxDelayUs past the oldest queued request before dispatching a
 *    partial batch.
 */

#ifndef AIB_SERVE_BATCHER_H
#define AIB_SERVE_BATCHER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/annotations.h"

namespace aib::serve {

/** When to close a batch. */
struct BatchPolicy {
    int maxBatch = 8;        ///< dispatch at this size
    long maxDelayUs = 2000;  ///< ... or this long after the oldest
};

/** One admitted query. */
struct Request {
    int id = 0;                 ///< issue order, 0-based
    double arrivalUs = 0.0;     ///< logical arrival offset
    std::chrono::steady_clock::time_point enqueue{};
};

/** Planned batch: ids of its members, in arrival order. */
struct BatchPlan {
    std::vector<int> ids;
    double closeUs = 0.0; ///< logical time the batch closed
};

/**
 * The batch composition formed from @p arrivalUs (non-decreasing
 * offsets; request i arrives at arrivalUs[i]) under @p policy with
 * unconstrained service capacity. Greedy: a batch opens at the first
 * unassigned arrival t0 and absorbs arrivals until it holds maxBatch
 * or the next arrival is later than t0 + maxDelayUs; it closes at
 * the last member's arrival (full) or t0 + maxDelayUs (timeout).
 * Throws std::invalid_argument on a bad policy or a NaN arrival.
 */
std::vector<BatchPlan> planBatches(const std::vector<double> &arrivalUs,
                                   const BatchPolicy &policy);

class AdmissionQueue
{
  public:
    /** @p capacity is the high-water mark; pushes beyond it shed. */
    explicit AdmissionQueue(int capacity);

    /**
     * Admit a request. Returns false (and drops it) when the queue
     * already holds @c capacity requests — the overload signal.
     */
    bool push(const Request &request) AIB_EXCLUDES(mutex_);

    /**
     * Dequeue the next batch into @p out (cleared first): blocks
     * until @c policy.maxBatch requests are queued, or the oldest
     * queued request has waited @c policy.maxDelayUs, or the queue
     * is closed. Returns false only when closed and drained.
     */
    bool popBatch(const BatchPolicy &policy, std::vector<Request> *out)
        AIB_EXCLUDES(mutex_);

    /** No further pushes; wakes all waiting consumers. */
    void close() AIB_EXCLUDES(mutex_);

    /** Requests rejected by push so far. */
    std::uint64_t rejected() const AIB_EXCLUDES(mutex_);

    /** Largest queue depth observed at admission time. */
    int peakDepth() const AIB_EXCLUDES(mutex_);

  private:
    const int capacity_;
    mutable core::Mutex mutex_;
    std::condition_variable nonEmpty_;
    std::deque<Request> queue_ AIB_GUARDED_BY(mutex_);
    bool closed_ AIB_GUARDED_BY(mutex_) = false;
    std::uint64_t rejected_ AIB_GUARDED_BY(mutex_) = 0;
    int peakDepth_ AIB_GUARDED_BY(mutex_) = 0;
};

} // namespace aib::serve

#endif // AIB_SERVE_BATCHER_H
