#include "serve/batcher.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aib::serve {

std::vector<BatchPlan>
planBatches(const std::vector<double> &arrivalUs,
            const BatchPolicy &policy)
{
    if (policy.maxBatch < 1)
        throw std::invalid_argument("planBatches: maxBatch must be >= 1");
    if (policy.maxDelayUs < 0)
        throw std::invalid_argument("planBatches: negative maxDelayUs");
    std::vector<BatchPlan> plans;
    const int n = static_cast<int>(arrivalUs.size());
    int i = 0;
    while (i < n) {
        BatchPlan plan;
        const double t0 = arrivalUs[static_cast<std::size_t>(i)];
        // A NaN arrival fits no window: the batch would stay empty
        // and the loop would never advance.
        if (std::isnan(t0))
            throw std::invalid_argument("planBatches: NaN arrival");
        const double deadline =
            t0 + static_cast<double>(policy.maxDelayUs);
        int j = i;
        while (j < n &&
               static_cast<int>(plan.ids.size()) < policy.maxBatch &&
               arrivalUs[static_cast<std::size_t>(j)] <= deadline) {
            plan.ids.push_back(j);
            ++j;
        }
        plan.closeUs =
            static_cast<int>(plan.ids.size()) == policy.maxBatch
                ? arrivalUs[static_cast<std::size_t>(j - 1)]
                : deadline;
        plans.push_back(std::move(plan));
        i = j;
    }
    return plans;
}

AdmissionQueue::AdmissionQueue(int capacity)
    : capacity_(std::max(1, capacity))
{}

bool
AdmissionQueue::push(const Request &request)
{
    {
        core::MutexLock lock(mutex_);
        if (closed_ ||
            static_cast<int>(queue_.size()) >= capacity_) {
            rejected_ += 1;
            return false;
        }
        queue_.push_back(request);
        peakDepth_ =
            std::max(peakDepth_, static_cast<int>(queue_.size()));
    }
    nonEmpty_.notify_one();
    return true;
}

bool
AdmissionQueue::popBatch(const BatchPolicy &policy,
                         std::vector<Request> *out)
{
    out->clear();
    // Explicit while-waits throughout: the thread-safety analysis
    // cannot look inside wait-predicate lambdas, but it tracks the
    // lock across wait(lock.native()).
    core::MutexLock lock(mutex_);
    for (;;) {
        while (!closed_ && queue_.empty())
            nonEmpty_.wait(lock.native());
        if (queue_.empty())
            return false; // closed and drained
        // A batch is ready when full or when the oldest member has
        // aged past the delay window; otherwise wait for more
        // arrivals, but no later than that member's deadline. Either
        // the batch fills (or the queue closes) before the deadline,
        // or the deadline passes and we dispatch what we have.
        const auto deadline =
            queue_.front().enqueue +
            std::chrono::microseconds(policy.maxDelayUs);
        while (!closed_ &&
               static_cast<int>(queue_.size()) < policy.maxBatch &&
               nonEmpty_.wait_until(lock.native(), deadline) !=
                   std::cv_status::timeout) {
        }
        if (queue_.empty())
            continue; // raced with another consumer
        const int take =
            std::min(policy.maxBatch, static_cast<int>(queue_.size()));
        out->reserve(static_cast<std::size_t>(take));
        for (int k = 0; k < take; ++k) {
            out->push_back(queue_.front());
            queue_.pop_front();
        }
        return true;
    }
}

void
AdmissionQueue::close()
{
    {
        core::MutexLock lock(mutex_);
        closed_ = true;
    }
    nonEmpty_.notify_all();
}

std::uint64_t
AdmissionQueue::rejected() const
{
    core::MutexLock lock(mutex_);
    return rejected_;
}

int
AdmissionQueue::peakDepth() const
{
    core::MutexLock lock(mutex_);
    return peakDepth_;
}

} // namespace aib::serve
