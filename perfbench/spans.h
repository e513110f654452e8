/**
 * @file
 * In-memory spans around the benchmark's calls into each layer.
 *
 * A span holds a name, the layer it times, start and end on the
 * steady clock, the span that caused it and the request it belongs
 * to. Spans stay in memory while the workload runs and are written
 * once, at the end, as a Chrome trace-event file that Perfetto and
 * chrome://tracing open. With tracing off every call is a single
 * branch and nothing is stored.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the recorder's epoch. */
using Ns = std::int64_t;

struct Span {
    const char *name = "";  ///< e.g. "runEpoch"; static storage
    const char *layer = ""; ///< e.g. "models"; static storage
    Ns start = 0;
    Ns end = 0;
    int parent = -1;           ///< index of the causing span, -1 = root
    std::uint64_t request = 0; ///< request id, 0 = none
    std::uint32_t track = 0;   ///< recording thread, dense ids
    /** Crosses threads (a request's life); drawn as an async slice. */
    bool async = false;
    std::string detail;        ///< e.g. the benchmark id
};

/**
 * Thread-safe span store. Spans are appended under one mutex; the
 * workloads record at most a few per request, so the lock is taken
 * far less often than the layers under test take theirs.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }

    /** Nanoseconds from the recorder's epoch to @p t. */
    Ns at(Clock::time_point t) const;
    Ns now() const { return at(Clock::now()); }

    /** Store a finished span; returns its index (-1 when disabled). */
    int add(Span span);

    /**
     * Open a span on this thread; nested opens on the same thread
     * take it as their parent. Returns the index to pass to close().
     */
    int open(const char *name, const char *layer, std::string detail = {},
             std::uint64_t request = 0);
    void close(int index);

    /** Copy of every span recorded so far, in index order. */
    std::vector<Span> spans() const;

    /** Spans recorded so far. */
    std::size_t size() const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path,
                          const std::map<std::string, std::string> &meta)
        const;

  private:
    std::uint32_t trackOfThisThread();

    const bool enabled_;
    const Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::thread::id, std::uint32_t> tracks_;
};

/** RAII open()/close() pair. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name, const char *layer,
               std::string detail = {}, std::uint64_t request = 0)
        : recorder_(recorder),
          index_(recorder.open(name, layer, std::move(detail), request))
    {}
    ~ScopedSpan() { recorder_.close(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder_;
    const int index_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children (spans naming it as parent) cover.
 * Overlapping children count once; child time outside the parent's
 * interval does not count.
 */
std::vector<Ns> selfTimes(const std::vector<Span> &spans);

/**
 * Sum of self times per "layer/name" key, in nanoseconds.
 */
std::map<std::string, Ns> selfTimeByName(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
