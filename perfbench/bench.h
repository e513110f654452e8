/**
 * @file
 * Shared types of the benchmark program: the run options every
 * workload receives, and the outcome it hands back for printing.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"
#include "spans.h"

namespace aib::core {}
namespace aib::serve {}
namespace aib::dag {}
namespace aib::net {}
namespace aib::profiler {}
namespace aib::alloctrack {}

namespace perfbench {

namespace core = aib::core;
namespace serve = aib::serve;
namespace dag = aib::dag;
namespace net = aib::net;
namespace profiler = aib::profiler;
namespace alloctrack = aib::alloctrack;

/** What the command line asks for. */
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0; ///< measured time of the run
    bool trace = false;    ///< per-layer (traced) run
    std::string outDir = ".bench_out";
    std::string selfPath;  ///< this executable, for child processes
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload measured and checked. */
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Reasons the outputs were wrong; empty = correct. */
    std::vector<std::string> errors;
    /** Reasons the measurement is not valid (e.g. a late generator). */
    std::vector<std::string> invalid;
    /** The BENCHMARK.json end-to-end metrics (untraced runs). */
    std::vector<Metric> endToEnd;
    /** The BENCHMARK.json per-layer metrics (traced runs). */
    std::vector<Metric> perLayer;
    /** Further named figures, printed in the human-readable report. */
    std::vector<Metric> report;
    /** Threads the workload runs, for the platform header. */
    std::string threads;

    void
    fail(std::string why)
    {
        errors.push_back(std::move(why));
    }
};

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Seconds since @p a. */
inline double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

// Workloads (one file each). Each fills @p out; spans go to @p spans.
void runTrainSubset(const RunOptions &opt, SpanRecorder &spans,
                    Outcome &out);
void runServeEcommerce(const RunOptions &opt, SpanRecorder &spans,
                       Outcome &out);
void runNetRecommend(const RunOptions &opt, SpanRecorder &spans,
                     Outcome &out);

/**
 * The window counters every traced run reports: CPU / wall, context
 * switches and minor faults per operation of the measured process
 * (@p before and @p after bracket @p wallS seconds and @p ops
 * operations), the workload's p50 with spans on, and spans recorded
 * per operation.
 */
void addWindowLayers(const ProcCounters &before, const ProcCounters &after,
                     double wallS, double ops, double p50Ms,
                     const SpanRecorder &spans, Outcome &out);

/** Child-process entry: host SCN-RECOMMEND behind net::NetServer. */
int netServerMain(int argc, char **argv);

/**
 * The training per-layer metrics of other workloads' traced runs:
 * makeTask and a few timed epochs of each subset member.
 */
void probeTrainingLayers(const RunOptions &opt, SpanRecorder &spans,
                         Outcome &out);

/**
 * The layer probes every traced run makes, whatever the workload:
 * pool dispatch, the GEMM sweep, standalone serveBatch per model and
 * per scenario. Appends to out.perLayer and out.report.
 */
void runLayerProbes(const RunOptions &opt, SpanRecorder &spans,
                    Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
