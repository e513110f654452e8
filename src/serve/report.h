/**
 * @file
 * Serving-run report: the online-inference metric set of Sec. 4.2.1
 * (latency, tail latency, throughput, energy per query) extended
 * with the serving-specific dimensions (batch-size distribution,
 * load shedding, queue depth), plus JSON serialization so external
 * harnesses and the BENCH_serving.json trajectory file can consume
 * runs machine-readably.
 */

#ifndef AIB_SERVE_REPORT_H
#define AIB_SERVE_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/histogram.h"

namespace aib::serve {

/** Metrics of one serving run of one benchmark. */
struct ServingReport {
    std::string benchmarkId;
    std::string mode; ///< "open", "closed" or "replay"
    int workers = 0;
    int maxBatch = 0;
    long maxDelayUs = 0;
    std::uint64_t seed = 0;

    int issued = 0;    ///< requests the load generator produced
    int completed = 0; ///< requests served to completion
    int rejected = 0;  ///< requests shed at admission
    int peakQueueDepth = 0;

    double wallSeconds = 0.0;    ///< measured span of the run
    double throughputQps = 0.0;  ///< completed / wallSeconds
    double openLoopQps = 0.0;    ///< offered rate (open loop only)

    LatencyHistogram latency; ///< merged across workers (us)

    /** batchSizeCounts[s] = batches dispatched with size s+1. */
    std::vector<std::uint64_t> batchSizeCounts;

    /** Simulated device-energy per completed query (millijoules). */
    double energyPerQueryMj = 0.0;
    /** Simulated single-batch service time per query (ms). */
    double simServiceMsPerQuery = 0.0;

    /** Mean dispatched batch size (0 when no batches ran). */
    double meanBatchSize() const;
    /** Total batches dispatched. */
    std::uint64_t batches() const;

    /** Latency percentile in milliseconds. */
    double latencyMsP(double pct) const;
};

/**
 * A whole serving sweep as the aib.serve/1 document (no trailing
 * newline): schema tag, shared options, and one object per benchmark
 * (p99 + peak QPS trajectory for regression tracking).
 */
std::string reportsToJson(const std::vector<ServingReport> &reports);

} // namespace aib::serve

#endif // AIB_SERVE_REPORT_H
