/**
 * @file
 * The aib.netserve/1 report: what does the network cost?
 *
 * A netbench run and an in-process run of the *same* seeded trace
 * against the *same* engine configuration differ only by the
 * socket, the protocol codec and the process boundary — so their
 * latency gap is the network serving tax, and their digests must
 * not differ at all (planned mode executes the identical batch
 * plan). @c buildNetserveReport runs the in-process sides
 * (@c replayTrace for the digest gate, @c serveBenchmark open-loop
 * for the latency baseline) and @c netserveReportToJson emits the
 * single JSON document CI gates on and archives as
 * BENCH_netserve.json.
 */

#ifndef AIB_NET_REPORT_H
#define AIB_NET_REPORT_H

#include <string>

#include "core/benchmark.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/engine.h"

namespace aib::net {

/** One netbench run plus its in-process reference runs. */
struct NetserveReport {
    std::string benchmarkId;
    NetBenchOptions options;
    NetBenchResult net;

    bool haveInprocess = false;
    serve::ServingReport inprocess; ///< open-loop, same trace config
    double replayDigest = 0.0;      ///< replayTrace fold, same plan
    bool digestMatch = false;       ///< net.digest bitwise == replay
};

/**
 * Run the in-process reference sides and assemble the report.
 * @p compareInprocess false skips them (digestMatch then stays
 * false and the latency comparison is omitted from the JSON).
 */
NetserveReport
buildNetserveReport(const core::ComponentBenchmark &benchmark,
                    const NetBenchOptions &options,
                    const NetBenchResult &net, bool compareInprocess);

/** The aib.netserve/1 JSON document (no trailing newline). */
std::string netserveReportToJson(const NetserveReport &report);

} // namespace aib::net

#endif // AIB_NET_REPORT_H
