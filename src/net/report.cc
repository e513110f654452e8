#include "net/report.h"

#include <cstring>

#include "core/json.h"
#include "serve/loadgen.h"

namespace aib::net {

namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
writeLatencyUs(core::json::Writer &w, const serve::LatencyHistogram &h)
{
    w.beginObject().field("count", h.count());
    w.field("mean_us", h.meanUs()).field("min_us", h.minUs());
    w.field("q50_us", h.percentileUs(50.0));
    w.field("q95_us", h.percentileUs(95.0));
    w.field("q99_us", h.percentileUs(99.0));
    w.field("q999_us", h.percentileUs(99.9));
    w.field("max_us", h.maxUs()).endObject();
}

} // namespace

NetserveReport
buildNetserveReport(const core::ComponentBenchmark &benchmark,
                    const NetBenchOptions &options,
                    const NetBenchResult &net, bool compareInprocess)
{
    NetserveReport report;
    report.benchmarkId = benchmark.info.id;
    report.options = options;
    report.net = net;
    if (!compareInprocess)
        return report;

    serve::ServingOptions sopts;
    sopts.workers = 2;
    sopts.policy = options.policy;
    sopts.queries = options.queries;
    sopts.seed = options.seed;
    sopts.qps = options.qps;
    sopts.mode = options.mode == LoadMode::Open
                     ? serve::DriveMode::OpenLoop
                     : serve::DriveMode::ClosedLoop;

    if (options.batching == serve::BatchingMode::Planned &&
        options.mode == LoadMode::Open) {
        // The digest gate: the replay fold of the identical trace
        // and policy must equal the network fold bitwise.
        const std::vector<double> trace = serve::poissonTrace(
            options.seed, options.qps, options.queries);
        const serve::ReplayResult replay =
            serve::replayTrace(benchmark, trace, sopts);
        double fold = 0.0;
        for (const serve::ReplayBatch &b : replay.batches)
            fold += b.digest;
        report.replayDigest = fold;
        report.digestMatch =
            net.digestComplete &&
            bitsOf(fold) == bitsOf(net.digest);
    }

    // The latency baseline: the same offered load, in process.
    report.inprocess = serve::serveBenchmark(benchmark, sopts);
    report.haveInprocess = true;
    return report;
}

std::string
netserveReportToJson(const NetserveReport &r)
{
    const NetBenchOptions &o = r.options;
    core::json::Writer w;
    w.beginObject().field("schema", "aib.netserve/1");
    w.field("benchmark", r.benchmarkId);
    // netserve has one IO model; the field stays for readers.
    w.field("io", "epoll");
    w.field("mode", o.mode == LoadMode::Open ? "open" : "closed");
    w.field("batching", o.batching == serve::BatchingMode::Planned
                            ? "planned"
                            : "dynamic");
    w.field("processes", o.processes).field("connections", o.connections);
    w.field("queries", o.queries).field("qps", o.qps).field("seed", o.seed);
    w.field("max_batch", o.policy.maxBatch);
    w.field("max_delay_us", o.policy.maxDelayUs);

    const NetBenchResult &n = r.net;
    w.key("network").beginObject().field("sent", n.sent);
    w.field("replies", n.replies).field("shed", n.shed);
    w.field("errors", n.errors).field("workers_merged", n.workersMerged);
    w.field("wall_seconds", n.wallSeconds);
    w.field("throughput_qps",
            n.wallSeconds > 0.0
                ? static_cast<double>(n.replies) / n.wallSeconds
                : 0.0);
    writeLatencyUs(w.key("latency"), n.latency);
    w.endObject();

    w.key("client").beginObject();
    w.field("calibration_op_us", n.calibrationOpUs);
    w.field("mean_gap_us", n.meanGapUs).field("headroom", n.headroom);
    w.field("late_sends", n.lateSends);
    w.field("late_fraction", n.lateFraction);
    w.field("max_lateness_us", n.maxLatenessUs);
    w.field("bottleneck", n.clientBottleneck).endObject();

    w.key("digest").beginObject().field("network", n.digest);
    w.field("complete", n.digestComplete);
    w.field("replay", r.replayDigest).field("match", r.digestMatch);
    w.endObject();

    if (r.haveInprocess) {
        const serve::LatencyHistogram &h = r.inprocess.latency;
        w.key("inprocess").beginObject();
        w.field("completed", r.inprocess.completed);
        w.field("rejected", r.inprocess.rejected);
        writeLatencyUs(w.key("latency"), h);
        w.endObject().key("network_tax_us").beginObject();
        w.field("q50", n.latency.percentileUs(50.0) - h.percentileUs(50.0));
        w.field("q95", n.latency.percentileUs(95.0) - h.percentileUs(95.0));
        w.field("q99", n.latency.percentileUs(99.0) - h.percentileUs(99.0));
        w.endObject();
    }
    w.endObject();
    return w.str();
}

} // namespace aib::net
