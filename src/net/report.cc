#include "net/report.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "serve/loadgen.h"

namespace aib::net {

namespace {

void
appendf(std::string *out, const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    *out += buf;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
appendLatencyObject(std::string *out, const char *indent,
                    const serve::LatencyHistogram &h,
                    bool trailingComma)
{
    appendf(out, "%s  \"count\": %llu,\n", indent,
            static_cast<unsigned long long>(h.count()));
    appendf(out, "%s  \"mean_us\": %.3f,\n", indent, h.meanUs());
    appendf(out, "%s  \"min_us\": %.3f,\n", indent, h.minUs());
    appendf(out, "%s  \"q50_us\": %.3f,\n", indent,
            h.percentileUs(50.0));
    appendf(out, "%s  \"q95_us\": %.3f,\n", indent,
            h.percentileUs(95.0));
    appendf(out, "%s  \"q99_us\": %.3f,\n", indent,
            h.percentileUs(99.0));
    appendf(out, "%s  \"q999_us\": %.3f,\n", indent,
            h.percentileUs(99.9));
    appendf(out, "%s  \"max_us\": %.3f\n", indent, h.maxUs());
    appendf(out, "%s}%s\n", indent, trailingComma ? "," : "");
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
    std::string out = "{\n";
    appendf(&out, "  \"schema\": \"aib.netserve/1\",\n");
    appendf(&out, "  \"benchmark\": \"%s\",\n",
            r.benchmarkId.c_str());
    // netserve has one IO model; the field stays for readers.
    appendf(&out, "  \"io\": \"epoll\",\n");
    appendf(&out, "  \"mode\": \"%s\",\n",
            r.options.mode == LoadMode::Open ? "open" : "closed");
    appendf(&out, "  \"batching\": \"%s\",\n",
            r.options.batching == serve::BatchingMode::Planned
                ? "planned"
                : "dynamic");
    appendf(&out, "  \"processes\": %d,\n", r.options.processes);
    appendf(&out, "  \"connections\": %d,\n", r.options.connections);
    appendf(&out, "  \"queries\": %d,\n", r.options.queries);
    appendf(&out, "  \"qps\": %.3f,\n", r.options.qps);
    appendf(&out, "  \"seed\": %llu,\n",
            static_cast<unsigned long long>(r.options.seed));
    appendf(&out, "  \"max_batch\": %d,\n", r.options.policy.maxBatch);
    appendf(&out, "  \"max_delay_us\": %ld,\n",
            r.options.policy.maxDelayUs);

    const NetBenchResult &n = r.net;
    appendf(&out, "  \"network\": {\n");
    appendf(&out, "    \"sent\": %llu,\n",
            static_cast<unsigned long long>(n.sent));
    appendf(&out, "    \"replies\": %llu,\n",
            static_cast<unsigned long long>(n.replies));
    appendf(&out, "    \"shed\": %llu,\n",
            static_cast<unsigned long long>(n.shed));
    appendf(&out, "    \"errors\": %llu,\n",
            static_cast<unsigned long long>(n.errors));
    appendf(&out, "    \"workers_merged\": %d,\n", n.workersMerged);
    appendf(&out, "    \"wall_seconds\": %.3f,\n", n.wallSeconds);
    appendf(&out, "    \"throughput_qps\": %.3f,\n",
            n.wallSeconds > 0.0
                ? static_cast<double>(n.replies) / n.wallSeconds
                : 0.0);
    appendf(&out, "    \"latency\": {\n");
    appendLatencyObject(&out, "    ", n.latency, false);
    appendf(&out, "  },\n");

    appendf(&out, "  \"client\": {\n");
    appendf(&out, "    \"calibration_op_us\": %.4f,\n",
            n.calibrationOpUs);
    appendf(&out, "    \"mean_gap_us\": %.3f,\n", n.meanGapUs);
    appendf(&out, "    \"headroom\": %.2f,\n", n.headroom);
    appendf(&out, "    \"late_sends\": %llu,\n",
            static_cast<unsigned long long>(n.lateSends));
    appendf(&out, "    \"late_fraction\": %.4f,\n", n.lateFraction);
    appendf(&out, "    \"max_lateness_us\": %.3f,\n",
            n.maxLatenessUs);
    appendf(&out, "    \"bottleneck\": %s\n",
            n.clientBottleneck ? "true" : "false");
    appendf(&out, "  },\n");

    appendf(&out, "  \"digest\": {\n");
    appendf(&out, "    \"network\": %.17g,\n", n.digest);
    appendf(&out, "    \"complete\": %s,\n",
            n.digestComplete ? "true" : "false");
    appendf(&out, "    \"replay\": %.17g,\n", r.replayDigest);
    appendf(&out, "    \"match\": %s\n",
            r.digestMatch ? "true" : "false");
    appendf(&out, "  }%s\n", r.haveInprocess ? "," : "");

    if (r.haveInprocess) {
        const serve::LatencyHistogram &h = r.inprocess.latency;
        appendf(&out, "  \"inprocess\": {\n");
        appendf(&out, "    \"completed\": %d,\n",
                r.inprocess.completed);
        appendf(&out, "    \"rejected\": %d,\n",
                r.inprocess.rejected);
        appendf(&out, "    \"latency\": {\n");
        appendLatencyObject(&out, "    ", h, false);
        appendf(&out, "  },\n");
        appendf(&out, "  \"network_tax_us\": {\n");
        appendf(&out, "    \"q50\": %.3f,\n",
                n.latency.percentileUs(50.0) - h.percentileUs(50.0));
        appendf(&out, "    \"q95\": %.3f,\n",
                n.latency.percentileUs(95.0) - h.percentileUs(95.0));
        appendf(&out, "    \"q99\": %.3f\n",
                n.latency.percentileUs(99.0) - h.percentileUs(99.0));
        appendf(&out, "  }\n");
    }
    out += "}";
    return out;
}

} // namespace aib::net
