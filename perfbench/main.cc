/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench <workload> --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--describe TEXT]
 *
 * Workloads: train-subset, serve-ecommerce, net-recommend (see
 * perfbench/README.md for what each runs and why). Prints a platform
 * header and a human-readable table, then, as the last line of
 * standard output, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. Untraced runs report the end-to-end metrics; traced runs
 * (--trace 1) report the per-layer metrics and write every span to
 * DIR/<workload>-seed<N>.trace.json (Chrome trace-event format).
 *
 * Exit codes: 0 measured and correct; 1 a correctness gate failed;
 * 2 bad arguments or an internal error; 3 the measurement is invalid
 * (e.g. the load generator could not hold its schedule).
 */

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"
#include "host.h"
#include "tensor/detail/gemm.h"

namespace perfbench {
namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench train-subset|serve-ecommerce|"
                 "net-recommend --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--describe TEXT]\n");
    return 2;
}

bool
parseNumber(const char *text, double *out)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

/**
 * Cost of one span (open + close) on a scratch recorder, in ns: with
 * trace.spans_per_op it bounds what tracing adds to each operation.
 */
double
spanCostNs()
{
    SpanRecorder scratch(true);
    constexpr int kSpans = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        scratch.close(scratch.open("cost", "trace"));
    return msBetween(t0, Clock::now()) * 1e6 / kSpans;
}

/** %.17g keeps every digit the measurement has. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    if (metrics.empty())
        return;
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

void
addWindowLayers(const ProcCounters &before, const ProcCounters &after,
                double wallS, double ops, double p50Ms,
                const SpanRecorder &spans, Outcome &out)
{
    auto perOp = [&](std::uint64_t ProcCounters::*field) {
        return static_cast<double>(after.*field - before.*field) / ops;
    };
    out.perLayer.insert(
        out.perLayer.end(),
        {{"core.cpu_per_wall", (after.cpuSeconds - before.cpuSeconds) / wallS,
          "ratio"},
         {"core.vcsw_per_op", perOp(&ProcCounters::voluntarySwitches),
          "count"},
         {"core.ivcsw_per_op", perOp(&ProcCounters::involuntarySwitches),
          "count"},
         {"tensor.minflt_per_op", perOp(&ProcCounters::minorFaults), "count"},
         {"trace.p50_ms", p50Ms, "ms"},
         {"trace.spans_per_op", static_cast<double>(spans.size()) / ops,
          "count"}});
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc >= 2 && std::strcmp(argv[1], "netserve-child") == 0)
        return netServerMain(argc - 2, argv + 2);
    if (argc < 2)
        return usage();

    RunOptions opt;
    opt.workload = argv[1];
    opt.selfPath = argv[0];
    std::string describe = "unknown";
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            return usage();
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        double v = 0.0;
        char *end = nullptr;
        errno = 0;
        if (flag == "--seed" && value[0] >= '0' && value[0] <= '9') {
            opt.seed = std::strtoull(value, &end, 10);
            if (errno != 0 || *end != '\0')
                return usage();
            haveSeed = true;
        } else if (flag == "--seconds" && parseNumber(value, &v) && v > 0 &&
                   v <= 600) {
            opt.seconds = v;
            haveSeconds = true;
        } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                         std::strcmp(value, "1") == 0)) {
            opt.trace = value[0] == '1';
            haveTrace = true;
        } else if (flag == "--out-dir") {
            opt.outDir = value;
        } else if (flag == "--describe") {
            describe = value;
        } else {
            std::fprintf(stderr, "perfbench: bad argument %s %s\n",
                         flag.c_str(), value);
            return usage();
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage();

    void (*workload)(const RunOptions &, SpanRecorder &, Outcome &) = nullptr;
    if (opt.workload == "train-subset")
        workload = runTrainSubset;
    else if (opt.workload == "serve-ecommerce")
        workload = runServeEcommerce;
    else if (opt.workload == "net-recommend")
        workload = runNetRecommend;
    else
        return usage();

    const std::uint64_t steal0 = hostStealTicks();
    SpanRecorder spans(opt.trace);
    Outcome out;
    try {
        workload(opt, spans, out);
        if (opt.trace) {
            runLayerProbes(opt, spans, out);
            const double costNs = spanCostNs();
            out.perLayer.push_back({"trace.span_cost_ns", costNs, "ns"});
            // Where the time went: self time of each kind of span, and
            // what recording the spans cost per operation.
            for (const auto &[name, ns] : selfTimeByName(spans.spans()))
                out.report.push_back({"self_ms." + name, ns * 1e-6, "ms"});
            for (const Metric &m : out.perLayer)
                if (m.name == "trace.spans_per_op")
                    out.report.push_back({"trace.overhead_us_per_op",
                                          m.value * costNs * 1e-3, "us"});
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 2;
    }
    const std::uint64_t steal1 = hostStealTicks();

    // Platform header: enough to tell two hosts or builds apart.
    std::map<std::string, std::string> platform = {
        {"workload", opt.workload},
        {"seed", std::to_string(opt.seed)},
        {"seconds", number(opt.seconds)},
        {"traced", opt.trace ? "1" : "0"},
        {"cpu_model", cpuModel()},
        {"nproc", std::to_string(onlineCpus())},
        {"gemm_backend",
         std::string(aib::ops::detail::gemmBackendName(
             aib::ops::detail::resolvedGemmBackend()))},
        {"threads", out.threads},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", PERFBENCH_COMPILER},
        {"git_describe", describe},
        {"host_steal_ticks", std::to_string(steal1 - steal0)},
    };
    std::printf("perfbench platform\n");
    for (const auto &[k, v] : platform)
        std::printf("  %-18s %s\n", k.c_str(), v.c_str());
    printTable("end-to-end", out.endToEnd);
    printTable("per-layer", out.perLayer);
    printTable("report", out.report);
    for (const std::string &e : out.errors)
        std::printf("CORRECTNESS FAILURE: %s\n", e.c_str());
    for (const std::string &e : out.invalid)
        std::printf("INVALID MEASUREMENT: %s\n", e.c_str());

    if (opt.trace) {
        mkdir(opt.outDir.c_str(), 0755);
        const std::string path = opt.outDir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + ".trace.json";
        if (!spans.writeChromeTrace(path, platform)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
            return 2;
        }
        std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    }

    const bool correct = out.errors.empty();
    const std::vector<Metric> &metrics = opt.trace ? out.perLayer
                                                   : out.endToEnd;
    std::string json = "{\"correct\": " + std::string(correct ? "true"
                                                              : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    if (!correct)
        return 1;
    return out.invalid.empty() ? 0 : 3;
}
