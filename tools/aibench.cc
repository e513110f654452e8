/**
 * @file
 * The `aibench` command-line tool: run, characterize, lint and
 * compare the component benchmarks without writing any code.
 *
 * Subcommands register themselves in the kCommands dispatch table;
 * usage() is generated from that table, so adding a command is a
 * one-entry change.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/characterize.h"
#include "analysis/graphlint/analyze.h"
#include "analysis/graphlint/graphlint.h"
#include "analysis/graphopt/graphopt.h"
#include "analysis/targets.h"
#include "core/checkpoint.h"
#include "core/cost.h"
#include "core/faultinject.h"
#include "core/json.h"
#include "core/registry.h"
#include "core/runner.h"
#include "core/subset.h"
#include "core/thread_pool.h"
#include "core/sysio.h"
#include "dag/scenario.h"
#include "gpusim/report.h"
#include "net/client.h"
#include "net/report.h"
#include "net/server.h"
#include "profiler/snapshot.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "serve/report.h"
#include "tensor/arena.h"
#include "tensor/detail/gemm.h"
#include "tensor/graphopt_mode.h"

using namespace aib;

namespace {

int usage();

/** Read all of @p text as one base-10 whole number that fits a long
 *  into @p value; false on anything else. */
bool
parseWhole(const std::string &text, long *value)
{
    char *end = nullptr;
    errno = 0;
    *value = std::strtol(text.c_str(), &end, 10);
    return end != text.c_str() && end == text.c_str() + text.size() &&
           errno != ERANGE;
}

/** Whole-number value of @p flag; throws std::invalid_argument on
 *  anything else (main turns that into exit 2). */
long
argValue(int argc, char **argv, const char *flag, long fallback)
{
    for (int i = 0; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        long value = 0;
        if (!parseWhole(argv[i + 1], &value))
            throw std::invalid_argument(std::string(flag) +
                                        " wants a whole number, got '" +
                                        argv[i + 1] + "'");
        return value;
    }
    return fallback;
}

const char *
argString(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 0; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    }
    return fallback;
}

/** Finite real value > 0 of @p flag, read from the whole token;
 *  throws std::invalid_argument on anything else (exit 2). */
double
argRate(int argc, char **argv, const char *flag, double fallback)
{
    const char *text = argString(argc, argv, flag, nullptr);
    if (!text)
        return fallback;
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value) || !(value > 0.0))
        throw std::invalid_argument(std::string(flag) +
                                    " wants a finite number > 0, got '" +
                                    text + "'");
    return value;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 0; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/** The id argument, which main moves to argv[0], or nullptr. */
const char *
positionalArg(int argc, char **argv)
{
    return argc > 0 && argv[0][0] != '-' ? argv[0] : nullptr;
}

/**
 * Write @p json and a newline to @p path, when set, and say so unless
 * @p quiet. On failure print the reason after @p command and return
 * false; the command then exits 1.
 */
bool
writeReport(const char *command, const char *path,
            const std::string &json, bool quiet)
{
    if (!path)
        return true;
    const std::string text = json + "\n";
    std::string err;
    if (!core::sysio::writeFile(path, text.data(), text.size(), &err)) {
        std::fprintf(stderr, "%s: %s\n", command, err.c_str());
        return false;
    }
    if (!quiet)
        std::printf("wrote %s\n", path);
    return true;
}

/**
 * Honor --graphopt on run commands: turn on kernel fusion and route
 * tensor storage through a modestly sized arena (heap fallback stays
 * available, so capacity only affects placement, never correctness).
 * AIBENCH_GRAPHOPT=... selects the same modes without the flag.
 */
void
applyGraphoptFlag(int argc, char **argv)
{
    if (!hasFlag(argc, argv, "--graphopt"))
        return;
    aib::graphopt::setMode({true, true});
    arena::configure(64u << 20);
    arena::setEnabled(true);
}

const core::ComponentBenchmark *
requireBenchmark(const char *id)
{
    const auto *b = core::findBenchmark(id);
    if (!b) {
        std::fprintf(stderr, "unknown benchmark '%s' (try: aibench "
                             "list)\n",
                     id);
        std::exit(2);
    }
    return b;
}

/** @p found, what looking up @p id gave; exit 2 when it is null. */
const core::ComponentBenchmark *
requireFound(const char *id, const core::ComponentBenchmark *found)
{
    if (!found) {
        std::fprintf(stderr,
                     "unknown benchmark or scenario '%s' (try: aibench "
                     "list)\n",
                     id);
        std::exit(2);
    }
    return found;
}

/** Resolve a component benchmark or a scenario (serve paths). */
const core::ComponentBenchmark *
requireServable(const char *id)
{
    const auto *b = core::findBenchmark(id);
    return requireFound(id, b ? b : dag::findScenario(id));
}

int
cmdList(int argc, char **argv)
{
    if (hasFlag(argc, argv, "--json")) {
        // The registry of servable targets is the component
        // benchmarks PLUS the Suite::Scenario entries (SCN-*) —
        // they are deliberately kept out of core::allBenchmarks(),
        // so fold them in here with the same metadata shape.
        std::vector<const core::BenchmarkInfo *> infos;
        for (const auto *b : core::allBenchmarks())
            infos.push_back(&b->info);
        for (const auto &s : dag::scenarioSuite())
            infos.push_back(&s.info);
        core::json::Writer w;
        w.beginObject().field("schema", "aib.list/1");
        w.key("benchmarks").beginArray();
        for (const core::BenchmarkInfo *info : infos) {
            w.beginObject().field("id", info->id);
            w.field("name", info->name).field("model", info->model);
            w.field("dataset", info->dataset);
            w.field("metric", info->metric).field("target", info->target);
            w.field("direction",
                    info->direction == core::Direction::HigherIsBetter
                        ? "higher"
                        : "lower");
            w.field("suite", core::suiteName(info->suite));
            w.field("subset", info->inSubset).endObject();
        }
        w.endArray().key("scenarios").beginArray();
        for (const auto &spec : dag::scenarioSpecs()) {
            w.beginObject().field("id", spec.id).field("name", spec.name);
            w.key("components").beginArray();
            for (const std::string &component : spec.components)
                w.value(component);
            w.endArray().endObject();
        }
        w.endArray().endObject();
        std::printf("%s\n", w.str().c_str());
        return 0;
    }
    std::printf("%-20s %-32s %-22s %-10s %s\n", "id", "task", "metric",
                "target", "suite");
    for (const auto *b : core::allBenchmarks()) {
        std::printf("%-20s %-32s %-22s %-10.4g %s%s\n",
                    b->info.id.c_str(), b->info.name.c_str(),
                    b->info.metric.c_str(), b->info.target,
                    core::suiteName(b->info.suite),
                    b->info.inSubset ? " [subset]" : "");
    }
    std::printf("\nscenarios (aibench scenario --run <id>, "
                "aibench serve <id>):\n");
    for (const auto &spec : dag::scenarioSpecs()) {
        std::string components;
        for (std::size_t c = 0; c < spec.components.size(); ++c) {
            if (c > 0)
                components += " -> ";
            components += spec.components[c];
        }
        std::printf("%-20s %-32s %s\n", spec.id.c_str(),
                    spec.name.c_str(), components.c_str());
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    const char *id = positionalArg(argc, argv);
    if (!id)
        return usage();
    const auto *b = requireBenchmark(id);
    core::RunOptions options;
    options.maxEpochs =
        static_cast<int>(argValue(argc, argv, "--max-epochs", 40));
    const auto seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));

    std::printf("%s (%s): training to %s %s %.4g, seed %llu\n",
                b->info.id.c_str(), b->info.name.c_str(),
                b->info.metric.c_str(),
                b->info.direction == core::Direction::HigherIsBetter
                    ? ">="
                    : "<=",
                b->info.target,
                static_cast<unsigned long long>(seed));
    core::TrainResult result =
        core::trainToQuality(*b, seed, options);
    for (std::size_t e = 0; e < result.qualityByEpoch.size(); ++e)
        std::printf("  epoch %2zu: %.4f\n", e + 1,
                    result.qualityByEpoch[e]);
    if (result.reached())
        std::printf("converged in %d epochs (%.2fs, %.3fs/epoch)\n",
                    result.epochsToTarget, result.trainSeconds,
                    result.secondsPerEpoch);
    else
        std::printf("target not reached in %d epochs (final %.4f)\n",
                    options.maxEpochs, result.finalQuality);
    return result.reached() ? 0 : 1;
}

/**
 * Fault-tolerant training session: like `run`, plus periodic
 * full-state checkpoints, resume, and scriptable fault injection
 * (docs/CHECKPOINT.md). The quality trajectory is printed with 17
 * significant digits so resumed runs can be diffed bitwise against
 * uninterrupted ones.
 */
int
cmdTrain(int argc, char **argv)
{
    const char *id = positionalArg(argc, argv);
    if (!id)
        return usage();
    const auto *b = requireBenchmark(id);
    applyGraphoptFlag(argc, argv);
    core::RunOptions options;
    options.maxEpochs =
        static_cast<int>(argValue(argc, argv, "--max-epochs", 40));
    options.checkpointDir =
        argString(argc, argv, "--checkpoint-dir", "");
    options.checkpointEveryEpochs = static_cast<int>(
        argValue(argc, argv, "--checkpoint-every", 1));
    options.checkpointRetain = static_cast<int>(
        argValue(argc, argv, "--checkpoint-retain", 3));
    options.resume = hasFlag(argc, argv, "--resume");
    const auto seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));

    try {
        core::fault::armFromEnv();
        for (int i = 0; i + 1 < argc; ++i)
            if (std::strcmp(argv[i], "--fault") == 0)
                core::fault::armSpec(argv[i + 1]);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "train: %s\n", e.what());
        return 2;
    }

    try {
        core::TrainResult result =
            core::trainToQuality(*b, seed, options);
        for (std::size_t e = 0; e < result.qualityByEpoch.size(); ++e)
            std::printf("  epoch %2zu: %.17g\n", e + 1,
                        result.qualityByEpoch[e]);
        if (result.reached())
            std::printf("converged in %d epochs (final %.17g)\n",
                        result.epochsToTarget, result.finalQuality);
        else
            std::printf(
                "target not reached in %d epochs (final %.17g)\n",
                options.maxEpochs, result.finalQuality);
        return 0;
    } catch (const core::fault::FaultInjected &e) {
        std::fprintf(stderr, "train: injected fault fired: %s\n",
                     e.what());
        return 3;
    } catch (const core::ckpt::CheckpointError &e) {
        std::fprintf(stderr, "train: %s\n", e.what());
        return 1;
    }
}

int
cmdCharacterize(int argc, char **argv)
{
    const char *id = positionalArg(argc, argv);
    if (!id)
        return usage();
    const auto *b = requireBenchmark(id);
    analysis::ProfileOptions options;
    options.skipTraining = true;
    analysis::BenchmarkProfile p =
        analysis::profileBenchmark(*b, options);

    std::printf("%s — %s\n", p.id.c_str(), p.name.c_str());
    std::printf("  parameters:     %lld\n",
                static_cast<long long>(p.complexity.parameters));
    std::printf("  forward FLOPs:  %.3f M\n",
                p.complexity.forwardMFlops());
    std::printf("  forward bytes:  %.3f MB\n",
                p.complexity.forwardBytes / 1e6);
    std::printf("  simulated epoch on %s: %.3f ms, %.2f J\n",
                options.device.name.c_str(),
                p.epochSim.totalTimeSec * 1e3,
                gpusim::simulatedEnergyJoules(p.epochSim,
                                              options.device));
    std::printf("  microarch metrics:\n");
    const auto metrics = p.epochSim.aggregate.asArray();
    for (int i = 0; i < 5; ++i)
        std::printf("    %-22s %.3f\n",
                    gpusim::MicroArchMetrics::axisName(i),
                    metrics[static_cast<std::size_t>(i)]);
    std::printf("  runtime breakdown:\n");
    const auto share = p.epochSim.categoryShare();
    for (int c = 0; c < profiler::kNumKernelCategories; ++c) {
        if (share[static_cast<std::size_t>(c)] < 0.005)
            continue;
        std::printf("    %-18s %5.1f%%\n",
                    std::string(
                        profiler::categoryName(
                            static_cast<profiler::KernelCategory>(c)))
                        .c_str(),
                    100.0 * share[static_cast<std::size_t>(c)]);
    }
    if (hasFlag(argc, argv, "--csv")) {
        profiler::TraceSession trace =
            core::traceTrainingEpochs(*b, options.seed, 0, 1);
        std::printf("\n%s", profiler::toCsv(trace).c_str());
    }
    return 0;
}

int
cmdSubset(int, char **)
{
    std::printf("affordable subset (Sec. 5.4):\n");
    for (const auto *b : core::subsetBenchmarks())
        std::printf("  %s — %s\n", b->info.id.c_str(),
                    b->info.name.c_str());
    const double full = core::paperSuiteHours([] {
        std::vector<const core::ComponentBenchmark *> v;
        for (const auto &b : core::aibenchSuite())
            v.push_back(&b);
        return v;
    }());
    const double subset =
        core::paperSuiteHours(core::subsetBenchmarks());
    std::printf("paper-hour savings vs the full suite: %.1f%%\n",
                core::reductionPct(subset, full));
    return 0;
}

int
cmdGemmBench(int argc, char **argv)
{
    const int reps = std::max(
        1, static_cast<int>(argValue(argc, argv, "--reps", 3)));
    const char *out_path = argString(argc, argv, "--out", nullptr);

    struct Point {
        long n;
        double seconds;
        double gflops;
    };
    std::vector<Point> points;
    std::vector<float> a, b, c;
    std::printf("%-6s %12s %12s   (threads=%d, best of %d reps)\n",
                "size", "seconds", "GFLOP/s", core::numThreads(), reps);
    for (long n = 64; n <= 1024; n *= 2) {
        const auto sz = static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(n);
        a.assign(sz, 0.0f);
        b.assign(sz, 0.0f);
        for (std::size_t i = 0; i < sz; ++i) {
            a[i] = static_cast<float>((i * 37 % 101) - 50) / 50.0f;
            b[i] = static_cast<float>((i * 53 % 103) - 51) / 51.0f;
        }
        double best = -1.0;
        for (int r = 0; r < reps; ++r) {
            c.assign(sz, 0.0f);
            const auto t0 = std::chrono::steady_clock::now();
            aib::ops::detail::gemm(a.data(), b.data(), c.data(), n, n,
                                   n, false, false);
            const auto t1 = std::chrono::steady_clock::now();
            const double s =
                std::chrono::duration<double>(t1 - t0).count();
            if (best < 0.0 || s < best)
                best = s;
        }
        const double flops = 2.0 * static_cast<double>(n) * n * n;
        points.push_back({n, best, flops / best * 1e-9});
        std::printf("%-6ld %12.6f %12.2f\n", n, best,
                    points.back().gflops);
    }

    core::json::Writer w;
    w.beginObject().field("benchmark", "gemm");
    w.field("threads", core::numThreads()).field("reps", reps);
    w.key("sizes").beginArray();
    for (const Point &p : points) {
        w.beginObject().field("n", p.n).field("seconds", p.seconds);
        w.field("gflops", p.gflops).endObject();
    }
    w.endArray().endObject();
    return writeReport("gemm-bench", out_path, w.str(), false) ? 0 : 1;
}

/**
 * Write the deterministic kernel-trace snapshots that the golden
 * tests in tests/profiler diff against. Pointing --out-dir at
 * tests/golden/traces regenerates the checked-in goldens after an
 * intentional kernel-mix change.
 */
int
cmdTraceSnapshot(int argc, char **argv)
{
    const char *out_dir = argString(argc, argv, "--out-dir", nullptr);
    if (!out_dir) {
        std::fprintf(stderr,
                     "trace-snapshot: --out-dir DIR is required\n");
        return 2;
    }
    const std::string mode = argString(argc, argv, "--mode", "all");
    if (mode != "forward" && mode != "train" && mode != "graphopt" &&
        mode != "all") {
        std::fprintf(stderr, "trace-snapshot: bad --mode '%s' (want "
                             "forward, train, graphopt or all)\n",
                     mode.c_str());
        return 2;
    }
    const char *only_id = argString(argc, argv, "--id", nullptr);
    const auto seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));

    std::vector<const core::ComponentBenchmark *> benchmarks;
    if (only_id)
        benchmarks.push_back(requireBenchmark(only_id));
    else
        benchmarks = core::allBenchmarks();

    const auto write_one = [&](const char *kind,
                               const core::ComponentBenchmark &b,
                               profiler::TraceSession trace) {
        const std::filesystem::path dir =
            std::filesystem::path(out_dir) / kind;
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            std::fprintf(stderr, "trace-snapshot: cannot create '%s': %s\n",
                         dir.c_str(), ec.message().c_str());
            std::exit(1);
        }
        const std::filesystem::path path =
            dir / (b.info.id + ".trace");
        const std::string text = profiler::formatSnapshot(
            profiler::makeSnapshot(trace));
        std::string err;
        if (!core::sysio::writeFile(path, text.data(), text.size(),
                                    &err)) {
            std::fprintf(stderr, "trace-snapshot: %s\n", err.c_str());
            std::exit(1);
        }
        std::printf("wrote %s\n", path.c_str());
    };

    for (const auto *b : benchmarks) {
        if (mode == "forward" || mode == "all")
            write_one("forward", *b, core::traceForwardPass(*b, seed));
        if (mode == "train" || mode == "all")
            write_one("train", *b,
                      core::traceTrainingEpochs(*b, seed, 0, 1));
        if (mode == "graphopt" || mode == "all") {
            // Forward kernel mix with the graph optimizer's kernel
            // fusion enabled (the arena changes no kernels).
            aib::graphopt::ModeGuard guard({true, false});
            write_one("graphopt", *b,
                      core::traceForwardPass(*b, seed));
        }
    }
    return 0;
}

int
cmdDevices(int, char **)
{
    for (const auto &d : {gpusim::titanXp(), gpusim::titanRtx()}) {
        std::printf("%s\n", d.name.c_str());
        std::printf("  %d CUDA cores @ %.2f GHz, %.0f GB, "
                    "%.0f GB/s, %.1f TFLOPS peak, TDP %.0f W\n",
                    d.cudaCores, d.clockGhz, d.memGB,
                    d.memBandwidthGBs, d.peakFlops() / 1e12,
                    d.tdpWatts);
    }
    return 0;
}

/**
 * The loop lint, analyze and optimize share: run @p pass over every
 * analysis target (--all) or the one the id names, print each
 * report's text (or the whole JSON document with --json), write the
 * document to --out, and exit 1 unless every target is clean.
 */
template <typename Report, typename Pass>
int
runTargets(const char *command, int argc, char **argv, Pass pass,
           std::string (*toText)(const Report &),
           std::string (*toJson)(const std::vector<Report> &))
{
    std::vector<const core::ComponentBenchmark *> targets;
    if (hasFlag(argc, argv, "--all")) {
        targets = analysis::analysisTargets();
    } else if (const char *id = positionalArg(argc, argv)) {
        targets.push_back(
            requireFound(id, analysis::findAnalysisTarget(id)));
    } else {
        std::fprintf(stderr,
                     "%s: pass a benchmark or scenario id, or --all\n",
                     command);
        return 2;
    }

    const bool as_json = hasFlag(argc, argv, "--json");
    std::vector<Report> reports;
    std::size_t clean = 0;
    for (const auto *target : targets) {
        reports.push_back(pass(*target));
        clean += reports.back().clean() ? 1 : 0;
        if (!as_json)
            std::printf("%s", toText(reports.back()).c_str());
    }
    const std::string json = toJson(reports);
    if (as_json)
        std::printf("%s\n", json.c_str());
    if (!writeReport(command, argString(argc, argv, "--out", nullptr),
                     json, as_json))
        return 1;
    if (!as_json)
        std::printf("%zu/%zu targets clean\n", clean, reports.size());
    return clean == reports.size() ? 0 : 1;
}

/** Graph auditor: static shape/FLOP inference + lint rules
 *  (docs/LINT.md). */
int
cmdLint(int argc, char **argv)
{
    const auto seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));
    return runTargets(
        "lint", argc, argv,
        [seed](const core::ComponentBenchmark &b) {
            return analysis::graphlint::auditBenchmark(b, seed);
        },
        analysis::graphlint::auditToText,
        analysis::graphlint::auditsToJson);
}

/** IR dataflow analyzer: buffer liveness, redundant compute,
 *  determinism lint (docs/ANALYSIS.md). */
int
cmdAnalyze(int argc, char **argv)
{
    const auto seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));
    return runTargets(
        "analyze", argc, argv,
        [seed](const core::ComponentBenchmark &b) {
            return analysis::graphlint::analyzeBenchmark(b, seed);
        },
        analysis::graphlint::analysisToText,
        analysis::graphlint::analysesToJson);
}

/** Graph optimizer: kernel fusion + static arena planning, proven
 *  on real runs (docs/GRAPHOPT.md). */
int
cmdOptimize(int argc, char **argv)
{
    analysis::graphopt::OptimizeOptions options;
    options.seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));
    options.reps = std::max(
        1, static_cast<int>(
               argValue(argc, argv, "--reps", options.reps)));
    return runTargets(
        "optimize", argc, argv,
        [&options](const core::ComponentBenchmark &b) {
            return analysis::graphopt::optimizeBenchmark(b, options);
        },
        analysis::graphopt::reportToText,
        analysis::graphopt::reportsToJson);
}

/**
 * Online serving sweep: drive one benchmark (positional id), the
 * affordable subset (--subset) or the whole suite (default) through
 * the aib::serve engine and report tail latency, throughput,
 * batch-size distribution, shedding and energy per query.
 */
int
cmdServe(int argc, char **argv)
{
    applyGraphoptFlag(argc, argv);
    serve::ServingOptions options;
    options.workers =
        static_cast<int>(argValue(argc, argv, "--workers", 3));
    options.policy.maxBatch =
        static_cast<int>(argValue(argc, argv, "--batch", 8));
    options.policy.maxDelayUs =
        argValue(argc, argv, "--delay-us", 2000);
    options.queueCapacity =
        static_cast<int>(argValue(argc, argv, "--queue-cap", 64));
    options.queries =
        static_cast<int>(argValue(argc, argv, "--queries", 120));
    options.concurrency =
        static_cast<int>(argValue(argc, argv, "--concurrency", 0));
    options.trainEpochs =
        static_cast<int>(argValue(argc, argv, "--train-epochs", 0));
    options.seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));

    const bool open = argString(argc, argv, "--qps", nullptr) != nullptr;
    if (open && hasFlag(argc, argv, "--closed")) {
        std::fprintf(stderr,
                     "serve: --qps and --closed are exclusive\n");
        return 2;
    }
    if (open) {
        options.mode = serve::DriveMode::OpenLoop;
        options.qps = argRate(argc, argv, "--qps", 0.0);
    } else {
        options.mode = serve::DriveMode::ClosedLoop;
    }

    std::vector<const core::ComponentBenchmark *> benchmarks;
    if (hasFlag(argc, argv, "--subset")) {
        benchmarks = core::subsetBenchmarks();
    } else if (const char *id = positionalArg(argc, argv)) {
        benchmarks.push_back(requireServable(id));
    } else {
        benchmarks = core::allBenchmarks();
    }

    const bool as_json = hasFlag(argc, argv, "--json");
    const char *out_path = argString(argc, argv, "--out", nullptr);

    std::vector<serve::ServingReport> reports;
    reports.reserve(benchmarks.size());
    if (!as_json)
        std::printf("%-20s %-7s %6s %5s %9s %8s %8s %8s %6s %8s\n",
                    "id", "mode", "done", "rej", "qps", "p50ms",
                    "p95ms", "p99ms", "batch", "mJ/query");
    for (const auto *b : benchmarks) {
        reports.push_back(serve::serveBenchmark(*b, options));
        const auto &r = reports.back();
        if (!as_json)
            std::printf("%-20s %-7s %6d %5d %9.1f %8.3f %8.3f "
                        "%8.3f %6.2f %8.3f\n",
                        r.benchmarkId.c_str(), r.mode.c_str(),
                        r.completed, r.rejected, r.throughputQps,
                        r.latencyMsP(50), r.latencyMsP(95),
                        r.latencyMsP(99), r.meanBatchSize(),
                        r.energyPerQueryMj);
    }

    const std::string json = serve::reportsToJson(reports);
    if (as_json)
        std::printf("%s\n", json.c_str());
    return writeReport("serve", out_path, json, as_json) ? 0 : 1;
}

// ---- network serving (docs/NETSERVE.md) ----

std::atomic<net::NetServer *> g_netserver{nullptr};

void
netserveSignal(int)
{
    // requestStop is a relaxed store plus one pipe write — both
    // async-signal-safe.
    if (net::NetServer *server = g_netserver.load())
        server->requestStop();
}

/** Shared netserve/netbench option parsing. */
bool
parseBatchingFlag(int argc, char **argv, serve::BatchingMode *out)
{
    const std::string text =
        argString(argc, argv, "--batching", "planned");
    if (text == "planned") {
        *out = serve::BatchingMode::Planned;
        return true;
    }
    if (text == "dynamic") {
        *out = serve::BatchingMode::Dynamic;
        return true;
    }
    std::fprintf(stderr,
                 "bad --batching '%s' (want planned or dynamic)\n",
                 text.c_str());
    return false;
}

/**
 * `aibench netserve <id>`: host a benchmark (or SCN-* scenario)
 * behind the aib.net/1 protocol until SIGTERM/SIGINT (graceful
 * drain) — or until the last client disconnects with
 * --exit-after-last-client, which is what the CI smoke uses. Prints
 * a JSON summary of the session on exit; --port-file publishes the
 * bound (possibly ephemeral) port for clients to discover.
 */
int
cmdNetserve(int argc, char **argv)
{
    const char *id = positionalArg(argc, argv);
    if (!id)
        return usage();
    const auto *b = requireServable(id);

    net::NetServerOptions options;
    options.host = argString(argc, argv, "--host", "127.0.0.1");
    options.port =
        static_cast<int>(argValue(argc, argv, "--port", 0));
    options.drainGraceMs = argValue(argc, argv, "--grace-ms", 2000);
    options.exitAfterLastClient =
        hasFlag(argc, argv, "--exit-after-last-client");

    serve::EndpointOptions &ep = options.endpoint;
    ep.workers =
        static_cast<int>(argValue(argc, argv, "--workers", 2));
    ep.policy.maxBatch =
        static_cast<int>(argValue(argc, argv, "--batch", 8));
    ep.policy.maxDelayUs = argValue(argc, argv, "--delay-us", 2000);
    ep.queueCapacity =
        static_cast<int>(argValue(argc, argv, "--queue-cap", 256));
    ep.trainEpochs =
        static_cast<int>(argValue(argc, argv, "--train-epochs", 0));
    ep.seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));
    if (!parseBatchingFlag(argc, argv, &ep.batching))
        return 2;

    const int queries =
        static_cast<int>(argValue(argc, argv, "--queries", 256));
    const double qps = argRate(argc, argv, "--qps", 500.0);
    if (ep.batching == serve::BatchingMode::Planned) {
        // Both sides derive this plan; the Hello fingerprint pins it.
        ep.plan = serve::planBatches(
            serve::poissonTrace(ep.seed, qps, queries), ep.policy);
        options.helloQueries = static_cast<std::uint32_t>(queries);
        options.helloQps = qps;
    }

    const char *batchingName =
        ep.batching == serve::BatchingMode::Planned ? "planned"
                                                    : "dynamic";
    net::NetServer server(*b, std::move(options));
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "netserve: %s\n", e.what());
        return 1;
    }
    g_netserver.store(&server);
    std::signal(SIGTERM, netserveSignal);
    std::signal(SIGINT, netserveSignal);

    std::fprintf(stderr, "netserve: %s on %s:%d (%s)\n",
                 b->info.id.c_str(),
                 argString(argc, argv, "--host", "127.0.0.1"),
                 server.boundPort(), batchingName);
    if (const char *port_file =
            argString(argc, argv, "--port-file", nullptr)) {
        // Write-then-rename so a polling client never reads a
        // half-written port number.
        const std::string tmp = std::string(port_file) + ".tmp";
        const std::string text = std::to_string(server.boundPort());
        std::string err;
        if (!core::sysio::writeFile(tmp, text.data(), text.size(),
                                    &err) ||
            std::rename(tmp.c_str(), port_file) != 0) {
            std::fprintf(stderr, "netserve: cannot write %s\n",
                         port_file);
            server.stop();
            return 1;
        }
    }

    server.waitStopped();
    // Unhooked first: stop() rethrows the error of a failed batch.
    g_netserver.store(nullptr);
    const net::NetServerStats stats = server.stop();

    core::json::Writer w;
    w.beginObject().field("schema", "aib.netserve.server/1");
    w.field("benchmark", b->info.id).field("accepted", stats.accepted);
    w.field("completed", stats.completed).field("shed", stats.shed);
    w.field("batches", stats.batches).field("digest", stats.sessionDigest);
    w.field("latency_q99_us", stats.serverLatency.percentileUs(99.0));
    w.key("connections").beginArray();
    for (const net::ConnectionStats &c : stats.connections) {
        w.beginObject().field("queries", c.queries);
        w.field("replies", c.replies).field("errors", c.errorsSent);
        w.field("bytes_in", c.bytesIn).field("bytes_out", c.bytesOut);
        w.field("bye", c.sawBye).field("fault_killed", c.faultKilled);
        w.endObject();
    }
    w.endArray().endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

/**
 * `aibench netbench <id>`: the multi-process traffic generator.
 * Discovers the server port (--port or --port-file, waiting for the
 * file to appear), drives the load, merges the per-worker
 * histograms, runs the in-process reference (replay digest gate +
 * open-loop latency baseline, unless --no-compare) and emits the
 * aib.netserve/1 report. Exit codes: 0 ok, 1 transport/option
 * errors, 3 digest-gate failure, 4 client-side bottleneck.
 */
int
cmdNetbench(int argc, char **argv)
{
    const char *id = positionalArg(argc, argv);
    if (!id)
        return usage();
    const auto *b = requireServable(id);

    net::NetBenchOptions options;
    options.benchmarkId = b->info.id;
    options.host = argString(argc, argv, "--host", "127.0.0.1");
    options.port =
        static_cast<int>(argValue(argc, argv, "--port", 0));
    options.processes =
        static_cast<int>(argValue(argc, argv, "--processes", 2));
    options.connections =
        static_cast<int>(argValue(argc, argv, "--connections", 8));
    options.queries =
        static_cast<int>(argValue(argc, argv, "--queries", 256));
    options.inflight =
        static_cast<int>(argValue(argc, argv, "--inflight", 4));
    options.seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));
    options.policy.maxBatch =
        static_cast<int>(argValue(argc, argv, "--batch", 8));
    options.policy.maxDelayUs =
        argValue(argc, argv, "--delay-us", 2000);
    options.qps = argRate(argc, argv, "--qps", 500.0);
    options.mode = hasFlag(argc, argv, "--closed")
                       ? net::LoadMode::Closed
                       : net::LoadMode::Open;
    if (!parseBatchingFlag(argc, argv, &options.batching))
        return 2;
    if (options.mode == net::LoadMode::Closed)
        options.batching = serve::BatchingMode::Dynamic;

    if (const char *port_file =
            argString(argc, argv, "--port-file", nullptr)) {
        // The server publishes its ephemeral port here; give it a
        // few seconds to come up.
        std::string text;
        for (int spin = 0; spin < 100; ++spin) {
            if (core::sysio::readFile(port_file, &text) &&
                !text.empty())
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
        if (text.empty()) {
            std::fprintf(stderr, "netbench: no port file at %s\n",
                         port_file);
            return 1;
        }
        long port = 0;
        if (!parseWhole(text, &port) || port < 1 || port > 65535) {
            std::fprintf(stderr,
                         "netbench: port file %s holds '%s', not a port "
                         "1-65535\n",
                         port_file, text.c_str());
            return 1;
        }
        options.port = static_cast<int>(port);
    }

    net::NetBenchResult result;
    try {
        result = net::runNetBench(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "netbench: %s\n", e.what());
        return 1;
    }

    const bool compare = !hasFlag(argc, argv, "--no-compare");
    const net::NetserveReport report =
        net::buildNetserveReport(*b, options, result, compare);
    const std::string json = net::netserveReportToJson(report);
    std::printf("%s\n", json.c_str());
    if (!writeReport("netbench", argString(argc, argv, "--out", nullptr),
                     json, /*quiet=*/true))
        return 1;
    if (compare &&
        options.batching == serve::BatchingMode::Planned &&
        !report.digestMatch) {
        std::fprintf(stderr, "netbench: digest gate FAILED "
                             "(network %.17g vs replay %.17g)\n",
                     result.digest, report.replayDigest);
        return 3;
    }
    if (result.clientBottleneck) {
        std::fprintf(stderr,
                     "netbench: client-side bottleneck (headroom "
                     "%.1f, late fraction %.3f) — results measure "
                     "the generator, not the server\n",
                     result.headroom, result.lateFraction);
        return 4;
    }
    return 0;
}

/**
 * `aibench scenario`: the end-to-end application pipelines
 * (docs/SCENARIOS.md). --list prints the catalog; --run executes one
 * scenario over a fixed request stream and reports per-stage and
 * end-to-end latency plus the FLOP split (aib.scenario/1 JSON with
 * --json/--out).
 */
int
cmdScenario(int argc, char **argv)
{
    applyGraphoptFlag(argc, argv);
    const char *run_id = argString(argc, argv, "--run", nullptr);
    if (hasFlag(argc, argv, "--list") || !run_id) {
        std::printf("%-20s %-24s %-40s %s\n", "id", "name", "pipeline",
                    "components");
        for (const auto &spec : dag::scenarioSpecs()) {
            std::string components;
            for (std::size_t c = 0; c < spec.components.size(); ++c) {
                if (c > 0)
                    components += ", ";
                components += spec.components[c];
            }
            std::printf("%-20s %-24s %-40s %s\n", spec.id.c_str(),
                        spec.name.c_str(), spec.description.c_str(),
                        components.c_str());
        }
        return 0;
    }

    const dag::ScenarioSpec *spec = dag::findScenarioSpec(run_id);
    if (!spec) {
        std::fprintf(stderr,
                     "unknown scenario '%s' (try: aibench scenario "
                     "--list)\n",
                     run_id);
        return 2;
    }
    dag::ScenarioRunOptions options;
    options.queries =
        static_cast<int>(argValue(argc, argv, "--queries", 64));
    options.batch = static_cast<int>(argValue(argc, argv, "--batch", 8));
    options.workers =
        static_cast<int>(argValue(argc, argv, "--workers", 2));
    options.seed = static_cast<std::uint64_t>(
        argValue(argc, argv, "--seed", 42));

    const dag::ScenarioRunReport report = dag::runScenario(*spec, options);
    const bool as_json = hasFlag(argc, argv, "--json");
    const char *out_path = argString(argc, argv, "--out", nullptr);
    if (!as_json) {
        std::printf("%s (%s): %d queries, batch %d, %d workers\n",
                    report.scenarioId.c_str(), report.name.c_str(),
                    report.queries, report.batch, report.workers);
        std::printf("digest %.17g, %.1f q/s\n", report.digest,
                    report.throughputQps);
        std::printf("%-4s %-12s %-12s %8s %8s %8s %8s %10s\n", "node",
                    "stage", "task", "p50ms", "p95ms", "p99ms",
                    "meanms", "gflops");
        for (const auto &stage : report.stages)
            std::printf("%-4d %-12s %-12s %8.3f %8.3f %8.3f %8.3f "
                        "%10.4f\n",
                        stage.node, stage.stage.c_str(),
                        stage.benchmarkId.empty()
                            ? "-"
                            : stage.benchmarkId.c_str(),
                        stage.latency.percentileUs(50) / 1000.0,
                        stage.latency.percentileUs(95) / 1000.0,
                        stage.latency.percentileUs(99) / 1000.0,
                        stage.latency.meanUs() / 1000.0,
                        stage.flops / 1e9);
        std::printf("%-4s %-12s %-12s %8.3f %8.3f %8.3f %8.3f\n", "-",
                    "end-to-end", "-",
                    report.endToEnd.percentileUs(50) / 1000.0,
                    report.endToEnd.percentileUs(95) / 1000.0,
                    report.endToEnd.percentileUs(99) / 1000.0,
                    report.endToEnd.meanUs() / 1000.0);
    }
    const std::string json = dag::scenarioReportToJson(report);
    if (as_json)
        std::printf("%s\n", json.c_str());
    return writeReport("scenario", out_path, json, as_json) ? 0 : 1;
}

/** One dispatch-table entry; usage() is generated from these. */
struct Command {
    const char *name;
    /**
     * Argument synopsis shown in usage, e.g. "<id> [--seed N]", and
     * the one list of the command's flags (see checkArgs).
     */
    const char *args;
    /** One-line description shown in usage. */
    const char *help;
    int (*handler)(int argc, char **argv);
};

constexpr Command kCommands[] = {
    {"list", "[--json]", "all registered benchmarks", cmdList},
    {"serve",
     "[<id> | --subset] [--qps Q | --closed] [--batch N] "
     "[--delay-us D] [--workers N] [--queries N] [--queue-cap N] "
     "[--concurrency N] [--train-epochs N] [--seed N] [--graphopt] "
     "[--json] [--out FILE]",
     "online serving: dynamic batching, tail latency, throughput",
     cmdServe},
    {"netserve",
     "<id> [--host H] [--port P] [--port-file FILE] "
     "[--batching planned|dynamic] [--qps Q] [--queries N] "
     "[--batch N] [--delay-us D] [--workers N] [--queue-cap N] "
     "[--train-epochs N] [--seed N] [--grace-ms D] "
     "[--exit-after-last-client]",
     "host a benchmark behind the aib.net/1 binary protocol",
     cmdNetserve},
    {"netbench",
     "<id> [--host H] [--port P | --port-file FILE] [--processes N] "
     "[--connections N] [--queries N] [--qps Q | --closed] "
     "[--inflight N] [--batching planned|dynamic] [--batch N] "
     "[--delay-us D] [--seed N] [--no-compare] "
     "[--out FILE]",
     "multi-process traffic generator + digest gate vs in-process",
     cmdNetbench},
    {"scenario",
     "[--list | --run <id>] [--queries N] [--batch N] [--workers N] "
     "[--seed N] [--graphopt] [--json] [--out FILE]",
     "end-to-end application pipelines (per-stage latency/FLOPs)",
     cmdScenario},
    {"run", "<id> [--seed N] [--max-epochs N]",
     "entire training session to the target quality", cmdRun},
    {"train",
     "<id> [--seed N] [--max-epochs N] [--checkpoint-dir DIR] "
     "[--checkpoint-every N] [--checkpoint-retain N] [--resume] "
     "[--fault point@N[:param]] [--graphopt]",
     "fault-tolerant session: checkpoints, resume, fault injection",
     cmdTrain},
    {"characterize", "<id> [--csv]",
     "parameters, FLOPs, microarch metrics, runtime breakdown",
     cmdCharacterize},
    {"lint", "[--all | <id> | SCN-*] [--seed N] [--json] [--out FILE]",
     "graph auditor: static FLOP/shape cross-check + lint rules",
     cmdLint},
    {"analyze",
     "[--all | <id> | SCN-*] [--seed N] [--json] [--out FILE]",
     "IR dataflow: buffer liveness, redundant compute, determinism",
     cmdAnalyze},
    {"optimize",
     "[--all | <id> | SCN-*] [--seed N] [--reps N] [--json] "
     "[--out FILE]",
     "graph optimizer: kernel fusion + arena plan, proven on runs",
     cmdOptimize},
    {"subset", "", "the affordable subset and its cost savings",
     cmdSubset},
    {"devices", "", "simulated device catalogue", cmdDevices},
    {"gemm-bench", "[--reps N] [--out FILE]",
     "GEMM GFLOP/s sweep (sizes 64..1024); --out writes JSON",
     cmdGemmBench},
    {"trace-snapshot",
     "[--mode forward|train|graphopt|all] [--id ID] [--seed N] "
     "--out-dir DIR",
     "write deterministic kernel-trace snapshots (golden files)",
     cmdTraceSnapshot},
};

/**
 * Check @p c's arguments against its synopsis before dispatch and
 * move the id (the first token that is neither a flag nor a flag's
 * value) to argv[0]. A synopsis flag followed by a placeholder
 * ("--seed N", "--batching planned|dynamic") takes the next token;
 * one that closes its bracket or precedes "|" ("--closed]",
 * "--all |") takes none. Returns false, naming the offending token,
 * for a flag the synopsis does not name, a missing value or a second
 * id (every command acts on one target).
 */
bool
checkArgs(const Command &c, int argc, char **argv)
{
    struct Flag {
        std::string name;
        bool value;
    };
    std::vector<Flag> flags;
    std::istringstream synopsis(c.args);
    const std::vector<std::string> words{
        std::istream_iterator<std::string>(synopsis), {}};
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::string word = words[w];
        word.erase(0, word.find_first_not_of('['));
        if (word.rfind("--", 0) != 0)
            continue;
        const std::size_t end = word.find(']');
        const bool value = end == std::string::npos &&
                           w + 1 < words.size() &&
                           words[w + 1] != "|" && words[w + 1][0] != '[';
        flags.push_back({word.substr(0, end), value});
    }

    int id = -1;
    for (int i = 0; i < argc; ++i) {
        const bool positional = argv[i][0] != '-';
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &f) { return f.name == argv[i]; });
        const char *problem = nullptr;
        if (positional && id >= 0)
            problem = "a second id";
        else if (positional)
            id = i;
        else if (flag == flags.end())
            problem = "unknown flag";
        else if (flag->value && i + 1 == argc)
            problem = "no value after";
        if (problem) {
            std::fprintf(stderr, "aibench %s: %s '%s'\n", c.name,
                         problem, argv[i]);
            std::fprintf(stderr, "usage: aibench %s %s\n", c.name,
                         c.args);
            return false;
        }
        if (!positional && flag->value)
            ++i;
    }
    if (id > 0)
        std::rotate(argv, argv + id, argv + id + 1);
    return true;
}

int
usage()
{
    std::fprintf(stderr, "usage: aibench <command> [args]\n");
    for (const Command &c : kCommands) {
        if (c.args[0] != '\0')
            std::fprintf(stderr, "  %s %s\n", c.name, c.args);
        else
            std::fprintf(stderr, "  %s\n", c.name);
        std::fprintf(stderr, "        %s\n", c.help);
    }
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    for (const Command &c : kCommands) {
        if (std::strcmp(argv[1], c.name) != 0)
            continue;
        if (!checkArgs(c, argc - 2, argv + 2))
            return 2;
        try {
            return c.handler(argc - 2, argv + 2);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "aibench %s: %s\n", c.name, e.what());
            return 2;
        }
    }
    return usage();
}
