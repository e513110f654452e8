/**
 * @file
 * Optimizer driver for `aibench optimize`: per target, measure a
 * baseline forward pass (fusion off), plan the fusion rewrite and the
 * arena packing, then prove both against real optimized runs —
 * predicted capture vs actual fused capture at zero relative error,
 * packed plan vs enacted allocator high-water mark at exact equality,
 * and a first-fit capacity simulation vs a real arena-enabled run
 * with zero heap fallbacks. Renders aib.graphopt/1.
 *
 * Run discipline mirrors analyze.cc: every region runs on a task
 * constructed after reseeding the global RNG, so all sides execute
 * bitwise-identical work, and measured regions stay uncaptured (an
 * active GraphCapture pins every impl it sees, which would distort
 * allocation lifetimes).
 */

#include "analysis/graphopt/graphopt.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/graphlint/graphlint.h"
#include "analysis/graphlint/jsonutil.h"
#include "profiler/trace.h"
#include "tensor/arena.h"
#include "tensor/graphopt_mode.h"
#include "tensor/random.h"

namespace aib::analysis::graphopt {

namespace {

using analysis::graphlint::detail::jsonEscape;

double
relativeError(double predicted, double actual)
{
    if (predicted == actual)
        return 0.0;
    const double denom = std::max(std::abs(actual), 1.0);
    return std::abs(predicted - actual) / denom;
}

/** Timed forward throughput: GFLOP/s over @p reps traced passes. */
double
timedGflops(core::TrainableTask &task, int reps)
{
    profiler::TraceSession session;
    const auto t0 = std::chrono::steady_clock::now();
    {
        profiler::ScopedTrace trace(session);
        for (int i = 0; i < reps; ++i)
            task.forwardOnce();
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    if (wall.count() <= 0.0)
        return 0.0;
    return session.totalFlops() / wall.count() / 1e9;
}

struct TrafficCounters {
    std::int64_t allocs = 0;
    std::int64_t allocBytes = 0;
};

TrafficCounters
countTraffic(const std::vector<alloctrack::Event> &events)
{
    TrafficCounters out;
    for (const alloctrack::Event &e : events) {
        if (e.alloc) {
            ++out.allocs;
            out.allocBytes += e.bytes;
        }
    }
    return out;
}

/** Op-by-op comparison of two forward captures (name and shape). */
bool
sequencesMatch(const graph::CapturedGraph &predicted,
               const graph::CapturedGraph &actual)
{
    if (predicted.ops.size() != actual.ops.size())
        return false;
    for (std::size_t i = 0; i < predicted.ops.size(); ++i) {
        const graph::CapturedOp &a = predicted.ops[i];
        const graph::CapturedOp &b = actual.ops[i];
        if (a.name != b.name || a.outputShape != b.outputShape)
            return false;
    }
    return true;
}

} // namespace

TargetReport
optimizeBenchmark(const core::ComponentBenchmark &benchmark,
                  const OptimizeOptions &opts)
{
    TargetReport report;
    report.id = benchmark.info.id;

    graph::CapturedGraph baseline_graph;
    double baseline_digest = 0.0;

    // ---- Baseline side: fusion off, arena off.
    {
        aib::graphopt::ModeGuard guard({false, false});

        // Measured region (uncaptured): allocator traffic, high-water
        // mark, serve digest, timed throughput.
        seedGlobalRng(opts.seed);
        auto task = benchmark.makeTask(opts.seed);
        alloctrack::resetPeak();
        alloctrack::beginEventLog();
        task->forwardOnce();
        const TrafficCounters traffic =
            countTraffic(alloctrack::endEventLog());
        report.baselineAllocs = traffic.allocs;
        report.baselineAllocBytes = traffic.allocBytes;
        report.baselinePeakBytes = static_cast<std::int64_t>(
            alloctrack::snapshot().peakBytes);
        baseline_digest = task->serveBatch({0, 1});
        report.baselineGflops = timedGflops(*task, opts.reps);

        // Captured twin (same seed, same construction order).
        seedGlobalRng(opts.seed);
        auto twin = benchmark.makeTask(opts.seed);
        graph::GraphCapture capture;
        twin->forwardOnce();
        baseline_graph = capture.graph();
    }

    // ---- Fusion plan on the baseline capture.
    const FusionPlan plan = planFusion(baseline_graph);
    report.addActFused = plan.addActFused;
    report.convActFused = plan.convActFused;
    report.normScaleFused = plan.normScaleFused;
    report.opsBefore = plan.opsBefore;
    report.opsAfter = plan.opsAfter;
    report.eliminatedBytes = plan.eliminatedBytes;
    const graph::CapturedGraph predicted =
        rewriteGraph(baseline_graph, plan);
    const graphlint::StaticTotals predicted_totals =
        graphlint::inferTotals(predicted);

    // ---- Optimized side: fusion on; arena enabled where measured.
    {
        aib::graphopt::ModeGuard guard({true, true});

        // Captured fused twin: cross-check the prediction, then run
        // liveness -> packed arena plan -> enactment on it.
        {
            seedGlobalRng(opts.seed);
            auto twin = benchmark.makeTask(opts.seed);
            const std::vector<graph::TensorId> resident =
                graphlint::residentIds(twin->model());
            graph::CapturedGraph fused_graph;
            {
                graph::GraphCapture capture;
                twin->forwardOnce();
                fused_graph = capture.graph();
            }
            report.sequenceMatch =
                sequencesMatch(predicted, fused_graph);
            const graphlint::StaticTotals fused_totals =
                graphlint::inferTotals(fused_graph);
            report.staticRelErr = std::max(
                {relativeError(predicted_totals.flops,
                               fused_totals.flops),
                 relativeError(predicted_totals.bytesRead,
                               fused_totals.bytesRead),
                 relativeError(predicted_totals.bytesWritten,
                               fused_totals.bytesWritten)});
            report.unmodeledOps =
                static_cast<int>(fused_totals.unmodeled.size());
            report.shapeMismatches =
                static_cast<int>(fused_totals.shapeMismatches.size());

            const graphlint::LivenessReport liveness =
                graphlint::analyzeLiveness(fused_graph, resident);
            const MemoryPlan memplan = planArena(liveness);
            report.planArenaBytes = memplan.arenaBytes;
            report.planError = validatePlan(memplan);
            report.enactedPeakBytes = enactPlan(memplan);
            report.planExact =
                report.planError.empty() &&
                report.enactedPeakBytes == report.planArenaBytes;
        }

        // Measured region (uncaptured): optimized allocator traffic
        // and the event log the capacity simulation replays.
        std::vector<alloctrack::Event> events;
        {
            seedGlobalRng(opts.seed);
            auto task = benchmark.makeTask(opts.seed);
            alloctrack::resetPeak();
            alloctrack::beginEventLog();
            task->forwardOnce();
            events = alloctrack::endEventLog();
            report.optimizedPeakBytes = static_cast<std::int64_t>(
                alloctrack::snapshot().peakBytes);
        }
        const TrafficCounters traffic = countTraffic(events);
        report.optimizedAllocs = traffic.allocs;
        report.optimizedAllocBytes = traffic.allocBytes;
        report.runtimeArenaBytes = simulateFirstFit(events);

        // Runtime gate: a real arena of the simulated capacity must
        // absorb the same forward pass with zero heap fallbacks and
        // hit exactly the simulated high-water mark. The digest and
        // throughput then come from the same (fused) task with the
        // arena back off.
        {
            seedGlobalRng(opts.seed);
            auto task = benchmark.makeTask(opts.seed);
            arena::configure(static_cast<std::size_t>(
                report.runtimeArenaBytes));
            arena::resetStats();
            arena::setEnabled(true);
            task->forwardOnce();
            arena::setEnabled(false);
            const arena::Stats stats = arena::stats();
            report.runtimePeakBytes = static_cast<std::int64_t>(
                stats.highWaterBytes);
            report.heapFallbackAllocs = static_cast<std::int64_t>(
                stats.heapFallbackAllocs);
            report.runtimeFits =
                stats.heapFallbackAllocs == 0 &&
                report.runtimePeakBytes == report.runtimeArenaBytes;
            const double optimized_digest = task->serveBatch({0, 1});
            report.digestMatch =
                std::memcmp(&optimized_digest, &baseline_digest,
                            sizeof(double)) == 0;
            report.optimizedGflops = timedGflops(*task, opts.reps);
            task.reset(); // release arena-placed storage
            arena::configure(0);
        }
    }
    return report;
}

bool
TargetReport::clean() const
{
    return sequenceMatch && staticRelErr == 0.0 && unmodeledOps == 0 &&
           shapeMismatches == 0 && planError.empty() && planExact &&
           runtimeFits && digestMatch &&
           optimizedAllocs <= baselineAllocs;
}

std::string
reportsToJson(const std::vector<TargetReport> &reports)
{
    std::ostringstream os;
    os << "{\"schema\":\"aib.graphopt/1\",\"targets\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const TargetReport &r = reports[i];
        if (i)
            os << ",";
        os << "{\"id\":\"" << jsonEscape(r.id) << "\","
           << "\"fusion\":{"
           << "\"add_act\":" << r.addActFused
           << ",\"conv_act\":" << r.convActFused
           << ",\"norm_scale\":" << r.normScaleFused
           << ",\"ops_before\":" << r.opsBefore
           << ",\"ops_after\":" << r.opsAfter
           << ",\"eliminated_bytes\":" << r.eliminatedBytes
           << ",\"sequence_match\":"
           << (r.sequenceMatch ? "true" : "false")
           << ",\"static_rel_err\":" << r.staticRelErr
           << ",\"unmodeled_ops\":" << r.unmodeledOps
           << ",\"shape_mismatches\":" << r.shapeMismatches << "},"
           << "\"arena\":{"
           << "\"plan_bytes\":" << r.planArenaBytes
           << ",\"enacted_peak_bytes\":" << r.enactedPeakBytes
           << ",\"plan_exact\":" << (r.planExact ? "true" : "false")
           << ",\"plan_error\":\"" << jsonEscape(r.planError) << "\""
           << ",\"runtime_bytes\":" << r.runtimeArenaBytes
           << ",\"runtime_peak_bytes\":" << r.runtimePeakBytes
           << ",\"heap_fallback_allocs\":" << r.heapFallbackAllocs
           << ",\"runtime_fits\":"
           << (r.runtimeFits ? "true" : "false") << "},"
           << "\"traffic\":{"
           << "\"baseline_allocs\":" << r.baselineAllocs
           << ",\"baseline_alloc_bytes\":" << r.baselineAllocBytes
           << ",\"optimized_allocs\":" << r.optimizedAllocs
           << ",\"optimized_alloc_bytes\":" << r.optimizedAllocBytes
           << ",\"baseline_peak_bytes\":" << r.baselinePeakBytes
           << ",\"optimized_peak_bytes\":" << r.optimizedPeakBytes
           << "},"
           << "\"perf\":{"
           << "\"baseline_gflops\":" << r.baselineGflops
           << ",\"optimized_gflops\":" << r.optimizedGflops << "},"
           << "\"digest_match\":" << (r.digestMatch ? "true" : "false")
           << ",\"clean\":" << (r.clean() ? "true" : "false") << "}";
    }
    os << "]}";
    return os.str();
}

std::string
reportToText(const TargetReport &report)
{
    std::ostringstream os;
    os << report.id << ": "
       << (report.clean() ? "clean" : "ISSUES FOUND") << "\n"
       << "  fusion  " << report.addActFused << " add+act, "
       << report.convActFused << " conv+act, "
       << report.normScaleFused << " norm-scale (ops "
       << report.opsBefore << " -> " << report.opsAfter
       << ", eliminated " << report.eliminatedBytes << " bytes"
       << ", sequence " << (report.sequenceMatch ? "match" : "MISMATCH")
       << ", static rel err " << report.staticRelErr << ")\n"
       << "  arena   plan " << report.planArenaBytes << " / enacted "
       << report.enactedPeakBytes << " ("
       << (report.planExact ? "exact" : "INEXACT") << "), runtime "
       << report.runtimeArenaBytes << " / peak "
       << report.runtimePeakBytes << " (fallbacks "
       << report.heapFallbackAllocs << ", "
       << (report.runtimeFits ? "fits" : "DOES NOT FIT") << ")\n"
       << "  traffic " << report.baselineAllocs << " allocs / "
       << report.baselineAllocBytes << " bytes -> "
       << report.optimizedAllocs << " allocs / "
       << report.optimizedAllocBytes << " bytes (peak "
       << report.baselinePeakBytes << " -> "
       << report.optimizedPeakBytes << ")\n"
       << "  perf    " << report.baselineGflops << " -> "
       << report.optimizedGflops << " GFLOP/s, digest "
       << (report.digestMatch ? "match" : "MISMATCH") << "\n";
    if (!report.planError.empty())
        os << "  [plan-error] " << report.planError << "\n";
    return os.str();
}

} // namespace aib::analysis::graphopt
