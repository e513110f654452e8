/**
 * @file
 * Benchmark analysis driver for `aibench analyze`: measures an
 * uncaptured forward region's allocator high-water mark, captures an
 * identical twin region for the liveness and redundancy passes, then
 * captures a serveBatch region for the determinism lint, and renders
 * everything as the aib.analysis/1 document.
 *
 * Run discipline mirrors auditBenchmark: every region runs on a task
 * constructed after reseeding the global RNG, so the measured and the
 * captured runs execute bitwise-identical allocation streams. The
 * measured region must stay uncaptured — an active GraphCapture pins
 * every impl it sees, which would turn the high-water mark into the
 * cumulative total.
 */

#include "analysis/graphlint/analyze.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "analysis/graphlint/jsonutil.h"
#include "tensor/alloctrack.h"
#include "tensor/random.h"

namespace aib::analysis::graphlint {

namespace {

using detail::appendDiagnosticsJson;
using detail::jsonEscape;

/**
 * Enact the liveness intervals with real tensors: allocate every
 * buffer at its first definition, drop it after its last use, in op
 * order — the allocation schedule a planner-grade executor would
 * run. Returns the allocator's absolute high-water mark across the
 * replay; the caller compares it against the interval sweep's
 * arithmetic, computed by entirely separate machinery.
 */
std::int64_t
replayIntervals(const LivenessReport &liveness)
{
    int n = 0;
    for (const BufferInterval &b : liveness.intervals) {
        n = std::max(n, std::max(b.def, b.lastUse) + 1);
    }
    std::vector<std::vector<const BufferInterval *>> start_at(
        static_cast<std::size_t>(n) + 1);
    std::vector<std::vector<const BufferInterval *>> stop_at(
        static_cast<std::size_t>(n) + 1);
    for (const BufferInterval &b : liveness.intervals) {
        if (b.resident || b.bytes <= 0)
            continue;
        const int start = std::max(b.def, 0);
        const int stop = std::max(b.lastUse, start);
        start_at[static_cast<std::size_t>(start)].push_back(&b);
        stop_at[static_cast<std::size_t>(stop)].push_back(&b);
    }
    alloctrack::resetPeak();
    std::unordered_map<graph::TensorId, Tensor> live;
    for (int k = 0; k < n; ++k) {
        // Allocate before freeing: an op's inputs and output coexist
        // at its index, exactly as the sweep counts them.
        for (const BufferInterval *b : start_at[static_cast<std::size_t>(k)])
            live.emplace(b->id,
                         Tensor::zeros({b->bytes /
                                        static_cast<std::int64_t>(
                                            sizeof(float))}));
        for (const BufferInterval *b : stop_at[static_cast<std::size_t>(k)])
            live.erase(b->id);
    }
    live.clear();
    return static_cast<std::int64_t>(
        alloctrack::snapshot().peakBytes);
}

} // namespace

BenchmarkAnalysis
analyzeBenchmark(const core::ComponentBenchmark &benchmark,
                 std::uint64_t seed)
{
    BenchmarkAnalysis analysis;
    analysis.id = benchmark.info.id;

    // Real region (uncaptured; a capture would pin every impl and
    // turn the high-water mark into the cumulative total).
    {
        seedGlobalRng(seed);
        auto task = benchmark.makeTask(seed);
        analysis.measuredBaselineBytes = static_cast<std::int64_t>(
            alloctrack::snapshot().liveBytes);
        alloctrack::resetPeak();
        task->forwardOnce();
        analysis.processPeakBytes = static_cast<std::int64_t>(
            alloctrack::snapshot().peakBytes);
    }

    // Captured twin region (same seed, same construction order).
    seedGlobalRng(seed);
    auto task = benchmark.makeTask(seed);
    const std::vector<graph::TensorId> resident =
        residentIds(task->model());
    {
        graph::GraphCapture capture;
        task->forwardOnce();
        analysis.forwardOps =
            static_cast<int>(capture.graph().ops.size());
        analysis.liveness =
            analyzeLiveness(capture.graph(), resident);
        analysis.redundancy = findRedundantCompute(capture.graph());
    }

    // Serve/digest region on the same (untrained) weights.
    {
        const std::string rng_before = globalRng().state();
        graph::GraphCapture capture;
        task->serveBatch({0, 1});
        analysis.serveOps =
            static_cast<int>(capture.graph().ops.size());
        DeterminismInput input;
        input.graph = &capture.graph();
        input.rngAdvanced = globalRng().state() != rng_before;
        analysis.rngAdvancedInServe = input.rngAdvanced;
        analysis.determinism = checkDeterminism(input);
    }

    // Gated cross-check: enact the intervals through the production
    // allocator and compare its high-water counter against the
    // sweep's arithmetic. Runs after every capture is destroyed so
    // nothing but the replay itself churns the counters.
    {
        const std::int64_t before = static_cast<std::int64_t>(
            alloctrack::snapshot().liveBytes);
        analysis.measuredPeakBytes =
            replayIntervals(analysis.liveness);
        analysis.staticPeakBytes =
            before + analysis.liveness.peakLiveBytes;
    }
    return analysis;
}

double
BenchmarkAnalysis::peakRelativeError() const
{
    const double denom =
        std::max(static_cast<double>(measuredPeakBytes), 1.0);
    return std::abs(static_cast<double>(staticPeakBytes) -
                    static_cast<double>(measuredPeakBytes)) /
           denom;
}

std::vector<Diagnostic>
BenchmarkAnalysis::allDiagnostics() const
{
    std::vector<Diagnostic> out;
    out.insert(out.end(), liveness.diagnostics.begin(),
               liveness.diagnostics.end());
    out.insert(out.end(), redundancy.diagnostics.begin(),
               redundancy.diagnostics.end());
    out.insert(out.end(), determinism.diagnostics.begin(),
               determinism.diagnostics.end());
    return out;
}

bool
BenchmarkAnalysis::clean(double tolerance) const
{
    if (peakRelativeError() > tolerance)
        return false;
    for (const Diagnostic &d : allDiagnostics()) {
        if (d.severity != Severity::Info)
            return false;
    }
    return true;
}

std::string
analysesToJson(const std::vector<BenchmarkAnalysis> &analyses)
{
    std::ostringstream os;
    os << "{\"schema\":\"aib.analysis/1\",\"benchmarks\":[";
    for (std::size_t i = 0; i < analyses.size(); ++i) {
        const BenchmarkAnalysis &a = analyses[i];
        if (i)
            os << ",";
        os << "{\"id\":\"" << jsonEscape(a.id) << "\","
           << "\"memory\":{"
           << "\"measured_baseline_bytes\":" << a.measuredBaselineBytes
           << ",\"process_peak_bytes\":" << a.processPeakBytes
           << ",\"measured_peak_bytes\":" << a.measuredPeakBytes
           << ",\"static_peak_bytes\":" << a.staticPeakBytes
           << ",\"relative_error\":" << a.peakRelativeError()
           << ",\"activation_peak_bytes\":" << a.liveness.peakLiveBytes
           << ",\"activation_scope_bytes\":"
           << a.liveness.peakScopeBytes
           << ",\"activation_total_bytes\":"
           << a.liveness.totalAllocBytes
           << ",\"arena_bytes\":" << a.liveness.arenaBytes
           << ",\"resident_bytes\":" << a.liveness.residentBytes
           << "},"
           << "\"liveness\":{\"buffers\":" << a.liveness.intervals.size()
           << ",\"reuse\":[";
        const std::size_t reuse_n =
            std::min<std::size_t>(a.liveness.reuse.size(), 8);
        for (std::size_t r = 0; r < reuse_n; ++r) {
            const ReuseCandidate &c = a.liveness.reuse[r];
            if (r)
                os << ",";
            os << "{\"from\":" << c.fromOp << ",\"into\":" << c.intoOp
               << ",\"bytes\":" << c.bytes << "}";
        }
        os << "]},"
           << "\"redundancy\":{\"groups\":" << a.redundancy.groups.size()
           << ",\"wasted_flops\":" << a.redundancy.wastedFlops << "},"
           << "\"determinism\":{\"digest_path_ops\":"
           << a.determinism.digestPathOps
           << ",\"ordered_reductions\":"
           << a.determinism.orderedReductions
           << ",\"rng_advanced\":"
           << (a.rngAdvancedInServe ? "true" : "false") << "},"
           << "\"ops\":{\"forward\":" << a.forwardOps
           << ",\"serve\":" << a.serveOps << "},"
           << "\"diagnostics\":";
        appendDiagnosticsJson(os, a.allDiagnostics());
        os << ",\"clean\":" << (a.clean() ? "true" : "false") << "}";
    }
    os << "]}";
    return os.str();
}

std::string
analysisToText(const BenchmarkAnalysis &analysis)
{
    std::ostringstream os;
    os << analysis.id << ": "
       << (analysis.clean() ? "clean" : "ISSUES FOUND") << "\n"
       << "  memory  static peak " << analysis.staticPeakBytes
       << " / measured peak " << analysis.measuredPeakBytes
       << " (rel err " << analysis.peakRelativeError() << ", baseline "
       << analysis.measuredBaselineBytes << ", process peak "
       << analysis.processPeakBytes << ")\n"
       << "  buffers " << analysis.liveness.intervals.size()
       << " (activation peak " << analysis.liveness.peakLiveBytes
       << ", arena " << analysis.liveness.arenaBytes << ", total "
       << analysis.liveness.totalAllocBytes << ", reuse pairings "
       << analysis.liveness.reuse.size() << ")\n"
       << "  compute redundant groups "
       << analysis.redundancy.groups.size() << " (wasted flops "
       << analysis.redundancy.wastedFlops << ")\n"
       << "  digest  path ops " << analysis.determinism.digestPathOps
       << " (ordered reductions "
       << analysis.determinism.orderedReductions << ", rng advanced "
       << (analysis.rngAdvancedInServe ? "yes" : "no") << ")\n";
    for (const Diagnostic &d : analysis.allDiagnostics()) {
        os << "  [" << severityName(d.severity) << "] " << d.rule
           << " (" << d.subject << "): " << d.message << "\n";
    }
    return os.str();
}

} // namespace aib::analysis::graphlint
