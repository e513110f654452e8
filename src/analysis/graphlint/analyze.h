/**
 * @file
 * IR dataflow analyzer: three passes over captured tensor graphs,
 * surfaced as `aibench analyze` (schema aib.analysis/1).
 *
 *  - Buffer liveness: first-def/last-use intervals per tensor, a
 *    static peak-live-bytes sweep, a first-fit arena packing and a
 *    ranked buffer-reuse report — the input contract for the planned
 *    static memory planner (ROADMAP item 2). The static peak is
 *    cross-checked at <= 1% relative error against the allocator
 *    high-water mark (src/tensor/alloctrack.h) measured while
 *    enacting the intervals with real tensors — the same
 *    two-independent-paths discipline as the FLOP audit, applied to
 *    the memory plan a planner-grade executor would run. The real
 *    process high-water is reported alongside, un-gated; its gap to
 *    the plan quantifies retention slack in the C++ forward paths.
 *  - Redundant compute: common-subexpression candidates — identical
 *    (op, attributes, inputs) executed more than once in one region.
 *  - Determinism: every accumulating op on the serve/digest path must
 *    declare a fixed accumulation order ("ordered" attribute), and
 *    the region must not draw from the process-global RNG — the
 *    serving determinism suite's bitwise-digest contract, enforced
 *    statically.
 *
 * Conventions, pass semantics and the JSON schema are documented in
 * docs/ANALYSIS.md.
 */

#ifndef AIB_ANALYSIS_GRAPHLINT_ANALYZE_H
#define AIB_ANALYSIS_GRAPHLINT_ANALYZE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/graphlint/graphlint.h"
#include "core/benchmark.h"
#include "tensor/graph_capture.h"

namespace aib::analysis::graphlint {

/** @name Buffer liveness
 * @{
 */

/** Lifetime of one tensor buffer within a captured region. */
struct BufferInterval {
    graph::TensorId id = 0;
    std::int64_t bytes = 0;
    /** Index of the producing op; -1 for region inputs (sources). */
    int def = -1;
    /** Index of the last consuming op; -1 when never read. */
    int lastUse = -1;
    /** Parameter/persistent buffer: resident outside the region. */
    bool resident = false;
    /** Producing op name; empty for sources. */
    std::string producer;
};

/** One buffer-reuse opportunity: @c from dies before @c into is
 *  defined, so the planner can place @c into in @c from's storage. */
struct ReuseCandidate {
    graph::TensorId from = 0;
    graph::TensorId into = 0;
    /** Producing-op indices (BufferInterval::def) of @c from and
     *  @c into: unlike TensorIds, stable from run to run. */
    int fromOp = -1;
    int intoOp = -1;
    /** Bytes saved by the pairing (= size of @c into). */
    std::int64_t bytes = 0;
};

/** Result of the liveness pass over one captured region. */
struct LivenessReport {
    /** All intervals, in definition order (sources first). */
    std::vector<BufferInterval> intervals;
    /**
     * Peak of simultaneously-live activation (non-resident) bytes
     * under ideal free-at-last-use lifetimes: the floor a static
     * memory planner can reach.
     */
    std::int64_t peakLiveBytes = 0;
    /**
     * Peak under C++ scope semantics: region inputs and op outputs
     * stay alive to the end of their full expression, approximated as
     * the end of the region for sources. This is what the measured
     * allocator high-water mark is compared against.
     */
    std::int64_t peakScopeBytes = 0;
    /** Sum of every activation allocation in the region. */
    std::int64_t totalAllocBytes = 0;
    /** Bytes of resident tensors (params/buffers) the region reads. */
    std::int64_t residentBytes = 0;
    /** Arena size needed by a greedy first-fit offset packer. */
    std::int64_t arenaBytes = 0;
    /** Reuse pairings, ranked by bytes saved (largest first). */
    std::vector<ReuseCandidate> reuse;
    /** dead-buffer findings. */
    std::vector<Diagnostic> diagnostics;
};

/**
 * Liveness over the Phase::Forward ops of @p g. @p resident lists
 * TensorIds that live outside the region (parameters, persistent
 * buffers); they are excluded from peaks and packing.
 */
LivenessReport
analyzeLiveness(const graph::CapturedGraph &g,
                const std::vector<graph::TensorId> &resident);

/** Parameter and persistent-buffer ids of @p model: the resident set
 *  of a region that runs the model. */
std::vector<graph::TensorId> residentIds(const nn::Module &model);

/** @} */

/** @name Redundant compute (CSE candidates)
 * @{
 */

/** A set of identical computations executed more than once. */
struct RedundancyGroup {
    std::string name;         ///< op name
    int count = 0;            ///< executions of the identical op
    double wastedFlops = 0.0; ///< (count - 1) * per-op flops
    std::vector<int> opIndices;
};

struct RedundancyReport {
    std::vector<RedundancyGroup> groups; ///< ranked by wastedFlops
    double wastedFlops = 0.0;
    std::vector<Diagnostic> diagnostics;
};

/**
 * Find forward ops with non-zero cost whose (name, attributes,
 * inputs) key repeats within the region.
 */
RedundancyReport findRedundantCompute(const graph::CapturedGraph &g);

/** @} */

/** @name Determinism lint
 * @{
 */

struct DeterminismInput {
    /** Capture of a serve/digest region. */
    const graph::CapturedGraph *graph = nullptr;
    /** True when the process-global RNG advanced inside the region. */
    bool rngAdvanced = false;
};

struct DeterminismReport {
    /** Ops reachable backwards from the digest output. */
    int digestPathOps = 0;
    /** Accumulating digest-path ops declaring a fixed order. */
    int orderedReductions = 0;
    std::vector<Diagnostic> diagnostics;
};

/**
 * Walk producers back from the final op's output (the tensor the
 * serve digest folds over) and flag order-dependent reductions
 * lacking the "ordered" declaration, RNG-sourced ops, and any global
 * RNG consumption inside the region.
 */
DeterminismReport checkDeterminism(const DeterminismInput &input);

/** @} */

/** @name Benchmark analysis driver
 * @{
 */

/** Full analysis of one benchmark or scenario (aib.analysis/1). */
struct BenchmarkAnalysis {
    std::string id;

    /** Allocator live bytes before the measured forward region. */
    std::int64_t measuredBaselineBytes = 0;
    /**
     * Allocator high-water mark of the real forward region, as the
     * C++ program runs it. Not gated: real lifetimes depend on
     * variable binding (locals held past last use, arguments pinned
     * across nested calls), which no graph-level model can see. The
     * gap to staticPeakBytes is the retention slack a planner-grade
     * executor would reclaim.
     */
    std::int64_t processPeakBytes = 0;
    /**
     * Allocator high-water mark measured while *enacting* the
     * liveness intervals: every buffer is materialized as a real
     * tensor at its first definition and dropped after its last use,
     * through the production allocator accounting. This is the
     * dry-run of the memory plan the static planner (ROADMAP item 2)
     * will execute, measured by machinery (alloctrack counters)
     * wholly independent of the interval sweep arithmetic.
     */
    std::int64_t measuredPeakBytes = 0;
    /** Static prediction: replay-start live + liveness peak. */
    std::int64_t staticPeakBytes = 0;

    LivenessReport liveness;       ///< forward region
    RedundancyReport redundancy;   ///< forward region
    DeterminismReport determinism; ///< serve region
    bool rngAdvancedInServe = false;

    int forwardOps = 0;
    int serveOps = 0;

    /** |static - measured| / measured for the peak cross-check. */
    double peakRelativeError() const;
    /** All diagnostics from the three passes, concatenated. */
    std::vector<Diagnostic> allDiagnostics() const;
    /** Peak within tolerance and no Warning/Error diagnostics. */
    bool clean(double tolerance = 0.01) const;
};

/**
 * Analyze one benchmark or scenario target (analysis/targets.h):
 * measure an uncaptured forward region's allocator high-water mark,
 * capture an identical forward region (same seed, same construction
 * order) for the liveness and redundancy passes, then capture a
 * serveBatch region for the determinism lint. Deterministic for a
 * given seed.
 */
BenchmarkAnalysis
analyzeBenchmark(const core::ComponentBenchmark &benchmark,
                 std::uint64_t seed = 42);

/** Render analyses as the aib.analysis/1 JSON document. */
std::string
analysesToJson(const std::vector<BenchmarkAnalysis> &analyses);

/** Render one analysis as a human-readable report. */
std::string analysisToText(const BenchmarkAnalysis &analysis);

/** @} */

} // namespace aib::analysis::graphlint

#endif // AIB_ANALYSIS_GRAPHLINT_ANALYZE_H
