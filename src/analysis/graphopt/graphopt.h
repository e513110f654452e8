/**
 * @file
 * Graph-IR optimizer: element-wise kernel fusion and a static arena
 * memory planner over captured tensor graphs, surfaced as
 * `aibench optimize` (schema aib.graphopt/1; docs/GRAPHOPT.md).
 *
 * Two passes, each validated by an independent measurement path:
 *
 *  - Fusion (fusion.cc): rewrite a baseline capture by collapsing the
 *    chains the fused kernels in src/tensor (ops::fused) execute —
 *    add+activation (R1), conv bias+activation epilogues (R2) and the
 *    inference batch-norm normalize/scale chain (R3). The rules key
 *    on anchor attributes the unfused fallback paths record
 *    (`fuseact`, `bnchain`), so the rewrite predicts the optimized
 *    capture exactly: the driver cross-checks the predicted op
 *    sequence and static FLOP/byte totals against a real fused
 *    capture at zero relative error.
 *
 *  - Memory planning (memplan.cc): turn the liveness pass's buffer
 *    intervals (analyze.h) into a concrete first-fit arena plan with
 *    per-buffer offsets, then enact the plan chronologically through
 *    the production arena allocator (src/tensor/arena.h) and require
 *    the measured high-water mark to equal the planned arena size
 *    exactly. A second, independent gate replays the optimized
 *    forward's allocation event log through the same FirstFitLayout
 *    the runtime arena uses, derives a capacity, and proves a real
 *    arena-enabled run fits in it with zero heap fallbacks.
 */

#ifndef AIB_ANALYSIS_GRAPHOPT_GRAPHOPT_H
#define AIB_ANALYSIS_GRAPHOPT_GRAPHOPT_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/graphlint/analyze.h"
#include "core/benchmark.h"
#include "tensor/alloctrack.h"
#include "tensor/graph_capture.h"

namespace aib::analysis::graphopt {

/** @name Fusion pass
 * @{
 */

/** One group of baseline ops collapsed into a single fused kernel. */
struct FusionGroup {
    /** Capture name of the fused op ("addAct", "conv2dAct", ...). */
    std::string fusedName;
    /**
     * Indices into the baseline graph's ops, anchor first. The
     * anchor (add / conv / chain-head sub) determines the fused op's
     * inputs; the last index is the op whose output the fused kernel
     * produces.
     */
    std::vector<int> opIndices;
    /** ops::Act enum value of the activation epilogue (0 = none). */
    std::int64_t act = 0;
    /** Bytes of intermediate buffers the fusion eliminates. */
    std::int64_t eliminatedBytes = 0;
};

/** Fusion rewrite plan for one captured region. */
struct FusionPlan {
    std::vector<FusionGroup> groups;
    int addActFused = 0;     ///< R1 groups
    int convActFused = 0;    ///< R2 groups
    int normScaleFused = 0;  ///< R3 groups
    int opsBefore = 0;       ///< forward ops in the baseline capture
    int opsAfter = 0;        ///< forward ops after the rewrite
    /** Total bytes of eliminated intermediate buffers. */
    std::int64_t eliminatedBytes = 0;
};

/**
 * Plan the fusion rewrite of @p g. Rules (docs/GRAPHOPT.md):
 *
 *  - R1: an `add` tagged `fuseact` by the fused::addAct fallback,
 *    whose output's sole forward consumer is the matching activation
 *    op, becomes one `addAct`.
 *  - R2: a `conv2d`/`convTranspose2d` tagged `fuseact`, sole forward
 *    consumer the matching activation, becomes `conv2dAct` /
 *    `convTranspose2dAct`.
 *  - R3: a `sub` tagged `bnchain == 1` (inference batch-norm chain
 *    head) followed by its sole-consumer mul -> mul -> add chain, all
 *    off-tape, becomes one `normScale`.
 *
 * Ops claimed by one group are never reused by another. Only
 * Phase::Forward ops participate; backward sequences are left as-is.
 */
FusionPlan planFusion(const graph::CapturedGraph &g);

/**
 * Apply @p plan to @p g: each group's ops are replaced, in place in
 * the op sequence, by the single fused op the runtime would capture
 * (same name, inputs, output, attributes). All other ops are copied
 * unchanged, so the result is directly comparable — op by op —
 * against a capture taken with fusion enabled.
 */
graph::CapturedGraph rewriteGraph(const graph::CapturedGraph &g,
                                  const FusionPlan &plan);

/** @} */

/** @name Static arena memory planner
 * @{
 */

/** One buffer placement in the arena plan. */
struct PlannedBuffer {
    graph::TensorId id = 0;
    std::int64_t bytes = 0;
    /** Byte offset in the arena slab (64-aligned). */
    std::size_t offset = 0;
    /** Lifetime in forward-op indices, from the liveness pass. */
    int def = 0;
    int lastUse = 0;
};

/** Static arena plan for one captured region. */
struct MemoryPlan {
    /** Placements, in definition order. */
    std::vector<PlannedBuffer> buffers;
    /** Slab size the plan needs: max over buffers of offset+bytes. */
    std::int64_t arenaBytes = 0;
};

/**
 * First-fit offset packing of the non-resident op-output intervals of
 * @p liveness (the buffers a planner-grade executor owns): largest
 * first, each placed at the lowest 64-aligned offset that does not
 * collide with any already-placed buffer of overlapping lifetime.
 * Mirrors the packing `aibench analyze` sizes (liveness.cc), with
 * offsets kept and arena alignment applied.
 */
MemoryPlan planArena(const graphlint::LivenessReport &liveness);

/**
 * Check @p plan's invariants: lifetime-overlapping buffers occupy
 * disjoint (alignment-padded) ranges, every offset is 64-aligned,
 * every buffer fits under arenaBytes, and arenaBytes is tight.
 * Returns an empty string when the plan is valid, else a message
 * describing the first violation.
 */
std::string validatePlan(const MemoryPlan &plan);

/**
 * Enact @p plan through the production arena: configure a slab of
 * exactly arenaBytes, then allocate every buffer at its planned
 * offset at its def index and free it after its last use, in
 * chronological order. Returns the arena's measured high-water mark,
 * which must equal plan.arenaBytes exactly (the allocator and the
 * planner share the FirstFitLayout bookkeeping). Leaves the arena
 * unconfigured and disabled.
 */
std::int64_t enactPlan(const MemoryPlan &plan);

/**
 * Replay a tensor-allocation event log (alloctrack.h) through an
 * unbounded FirstFitLayout — the exact placement policy the runtime
 * arena runs — and return the resulting high-water mark: the minimal
 * slab capacity under which the same allocation stream never falls
 * back to the heap. Frees of buffers allocated before the log began
 * are ignored, as the runtime arena ignores heap pointers.
 */
std::int64_t
simulateFirstFit(const std::vector<alloctrack::Event> &events);

/** @} */

/** @name Optimizer driver
 * @{
 */

struct OptimizeOptions {
    std::uint64_t seed = 42;
    /** Timed forward repetitions per measurement side. */
    int reps = 3;
};

/** Optimization report for one benchmark or scenario. */
struct TargetReport {
    std::string id;

    // Fusion.
    int addActFused = 0;
    int convActFused = 0;
    int normScaleFused = 0;
    int opsBefore = 0;
    int opsAfter = 0;
    std::int64_t eliminatedBytes = 0;
    /** Predicted fused op sequence == real fused capture, op by op. */
    bool sequenceMatch = false;
    /** Max relative error between static totals of the predicted and
     *  the real fused capture (must be exactly 0). */
    double staticRelErr = 0.0;
    /** Unmodeled ops / shape mismatches in the fused capture. */
    int unmodeledOps = 0;
    int shapeMismatches = 0;

    // Arena plan (packed offsets, enacted through the allocator).
    std::int64_t planArenaBytes = 0;
    std::int64_t enactedPeakBytes = 0;
    bool planExact = false;
    /** validatePlan() message; empty when the plan is valid. */
    std::string planError;

    // Runtime arena gate (event-log simulation -> real arena run).
    std::int64_t runtimeArenaBytes = 0;
    std::int64_t runtimePeakBytes = 0;
    std::int64_t heapFallbackAllocs = 0;
    bool runtimeFits = false;

    // Allocator traffic over one forward pass.
    std::int64_t baselineAllocs = 0;
    std::int64_t baselineAllocBytes = 0;
    std::int64_t optimizedAllocs = 0;
    std::int64_t optimizedAllocBytes = 0;

    // Allocator high-water mark over one forward pass.
    std::int64_t baselinePeakBytes = 0;
    std::int64_t optimizedPeakBytes = 0;

    // Throughput over OptimizeOptions::reps forward passes.
    double baselineGflops = 0.0;
    double optimizedGflops = 0.0;

    /** Serve digests match bitwise between the two modes. */
    bool digestMatch = false;

    /** Every gate holds (docs/GRAPHOPT.md lists them). */
    bool clean() const;
};

/** Optimize one benchmark or scenario target (analysis/targets.h).
 *  Deterministic for a seed. */
TargetReport optimizeBenchmark(const core::ComponentBenchmark &benchmark,
                               const OptimizeOptions &opts = {});

/** Render reports as the aib.graphopt/1 JSON document. */
std::string reportsToJson(const std::vector<TargetReport> &reports);

/** Render one report as a human-readable summary. */
std::string reportToText(const TargetReport &report);

/** @} */

} // namespace aib::analysis::graphopt

#endif // AIB_ANALYSIS_GRAPHOPT_GRAPHOPT_H
