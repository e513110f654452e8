/**
 * @file
 * The one target list of the analysis tools (`aibench lint`,
 * `analyze` and `optimize`): every component benchmark, then every
 * scenario pipeline, each as a @c core::ComponentBenchmark that the
 * passes (auditBenchmark, analyzeBenchmark, optimizeBenchmark) take
 * unchanged.
 */

#ifndef AIB_ANALYSIS_TARGETS_H
#define AIB_ANALYSIS_TARGETS_H

#include <string_view>
#include <vector>

#include "core/benchmark.h"

namespace aib::analysis {

/**
 * The 24 components in @c core::allBenchmarks() order, then the 4
 * scenarios in @c dag::scenarioSpecs() order. A scenario target's
 * makeTask builds its @c dag::ScenarioTask with one DAG worker, so
 * every stage runs inline on the calling thread and the thread-local
 * graph capture and kernel trace see the whole pipeline; its model()
 * spans every stage.
 */
const std::vector<const core::ComponentBenchmark *> &analysisTargets();

/** The target named @p id, or nullptr. */
const core::ComponentBenchmark *findAnalysisTarget(std::string_view id);

} // namespace aib::analysis

#endif // AIB_ANALYSIS_TARGETS_H
