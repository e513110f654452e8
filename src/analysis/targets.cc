#include "analysis/targets.h"

#include <memory>

#include "core/registry.h"
#include "dag/scenario.h"

namespace aib::analysis {

const std::vector<const core::ComponentBenchmark *> &
analysisTargets()
{
    static const std::vector<core::ComponentBenchmark> scenarios = [] {
        std::vector<core::ComponentBenchmark> out;
        for (const dag::ScenarioSpec &spec : dag::scenarioSpecs()) {
            core::ComponentBenchmark target = *dag::findScenario(spec.id);
            target.makeTask = [&spec](std::uint64_t seed) {
                return std::make_unique<dag::ScenarioTask>(
                    spec, seed, /*dagWorkers=*/1);
            };
            out.push_back(std::move(target));
        }
        return out;
    }();
    static const std::vector<const core::ComponentBenchmark *> targets =
        [] {
            std::vector<const core::ComponentBenchmark *> out =
                core::allBenchmarks();
            for (const core::ComponentBenchmark &s : scenarios)
                out.push_back(&s);
            return out;
        }();
    return targets;
}

const core::ComponentBenchmark *
findAnalysisTarget(std::string_view id)
{
    for (const core::ComponentBenchmark *target : analysisTargets()) {
        if (target->info.id == id)
            return target;
    }
    return nullptr;
}

} // namespace aib::analysis
