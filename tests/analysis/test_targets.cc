/**
 * @file
 * The analysis target list (analysis/targets.h) and the three passes
 * run on scenario targets: the 24 components then the 4 scenarios in
 * registry order, lookup by id, one DAG worker per scenario task, and
 * audit, analysis and optimization clean on the two cheapest
 * pipelines, with parameter counts that span every stage.
 */

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/graphlint/analyze.h"
#include "analysis/graphlint/graphlint.h"
#include "analysis/graphopt/graphopt.h"
#include "analysis/targets.h"
#include "core/registry.h"
#include "dag/scenario.h"

namespace aib::analysis {
namespace {

TEST(AnalysisTargets, ListsComponentsThenScenariosInOrder)
{
    std::vector<std::string> want;
    for (const core::ComponentBenchmark *b : core::allBenchmarks())
        want.push_back(b->info.id);
    for (const dag::ScenarioSpec &spec : dag::scenarioSpecs())
        want.push_back(spec.id);
    std::vector<std::string> got;
    for (const core::ComponentBenchmark *t : analysisTargets())
        got.push_back(t->info.id);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got.size(), 28u);
}

TEST(AnalysisTargets, FindResolvesComponentsAndScenarios)
{
    EXPECT_EQ(findAnalysisTarget("DC-AI-C16"),
              core::findBenchmark("DC-AI-C16"));
    const core::ComponentBenchmark *media =
        findAnalysisTarget("SCN-MEDIA");
    ASSERT_NE(media, nullptr);
    EXPECT_EQ(media->info.suite, core::Suite::Scenario);
    EXPECT_EQ(findAnalysisTarget("SCN-NOPE"), nullptr);
    EXPECT_EQ(findAnalysisTarget("DC-AI-C99"), nullptr);
}

TEST(AnalysisTargets, ScenarioTasksRunOnOneDagWorker)
{
    const core::ComponentBenchmark *media =
        findAnalysisTarget("SCN-MEDIA");
    ASSERT_NE(media, nullptr);
    const auto task = media->makeTask(42);
    EXPECT_EQ(
        static_cast<dag::ScenarioTask &>(*task).executor().workers(), 1);
}

struct ScenarioCase {
    const char *id;
    /** Sum of the stage models' parameter counts. */
    std::int64_t params;
};

/** Names the case by id in test listings (not by its bytes). */
void
PrintTo(const ScenarioCase &c, std::ostream *os)
{
    *os << c.id;
}

class ScenarioTarget : public ::testing::TestWithParam<ScenarioCase>
{
  protected:
    void
    SetUp() override
    {
        target_ = findAnalysisTarget(GetParam().id);
        ASSERT_NE(target_, nullptr) << GetParam().id;
    }

    const core::ComponentBenchmark *target_ = nullptr;
};

TEST_P(ScenarioTarget, AuditIsCleanAndCountsEveryStage)
{
    const graphlint::BenchmarkAudit audit =
        graphlint::auditBenchmark(*target_, 42);
    EXPECT_EQ(audit.staticParams, GetParam().params);
    EXPECT_EQ(audit.tracedParams, GetParam().params);
    for (const graphlint::Diagnostic &d : audit.diagnostics)
        ADD_FAILURE() << d.rule << " (" << d.subject
                      << "): " << d.message;
    EXPECT_TRUE(audit.clean());
}

TEST_P(ScenarioTarget, AnalysisIsClean)
{
    const graphlint::BenchmarkAnalysis analysis =
        graphlint::analyzeBenchmark(*target_, 42);
    for (const graphlint::Diagnostic &d : analysis.allDiagnostics())
        ADD_FAILURE() << d.rule << " (" << d.subject
                      << "): " << d.message;
    EXPECT_TRUE(analysis.clean());
}

TEST_P(ScenarioTarget, OptimizationIsClean)
{
    const graphopt::TargetReport report =
        graphopt::optimizeBenchmark(*target_, {});
    EXPECT_EQ(report.planError, "");
    EXPECT_TRUE(report.clean());
}

INSTANTIATE_TEST_SUITE_P(
    Cheapest, ScenarioTarget,
    ::testing::Values(ScenarioCase{"SCN-RECOMMEND", 7097},
                      ScenarioCase{"SCN-MEDIA", 22009}),
    [](const ::testing::TestParamInfo<ScenarioCase> &info) {
        std::string name = info.param.id;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace aib::analysis
