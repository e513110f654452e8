/**
 * @file
 * Graph auditor tests: capture-layer behaviour, static cost/shape
 * inference, one failing negative test per lint rule, and the
 * static-vs-traced cross-check over the affordable subset.
 *
 * Each negative test builds the smallest graph that violates one
 * rule and asserts that exactly that rule fires, naming the
 * offending parameter or op (docs/LINT.md documents the rules).
 */

#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "analysis/graphlint/graphlint.h"
#include "core/registry.h"
#include "tensor/autograd.h"
#include "tensor/graph_capture.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace aib::analysis::graphlint {
namespace {

/** Diagnostics emitted for @p rule. */
std::vector<Diagnostic>
byRule(const std::vector<Diagnostic> &all, const std::string &rule)
{
    std::vector<Diagnostic> out;
    for (const Diagnostic &d : all)
        if (d.rule == rule)
            out.push_back(d);
    return out;
}

// ---------------------------------------------------------------------------
// Capture layer
// ---------------------------------------------------------------------------

TEST(GraphCapture, RecordsOpsWithShapesAndIds)
{
    Tensor a = Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b = Tensor::fromVector({3}, {1, 1, 1});
    graph::GraphCapture capture;
    Tensor c = ops::add(a, b);
    ASSERT_EQ(capture.graph().ops.size(), 1u);
    const graph::CapturedOp &op = capture.graph().ops[0];
    EXPECT_EQ(op.name, "add");
    ASSERT_EQ(op.inputShapes.size(), 2u);
    EXPECT_EQ(op.inputShapes[0], (Shape{2, 3}));
    EXPECT_EQ(op.inputShapes[1], (Shape{3}));
    EXPECT_EQ(op.outputShape, (Shape{2, 3}));
    EXPECT_EQ(op.inputIds[0], graph::tensorId(a));
    EXPECT_EQ(op.outputId, graph::tensorId(c));
    EXPECT_FALSE(op.onTape); // no input requires grad
    EXPECT_EQ(op.phase, graph::Phase::Forward);
}

TEST(GraphCapture, RecordsBackwardRootsAndPhases)
{
    Tensor w =
        Tensor::fromVector({1, 2}, {0.5f, -0.25f}).setRequiresGrad(true);
    graph::GraphCapture capture;
    // permute's backward runs permute, a captured op, in the backward
    // phase.
    Tensor loss = ops::sum(ops::permute(ops::mul(w, w), {1, 0}));
    loss.backward();
    const graph::CapturedGraph &g = capture.graph();
    ASSERT_EQ(g.backwardRoots.size(), 1u);
    EXPECT_EQ(g.backwardRoots[0], graph::tensorId(loss));
    bool saw_forward = false, saw_backward = false;
    for (const graph::CapturedOp &op : g.ops) {
        saw_forward |= op.phase == graph::Phase::Forward;
        saw_backward |= op.phase == graph::Phase::Backward;
        if (op.phase == graph::Phase::Forward) {
            EXPECT_TRUE(op.onTape) << op.name;
        }
    }
    EXPECT_TRUE(saw_forward);
    EXPECT_TRUE(saw_backward);
}

TEST(GraphCapture, CaptureSeesInferenceModeOps)
{
    NoGradGuard no_grad;
    Tensor a = Tensor::zeros({4});
    graph::GraphCapture capture;
    (void)ops::relu(a);
    ASSERT_EQ(capture.graph().ops.size(), 1u);
    EXPECT_EQ(capture.graph().ops[0].name, "relu");
    EXPECT_FALSE(capture.graph().ops[0].onTape);
}

// ---------------------------------------------------------------------------
// Static inference
// ---------------------------------------------------------------------------

TEST(StaticInference, MatmulCostMatchesClosedForm)
{
    Tensor a = Tensor::zeros({2, 3});
    Tensor b = Tensor::zeros({3, 4});
    graph::GraphCapture capture;
    (void)ops::matmul(a, b);
    const StaticTotals totals = inferTotals(capture.graph());
    EXPECT_EQ(totals.ops, 1);
    EXPECT_EQ(totals.modeled, 1);
    EXPECT_EQ(totals.shapeChecked, 1);
    EXPECT_DOUBLE_EQ(totals.flops, 2.0 * 2 * 4 * 3);
    EXPECT_DOUBLE_EQ(totals.bytesRead, 4.0 * (2 * 3 + 3 * 4));
    EXPECT_DOUBLE_EQ(totals.bytesWritten, 4.0 * 2 * 4);
}

TEST(StaticInference, UnmodeledOpIsReportedNotGuessed)
{
    graph::CapturedOp op;
    op.name = "frobnicate";
    op.inputShapes = {{4}};
    op.inputIds = {1};
    op.outputShape = {4};
    op.outputId = 2;
    EXPECT_FALSE(inferOpCost(op).modeled);
    graph::CapturedGraph g;
    g.ops.push_back(op);
    const StaticTotals totals = inferTotals(g);
    ASSERT_EQ(totals.unmodeled.size(), 1u);
    EXPECT_EQ(totals.unmodeled[0], "frobnicate");
}

TEST(StaticInference, ShapeMismatchIsDetected)
{
    graph::CapturedOp op;
    op.name = "add";
    op.inputShapes = {{2, 3}, {3}};
    op.inputIds = {1, 2};
    op.outputShape = {2, 4}; // wrong: broadcast gives (2, 3)
    op.outputId = 3;
    const ShapeCheck check = checkOpShape(op);
    EXPECT_TRUE(check.checked);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.message.find("add"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lint rules — one minimal violating graph per rule
// ---------------------------------------------------------------------------

TEST(LintRules, DeadParameterFires)
{
    Tensor used =
        Tensor::fromVector({2}, {1.0f, 2.0f}).setRequiresGrad(true);
    Tensor unused =
        Tensor::fromVector({3}, {1, 2, 3}).setRequiresGrad(true);
    graph::GraphCapture capture;
    Tensor loss = ops::sum(ops::mul(used, used));
    loss.backward();

    LintInput input;
    input.training = &capture.graph();
    input.params = {{"net.used", graph::tensorId(used), 2},
                    {"net.unused", graph::tensorId(unused), 3}};
    const auto hits = byRule(runRules(input), "dead-parameter");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].subject, "net.unused");
    EXPECT_EQ(hits[0].severity, Severity::Error);
}

TEST(LintRules, GradFlowBreakFiresAndNamesTheSeveringOp)
{
    Tensor w =
        Tensor::fromVector({2}, {1.0f, -1.0f}).setRequiresGrad(true);
    Tensor x = Tensor::fromVector({2}, {3.0f, 4.0f});
    graph::GraphCapture capture;
    Tensor h = ops::mul(w, x);
    Tensor cut = h.detach(); // severs the tape mid-path
    Tensor loss = ops::sum(cut);
    loss.backward();

    LintInput input;
    input.training = &capture.graph();
    input.params = {{"net.w", graph::tensorId(w), 2}};
    const auto hits = byRule(runRules(input), "grad-flow-break");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].subject, "net.w");
    EXPECT_NE(hits[0].message.find("detach"), std::string::npos);
    EXPECT_TRUE(byRule(runRules(input), "dead-parameter").empty());
}

TEST(LintRules, BroadcastSurpriseFiresOnMutualExpansion)
{
    Tensor col = Tensor::zeros({4, 1});
    Tensor row = Tensor::zeros({4});
    graph::GraphCapture capture;
    Tensor outer = ops::add(col, row); // (4,1) + (4,) -> (4,4)
    EXPECT_EQ(outer.shape(), (Shape{4, 4}));

    LintInput input;
    input.training = &capture.graph();
    const auto hits = byRule(runRules(input), "broadcast-surprise");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].subject, "add");
    EXPECT_NE(hits[0].message.find("[4, 1]"), std::string::npos)
        << hits[0].message;
}

TEST(LintRules, BiasStyleBroadcastDoesNotFire)
{
    Tensor batch = Tensor::zeros({8, 4});
    Tensor bias = Tensor::zeros({4});
    graph::GraphCapture capture;
    (void)ops::add(batch, bias); // one-sided broadcast: idiomatic
    LintInput input;
    input.training = &capture.graph();
    EXPECT_TRUE(byRule(runRules(input), "broadcast-surprise").empty());
}

TEST(LintRules, UndefinedInputFires)
{
    graph::CapturedGraph g;
    graph::CapturedOp op;
    op.name = "mul";
    op.inputShapes = {{4}, {4}};
    op.inputIds = {7, 0}; // input 1 is undefined
    op.outputShape = {4};
    op.outputId = 8;
    g.ops.push_back(op);

    LintInput input;
    input.training = &g;
    const auto hits = byRule(runRules(input), "undefined-input");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].subject, "mul");
    EXPECT_NE(hits[0].message.find("input 1"), std::string::npos);
}

TEST(LintRules, UndefinedConvBiasIsAllowed)
{
    graph::CapturedGraph g;
    graph::CapturedOp op;
    op.name = "conv2d";
    op.inputShapes = {{1, 3, 8, 8}, {4, 3, 3, 3}, {}};
    op.inputIds = {7, 9, 0}; // no-bias convolution convention
    op.outputShape = {1, 4, 8, 8};
    op.outputId = 10;
    g.ops.push_back(op);

    LintInput input;
    input.training = &g;
    EXPECT_TRUE(byRule(runRules(input), "undefined-input").empty());
}

TEST(LintRules, TapeLeakFiresAndCensusSeesLiveNodes)
{
    const std::size_t before = autograd::liveNodeCount();
    {
        Tensor w = Tensor::fromVector({2}, {1.0f, 2.0f})
                       .setRequiresGrad(true);
        Tensor kept = ops::mul(w, w); // pins its autograd node
        EXPECT_GT(autograd::liveNodeCount(), before);
    }
    EXPECT_EQ(autograd::liveNodeCount(), before);

    graph::CapturedGraph empty;
    LintInput input;
    input.training = &empty;
    input.leakedNodes = 3;
    const auto hits = byRule(runRules(input), "tape-leak");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("3"), std::string::npos);
}

TEST(LintRules, NumericRiskFiresOnLogSoftmax)
{
    Tensor x = Tensor::fromVector({1, 4}, {1, 2, 3, 4});
    graph::GraphCapture capture;
    (void)ops::log(ops::softmax(x));
    LintInput input;
    input.training = &capture.graph();
    const auto hits = byRule(runRules(input), "numeric-risk");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].subject, "log");
    EXPECT_NE(hits[0].message.find("logSoftmax"), std::string::npos);
}

TEST(LintRules, NumericRiskFiresOnSqrtOfRawSum)
{
    Tensor x = Tensor::fromVector({4}, {1, 2, 3, 4});
    graph::GraphCapture capture;
    (void)ops::sqrt(ops::sum(x));
    LintInput input;
    input.training = &capture.graph();
    const auto hits = byRule(runRules(input), "numeric-risk");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].subject, "sqrt");
}

TEST(LintRules, FusedLogSoftmaxDoesNotFire)
{
    Tensor x = Tensor::fromVector({1, 4}, {1, 2, 3, 4});
    graph::GraphCapture capture;
    (void)ops::logSoftmax(x);
    LintInput input;
    input.training = &capture.graph();
    EXPECT_TRUE(byRule(runRules(input), "numeric-risk").empty());
}

// ---------------------------------------------------------------------------
// Static-vs-traced cross-check (fast benchmarks; the full suite runs
// in the tier-2 sweep below and in CI via `aibench lint --all`).
// ---------------------------------------------------------------------------

class SubsetAudit : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SubsetAudit, StaticMatchesTracedAndLintIsClean)
{
    const core::ComponentBenchmark *b = core::findBenchmark(GetParam());
    ASSERT_NE(b, nullptr);
    const BenchmarkAudit audit = auditBenchmark(*b, 42);
    EXPECT_EQ(audit.staticParams, audit.tracedParams);
    EXPECT_LE(audit.flopsRelativeError(), 0.01);
    EXPECT_LE(audit.bytesRelativeError(), 0.01);
    EXPECT_EQ(audit.modeledOps, audit.forwardOps);
    EXPECT_EQ(audit.shapeCheckedOps, audit.forwardOps);
    EXPECT_GT(audit.trainingOps, audit.forwardOps);
    for (const Diagnostic &d : audit.diagnostics)
        ADD_FAILURE() << d.rule << " (" << d.subject
                      << "): " << d.message;
    EXPECT_TRUE(audit.clean());
}

INSTANTIATE_TEST_SUITE_P(
    FastOnes, SubsetAudit,
    ::testing::Values("DC-AI-C2", "DC-AI-C10", "DC-AI-C16",
                      "MLPerf-RL"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(AuditOutput, JsonContainsCrossCheckFields)
{
    const core::ComponentBenchmark *b =
        core::findBenchmark("DC-AI-C16");
    ASSERT_NE(b, nullptr);
    const std::string json = auditsToJson({auditBenchmark(*b, 42)});
    EXPECT_EQ(json.find("{\"schema\":\"aib.lint/1\","), 0u);
    EXPECT_NE(json.find("\"id\":\"DC-AI-C16\""), std::string::npos);
    EXPECT_NE(json.find("\"relative_error\":"), std::string::npos);
    EXPECT_NE(json.find("\"clean\":true"), std::string::npos);
}

/** The number that follows the first @p key at or after @p from. */
double
numberAfter(const std::string &json, std::size_t from,
            const std::string &key)
{
    const std::size_t at = json.find(key, from);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return std::nan("");
    return std::strtod(json.c_str() + at + key.size(), nullptr);
}

TEST(AuditOutput, JsonCountsReadBackExactly)
{
    // C4's forward pass is 1,029,078 FLOPs over 2,067,232 bytes: more
    // digits than a six-significant-digit rendering keeps.
    const core::ComponentBenchmark *b = core::findBenchmark("DC-AI-C4");
    ASSERT_NE(b, nullptr);
    const BenchmarkAudit audit = auditBenchmark(*b, 42);
    ASSERT_GT(audit.tracedFlops, 1e6);
    const std::string json = auditsToJson({audit});
    const std::size_t flops = json.find("\"flops\":{");
    const std::size_t bytes = json.find("\"bytes\":{");
    ASSERT_NE(flops, std::string::npos);
    ASSERT_NE(bytes, std::string::npos);
    // EXPECT_EQ compares with ==, which for these positive finite
    // doubles is bit-for-bit equality; gtest prints them rounded, so
    // the trace shows the report text.
    SCOPED_TRACE(json.substr(flops, bytes - flops + 80));
    EXPECT_EQ(numberAfter(json, flops, "\"static\":"), audit.staticFlops);
    EXPECT_EQ(numberAfter(json, flops, "\"traced\":"), audit.tracedFlops);
    EXPECT_EQ(numberAfter(json, bytes, "\"static\":"), audit.staticBytes);
    EXPECT_EQ(numberAfter(json, bytes, "\"traced\":"), audit.tracedBytes);
}

TEST(AuditOutput, AuditIsDeterministicForASeed)
{
    const core::ComponentBenchmark *b =
        core::findBenchmark("DC-AI-C16");
    ASSERT_NE(b, nullptr);
    const BenchmarkAudit first = auditBenchmark(*b, 7);
    const BenchmarkAudit second = auditBenchmark(*b, 7);
    EXPECT_EQ(first.staticFlops, second.staticFlops);
    EXPECT_EQ(first.tracedFlops, second.tracedFlops);
    EXPECT_EQ(first.trainingOps, second.trainingOps);
    EXPECT_EQ(first.diagnostics.size(), second.diagnostics.size());
}

} // namespace
} // namespace aib::analysis::graphlint
