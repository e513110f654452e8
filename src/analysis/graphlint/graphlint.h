/**
 * @file
 * Graph auditor: static shape/FLOP/byte inference and a rule-based
 * lint pass over captured tensor graphs (see
 * src/tensor/graph_capture.h).
 *
 * The auditor exists so the complexity numbers the suite reports
 * (paper Sec. 5.2, Fig. 2) are backed by two independent paths: the
 * dynamic kernel trace (OpCounter) and a static re-derivation from
 * the captured IR. Disagreement, or a lint diagnostic, means a model
 * definition does not express the intended workload. Rules and the
 * cross-check are documented in docs/LINT.md.
 */

#ifndef AIB_ANALYSIS_GRAPHLINT_GRAPHLINT_H
#define AIB_ANALYSIS_GRAPHLINT_GRAPHLINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/benchmark.h"
#include "core/json.h"
#include "tensor/graph_capture.h"

namespace aib::analysis::graphlint {

/** @name Static inference
 * @{
 */

/** Statically inferred cost of one captured op. */
struct OpCost {
    double flops = 0.0;
    double bytesRead = 0.0;
    double bytesWritten = 0.0;
    /** False when the op name has no cost model. */
    bool modeled = false;
};

/** Result of validating one op's recorded output shape. */
struct ShapeCheck {
    /** False when no inference rule exists for the op. */
    bool checked = false;
    bool ok = true;
    std::string message;
};

/**
 * Infer the cost of @p op from shapes and attributes alone. Mirrors
 * the kernel cost model in src/tensor/ops_*.cc exactly, so a traced
 * forward pass and the static inference over its capture must agree.
 */
OpCost inferOpCost(const graph::CapturedOp &op);

/** Validate @p op's recorded output shape against inference. */
ShapeCheck checkOpShape(const graph::CapturedOp &op);

/** Aggregate static inference over every op of a captured graph. */
struct StaticTotals {
    double flops = 0.0;
    double bytesRead = 0.0;
    double bytesWritten = 0.0;
    int ops = 0;
    int modeled = 0;
    int shapeChecked = 0;
    /** Names of ops lacking a cost model (should be empty). */
    std::vector<std::string> unmodeled;
    /** Shape-inference mismatch messages (should be empty). */
    std::vector<std::string> shapeMismatches;
};

StaticTotals inferTotals(const graph::CapturedGraph &g);

/** @} */

/** @name Lint rules
 * @{
 */

enum class Severity { Info, Warning, Error };

/** One lint finding. */
struct Diagnostic {
    std::string rule;     ///< e.g. "dead-parameter"
    Severity severity = Severity::Warning;
    std::string subject;  ///< offending parameter or op name
    std::string message;
};

/** A parameter the linter tracks through the graph. */
struct ParamRef {
    std::string name;
    graph::TensorId id = 0;
    std::int64_t numel = 0;
};

/** Everything the rule engine needs about one training graph. */
struct LintInput {
    /** Capture of a training region (forward + backward ops). */
    const graph::CapturedGraph *training = nullptr;
    /** Registered parameters of the module tree. */
    std::vector<ParamRef> params;
    /** Autograd nodes still alive after backward + zero-grad. */
    std::size_t leakedNodes = 0;
};

const char *severityName(Severity s);

/**
 * Run every lint rule over @p input. Rules (see docs/LINT.md):
 * dead-parameter, grad-flow-break, broadcast-surprise,
 * undefined-input, tape-leak, numeric-risk.
 */
std::vector<Diagnostic> runRules(const LintInput &input);

/** @} */

/** @name Benchmark audit
 * @{
 */

/** Full audit of one benchmark or scenario. */
struct BenchmarkAudit {
    std::string id;
    /** Parameter count from the module tree (static). */
    std::int64_t staticParams = 0;
    /** Parameter count reported by the OpCounter (traced path). */
    std::int64_t tracedParams = 0;
    /** Forward FLOPs/bytes from the kernel trace (OpCounter). */
    double tracedFlops = 0.0;
    double tracedBytes = 0.0;
    /** Forward FLOPs/bytes re-derived statically from the IR. */
    double staticFlops = 0.0;
    double staticBytes = 0.0;
    /** Ops captured in the forward pass / ops with a cost model. */
    int forwardOps = 0;
    int modeledOps = 0;
    int shapeCheckedOps = 0;
    /** Ops captured across one training epoch. */
    int trainingOps = 0;
    std::vector<Diagnostic> diagnostics;

    double flopsRelativeError() const;
    double bytesRelativeError() const;
    /** Agreement + no Warning/Error diagnostics + full coverage. */
    bool clean(double tolerance = 0.01) const;
};

/**
 * Audit one benchmark or scenario target (analysis/targets.h): trace
 * and capture a forward pass, cross-check static inference against
 * the OpCounter, capture one training epoch and lint it.
 * Deterministic for a given seed.
 */
BenchmarkAudit auditBenchmark(const core::ComponentBenchmark &benchmark,
                              std::uint64_t seed = 42);

/** Render audits as the aib.lint/1 JSON document. */
std::string auditsToJson(const std::vector<BenchmarkAudit> &audits);

/**
 * Write @p diagnostics as a JSON array of {rule, severity, subject,
 * message} objects; aib.lint/1 and aib.analysis/1 share this shape.
 */
void writeDiagnostics(core::json::Writer &w,
                      const std::vector<Diagnostic> &diagnostics);

/** Render one audit as a human-readable report. */
std::string auditToText(const BenchmarkAudit &audit);

/** @} */

} // namespace aib::analysis::graphlint

#endif // AIB_ANALYSIS_GRAPHLINT_GRAPHLINT_H
