/**
 * @file
 * Benchmark audit driver: runs the traced (OpCounter) and static
 * (graph-capture + inference) cost paths over one benchmark,
 * cross-checks them, lints a captured training epoch and renders the
 * results as text or JSON for `aibench lint`.
 */

#include "analysis/graphlint/graphlint.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/opcounter.h"
#include "core/json.h"
#include "tensor/autograd.h"
#include "tensor/random.h"

namespace aib::analysis::graphlint {

namespace {

double
relativeError(double lhs, double rhs)
{
    const double denom = std::max(std::abs(rhs), 1.0);
    return std::abs(lhs - rhs) / denom;
}

std::vector<ParamRef>
collectParams(nn::Module &model)
{
    std::vector<ParamRef> out;
    for (const nn::NamedParam &p : model.namedParameters()) {
        ParamRef ref;
        ref.name = p.name;
        ref.id = graph::tensorId(p.tensor);
        ref.numel = p.tensor.numel();
        out.push_back(std::move(ref));
    }
    return out;
}

void
appendCoverageDiagnostics(const StaticTotals &totals,
                          std::vector<Diagnostic> &diagnostics)
{
    for (const std::string &name : totals.unmodeled) {
        Diagnostic d;
        d.rule = "unmodeled-op";
        d.severity = Severity::Error;
        d.subject = name;
        d.message = "op '" + name +
                    "' has no static cost model; extend "
                    "src/analysis/graphlint/infer.cc";
        diagnostics.push_back(std::move(d));
    }
    for (const std::string &message : totals.shapeMismatches) {
        Diagnostic d;
        d.rule = "shape-mismatch";
        d.severity = Severity::Error;
        d.subject = "shape inference";
        d.message = message;
        diagnostics.push_back(std::move(d));
    }
}

} // namespace

double
BenchmarkAudit::flopsRelativeError() const
{
    return relativeError(staticFlops, tracedFlops);
}

double
BenchmarkAudit::bytesRelativeError() const
{
    return relativeError(staticBytes, tracedBytes);
}

bool
BenchmarkAudit::clean(double tolerance) const
{
    if (staticParams != tracedParams)
        return false;
    if (flopsRelativeError() > tolerance)
        return false;
    for (const Diagnostic &d : diagnostics) {
        if (d.severity != Severity::Info)
            return false;
    }
    return true;
}

BenchmarkAudit
auditBenchmark(const core::ComponentBenchmark &benchmark,
               std::uint64_t seed)
{
    BenchmarkAudit audit;
    audit.id = benchmark.info.id;

    // Traced path: the OpCounter's own instrumented forward pass.
    const ModelComplexity traced = countOps(benchmark, seed);
    audit.tracedParams = traced.parameters;
    audit.tracedFlops = traced.forwardFlops;
    audit.tracedBytes = traced.forwardBytes;

    // Static path: capture an identical forward pass (same seed, same
    // task-construction order) and re-derive costs from the IR alone.
    seedGlobalRng(seed);
    auto task = benchmark.makeTask(seed);
    audit.staticParams = task->model().parameterCount();
    {
        graph::GraphCapture capture;
        task->forwardOnce();
        const StaticTotals totals = inferTotals(capture.graph());
        audit.staticFlops = totals.flops;
        audit.staticBytes = totals.bytesRead + totals.bytesWritten;
        audit.forwardOps = totals.ops;
        audit.modeledOps = totals.modeled;
        audit.shapeCheckedOps = totals.shapeChecked;
        appendCoverageDiagnostics(totals, audit.diagnostics);
    }

    // Lint pass: capture one full training epoch. The capture must be
    // destroyed before counting leaked nodes (it pins the tape).
    LintInput input;
    input.params = collectParams(task->model());
    const std::size_t live_before = autograd::liveNodeCount();
    {
        graph::GraphCapture capture;
        task->runEpoch();
        audit.trainingOps =
            static_cast<int>(capture.graph().ops.size());
        input.training = &capture.graph();
        const StaticTotals totals = inferTotals(capture.graph());
        appendCoverageDiagnostics(totals, audit.diagnostics);
        for (Diagnostic &d : runRules(input))
            audit.diagnostics.push_back(std::move(d));
    }
    task->model().zeroGrad();
    const std::size_t live_after = autograd::liveNodeCount();
    if (live_after > live_before) {
        static const graph::CapturedGraph kEmpty;
        LintInput leak_input;
        leak_input.training = &kEmpty;
        leak_input.leakedNodes = live_after - live_before;
        for (Diagnostic &d : runRules(leak_input))
            audit.diagnostics.push_back(std::move(d));
    }
    return audit;
}

void
writeDiagnostics(core::json::Writer &w,
                 const std::vector<Diagnostic> &diagnostics)
{
    w.beginArray();
    for (const Diagnostic &d : diagnostics) {
        w.beginObject().field("rule", d.rule);
        w.field("severity", severityName(d.severity));
        w.field("subject", d.subject).field("message", d.message);
        w.endObject();
    }
    w.endArray();
}

std::string
auditsToJson(const std::vector<BenchmarkAudit> &audits)
{
    core::json::Writer w;
    w.beginObject().field("schema", "aib.lint/1");
    w.key("benchmarks").beginArray();
    for (const BenchmarkAudit &a : audits) {
        w.beginObject().field("id", a.id);
        w.key("params").beginObject().field("static", a.staticParams);
        w.field("traced", a.tracedParams).endObject();
        w.key("flops").beginObject().field("static", a.staticFlops);
        w.field("traced", a.tracedFlops);
        w.field("relative_error", a.flopsRelativeError()).endObject();
        w.key("bytes").beginObject().field("static", a.staticBytes);
        w.field("traced", a.tracedBytes);
        w.field("relative_error", a.bytesRelativeError()).endObject();
        w.key("coverage").beginObject();
        w.field("forward_ops", a.forwardOps);
        w.field("modeled_ops", a.modeledOps);
        w.field("shape_checked_ops", a.shapeCheckedOps);
        w.field("training_ops", a.trainingOps).endObject();
        writeDiagnostics(w.key("diagnostics"), a.diagnostics);
        w.field("clean", a.clean()).endObject();
    }
    w.endArray().endObject();
    return w.str();
}

std::string
auditToText(const BenchmarkAudit &audit)
{
    std::ostringstream os;
    os << audit.id << ": "
       << (audit.clean() ? "clean" : "ISSUES FOUND") << "\n"
       << "  params  static " << audit.staticParams << " / traced "
       << audit.tracedParams << "\n"
       << "  flops   static " << audit.staticFlops << " / traced "
       << audit.tracedFlops << " (rel err "
       << audit.flopsRelativeError() << ")\n"
       << "  bytes   static " << audit.staticBytes << " / traced "
       << audit.tracedBytes << " (rel err "
       << audit.bytesRelativeError() << ")\n"
       << "  ops     forward " << audit.forwardOps << " (modeled "
       << audit.modeledOps << ", shape-checked "
       << audit.shapeCheckedOps << "), training "
       << audit.trainingOps << "\n";
    for (const Diagnostic &d : audit.diagnostics) {
        os << "  [" << severityName(d.severity) << "] " << d.rule
           << " (" << d.subject << "): " << d.message << "\n";
    }
    return os.str();
}

} // namespace aib::analysis::graphlint
