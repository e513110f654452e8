#include "dag/scenario.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/json.h"
#include "core/registry.h"
#include "serve/endpoint.h"
#include "tensor/random.h"

namespace aib::dag {
namespace {

/** Deterministic per-stage task seed. */
std::uint64_t stageSeed(std::uint64_t seed, int stageIndex)
{
    return detail::splitmix64(
        seed + static_cast<std::uint64_t>(stageIndex + 1) *
                   0x9E3779B97F4A7C15ULL);
}

/**
 * Add a component stage: resolves the benchmark, reseeds the global
 * RNG with the derived stage seed (component constructors may draw
 * from it) and wraps it in a TaskNode. Keeping the reseed here makes
 * replica construction deterministic in any calling context.
 */
NodeId addTask(Graph &graph, const char *benchmarkId, std::uint64_t seed,
               int stageIndex, int routePool = 1024)
{
    const core::ComponentBenchmark *benchmark =
        core::findBenchmark(benchmarkId);
    if (benchmark == nullptr) {
        throw GraphError(std::string("unknown component benchmark '") +
                         benchmarkId + "'");
    }
    const std::uint64_t derived = stageSeed(seed, stageIndex);
    aib::seedGlobalRng(derived);
    return graph.add(
        std::make_unique<TaskNode>(*benchmark, derived, routePool));
}

/**
 * E-commerce search (Table 2): classify the query image, branch into
 * a detection path over fanned-out product candidates and a hash
 * embedding -> normalize -> top-k retrieval path, then rank the
 * merged candidates. A diamond: the two branches run concurrently.
 */
void buildEcommerce(Graph &g, std::uint64_t seed)
{
    const NodeId in = g.add(std::make_unique<InputNode>());
    const NodeId classify = addTask(g, "DC-AI-C1", seed, 0);
    const NodeId fan = g.add(std::make_unique<FanOutNode>(2, 1024));
    const NodeId detect = addTask(g, "DC-AI-C9", seed, 1);
    const NodeId embed = g.add(std::make_unique<HashEmbedNode>(16));
    const NodeId norm = g.add(std::make_unique<NormalizeNode>());
    const NodeId topk = g.add(std::make_unique<TopKNode>(4));
    const NodeId merge = g.add(std::make_unique<MergeNode>());
    const NodeId rank = addTask(g, "DC-AI-C16", seed, 2);
    g.connect(in, classify, 0);
    g.connect(classify, fan, 0);
    g.connect(fan, detect, 0);
    g.connect(classify, embed, 0);
    g.connect(embed, norm, 0);
    g.connect(norm, topk, 0);
    g.connect(detect, merge, 0);
    g.connect(topk, merge, 1);
    g.connect(merge, rank, 0);
}

/**
 * Content recommendation (Table 2): hash-embed the request, project
 * into candidate space, shortlist via top-k, score with collaborative
 * filtering and re-rank.
 */
void buildRecommend(Graph &g, std::uint64_t seed)
{
    const NodeId in = g.add(std::make_unique<InputNode>());
    const NodeId embed = g.add(std::make_unique<HashEmbedNode>(16));
    const NodeId project = g.add(std::make_unique<ProjectNode>(16, 8));
    const NodeId topk = g.add(std::make_unique<TopKNode>(8));
    const NodeId score = addTask(g, "DC-AI-C10", seed, 0);
    const NodeId rank = addTask(g, "DC-AI-C16", seed, 1);
    g.connect(in, embed, 0);
    g.connect(embed, project, 0);
    g.connect(project, topk, 0);
    g.connect(topk, score, 0);
    g.connect(score, rank, 0);
}

/**
 * Face login (Table 2): reconstruct the 3D face, then embed it for
 * identity matching.
 */
void buildFaceLogin(Graph &g, std::uint64_t seed)
{
    const NodeId in = g.add(std::make_unique<InputNode>());
    const NodeId face3d = addTask(g, "DC-AI-C8", seed, 0);
    const NodeId embed = addTask(g, "DC-AI-C7", seed, 1);
    g.connect(in, face3d, 0);
    g.connect(face3d, embed, 0);
}

/**
 * Media delivery (Table 2): classify the asset, fan out to delivery
 * variants and compress each. Both stages are affordable-subset-class
 * models, making this the cheapest scenario (CI runs it end-to-end).
 */
void buildMedia(Graph &g, std::uint64_t seed)
{
    const NodeId in = g.add(std::make_unique<InputNode>());
    const NodeId classify = addTask(g, "DC-AI-C1", seed, 0);
    const NodeId fan = g.add(std::make_unique<FanOutNode>(2, 512));
    const NodeId compress = addTask(g, "DC-AI-C12", seed, 1);
    g.connect(in, classify, 0);
    g.connect(classify, fan, 0);
    g.connect(fan, compress, 0);
}

/** @p spec as a servable benchmark; makeTask builds a ScenarioTask. */
core::ComponentBenchmark scenarioBenchmark(const ScenarioSpec &spec)
{
    core::ComponentBenchmark b;
    b.info.id = spec.id;
    b.info.name = spec.name;
    std::string model = "DAG(";
    for (std::size_t i = 0; i < spec.components.size(); ++i) {
        if (i > 0) {
            model += " -> ";
        }
        model += spec.components[i];
    }
    model += ")";
    b.info.model = std::move(model);
    b.info.dataset = "synthetic request stream";
    b.info.metric = "mean stage quality";
    b.info.target = 0.0;
    b.info.paperTarget = "n/a (scenario)";
    b.info.suite = core::Suite::Scenario;
    b.makeTask = [&spec](std::uint64_t seed) {
        return std::make_unique<ScenarioTask>(spec, seed);
    };
    return b;
}

} // namespace

const std::vector<ScenarioSpec> &scenarioSpecs()
{
    static const std::vector<ScenarioSpec> specs = {
        {"SCN-ECOMMERCE", "E-commerce search",
         "classify -> {detect, embed/top-k} -> merge -> rank",
         {"DC-AI-C1", "DC-AI-C9", "DC-AI-C16"}, &buildEcommerce},
        {"SCN-RECOMMEND", "Content recommendation",
         "embed -> project -> top-k -> CF score -> rank",
         {"DC-AI-C10", "DC-AI-C16"}, &buildRecommend},
        {"SCN-FACELOGIN", "Face login",
         "3D face reconstruction -> identity embedding",
         {"DC-AI-C8", "DC-AI-C7"}, &buildFaceLogin},
        {"SCN-MEDIA", "Media delivery",
         "classify -> fan-out -> compress",
         {"DC-AI-C1", "DC-AI-C12"}, &buildMedia},
    };
    return specs;
}

const ScenarioSpec *findScenarioSpec(std::string_view id)
{
    for (const ScenarioSpec &spec : scenarioSpecs()) {
        if (spec.id == id) {
            return &spec;
        }
    }
    return nullptr;
}

const std::vector<core::ComponentBenchmark> &scenarioSuite()
{
    static const std::vector<core::ComponentBenchmark> suite = [] {
        std::vector<core::ComponentBenchmark> out;
        for (const ScenarioSpec &spec : scenarioSpecs()) {
            out.push_back(scenarioBenchmark(spec));
        }
        return out;
    }();
    return suite;
}

const core::ComponentBenchmark *findScenario(std::string_view id)
{
    for (const core::ComponentBenchmark &b : scenarioSuite()) {
        if (b.info.id == id) {
            return &b;
        }
    }
    return nullptr;
}

ScenarioTask::ScenarioTask(const ScenarioSpec &spec, std::uint64_t seed,
                           int dagWorkers)
    : spec_(spec)
{
    spec_.build(graph_, seed);
    graph_.validate();
    for (NodeId id : graph_.topoOrder()) {
        if (graph_.node(id).isTask()) {
            auto *node = static_cast<TaskNode *>(&graph_.node(id));
            taskNodes_.push_back(node);
            model_.add(node->benchmarkId(), node->task().model());
        }
    }
    if (taskNodes_.empty()) {
        throw GraphError("scenario '" + spec_.id +
                         "' has no component stage");
    }
    executor_ = std::make_unique<Executor>(graph_, dagWorkers);
}

void ScenarioTask::runEpoch()
{
    for (TaskNode *node : taskNodes_) {
        node->task().runEpoch();
    }
}

double ScenarioTask::evaluate()
{
    double sum = 0.0;
    for (TaskNode *node : taskNodes_) {
        sum += node->task().evaluate();
    }
    return sum / static_cast<double>(taskNodes_.size());
}

void ScenarioTask::forwardOnce()
{
    executor_->execute({0});
}

double ScenarioTask::serveBatch(const std::vector<int> &ids)
{
    return executor_->execute(ids).digest;
}

void ScenarioTask::saveState(core::ckpt::StateWriter &out) const
{
    for (TaskNode *node : taskNodes_) {
        node->task().saveState(out);
    }
}

void ScenarioTask::loadState(core::ckpt::StateReader &in)
{
    for (TaskNode *node : taskNodes_) {
        node->task().loadState(in);
    }
}

ExecResult ScenarioTask::executeBatch(const std::vector<int> &ids)
{
    return executor_->execute(ids);
}

ScenarioRunReport runScenario(const ScenarioSpec &spec,
                              const ScenarioRunOptions &options)
{
    if (options.queries <= 0 || options.batch <= 0) {
        throw std::invalid_argument(
            "runScenario: queries and batch must be positive");
    }

    // A planned endpoint over a fixed request stream: ids
    // 0..queries-1 in batch-sized slices. Each batch digest is a pure
    // function of (spec, seed, ids) and the endpoint folds them in
    // batch order, so the digest is invariant to the worker count.
    serve::EndpointOptions eo;
    eo.workers = std::max(1, options.workers);
    eo.warmupQueries = 0;
    eo.seed = options.seed;
    eo.batching = serve::BatchingMode::Planned;
    for (int q = 0; q < options.queries; q += options.batch) {
        serve::BatchPlan batch;
        const int end = std::min(options.queries, q + options.batch);
        for (int i = q; i < end; ++i) {
            batch.ids.push_back(i);
        }
        eo.plan.push_back(std::move(batch));
    }
    const core::ComponentBenchmark benchmark = scenarioBenchmark(spec);
    serve::ServingEndpoint endpoint(benchmark, eo, nullptr);
    const auto start = std::chrono::steady_clock::now();
    serve::Request request;
    for (int id = 0; id < options.queries; ++id) {
        request.id = id;
        request.enqueue = std::chrono::steady_clock::now();
        endpoint.submit(request);
    }
    endpoint.drain();
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Per-stage statistics live in each replica's DAG executor.
    std::vector<const Executor *> executors;
    for (int w = 0; w < eo.workers; ++w) {
        executors.push_back(
            &static_cast<const ScenarioTask &>(endpoint.replica(w))
                 .executor());
    }
    ScenarioRunReport report;
    report.scenarioId = spec.id;
    report.name = spec.name;
    report.components = spec.components;
    report.queries = options.queries;
    report.batch = options.batch;
    report.workers = eo.workers;
    report.dagWorkers = executors.front()->workers();
    report.seed = options.seed;
    for (const serve::PlannedBatchResult &b : endpoint.plannedBatches()) {
        report.batchDigests.push_back(b.digest);
    }
    report.digest = endpoint.sessionDigest();
    report.wallSeconds = wallSeconds;
    report.throughputQps =
        wallSeconds > 0.0 ? options.queries / wallSeconds : 0.0;

    const Graph &graph =
        static_cast<const ScenarioTask &>(endpoint.replica(0)).graph();
    for (NodeId id : graph.topoOrder()) {
        ScenarioStageReport stage;
        stage.node = id;
        stage.stage = graph.node(id).name();
        if (graph.node(id).isTask()) {
            stage.benchmarkId =
                static_cast<const TaskNode &>(graph.node(id))
                    .benchmarkId();
        }
        profiler::TraceSession trace;
        for (const Executor *executor : executors) {
            stage.latency.merge(executor->stageLatency(id));
            trace.merge(executor->stageTrace(id));
        }
        stage.launches = trace.totalLaunches();
        stage.flops = trace.totalFlops();
        stage.bytes = trace.totalBytes();
        report.stages.push_back(std::move(stage));
    }
    for (const Executor *executor : executors) {
        report.endToEnd.merge(executor->endToEndLatency());
    }
    return report;
}

namespace {

void writeLatencyFields(core::json::Writer &w,
                        const serve::LatencyHistogram &h)
{
    w.field("count", h.count()).field("mean_ms", h.meanUs() / 1000.0);
    w.field("p50_ms", h.percentileUs(50.0) / 1000.0);
    w.field("p95_ms", h.percentileUs(95.0) / 1000.0);
    w.field("p99_ms", h.percentileUs(99.0) / 1000.0);
    w.field("max_ms", h.maxUs() / 1000.0);
}

} // namespace

std::string scenarioReportToJson(const ScenarioRunReport &report)
{
    core::json::Writer w;
    w.beginObject().field("schema", "aib.scenario/1");
    w.field("scenario", report.scenarioId).field("name", report.name);
    w.key("components").beginArray();
    for (const std::string &component : report.components) {
        w.value(component);
    }
    w.endArray().field("queries", report.queries);
    w.field("batch", report.batch).field("workers", report.workers);
    w.field("dag_workers", report.dagWorkers).field("seed", report.seed);
    w.field("digest", report.digest);
    w.field("wall_seconds", report.wallSeconds);
    w.field("throughput_qps", report.throughputQps);
    double totalFlops = 0.0;
    for (const ScenarioStageReport &stage : report.stages) {
        totalFlops += stage.flops;
    }
    w.key("end_to_end").beginObject();
    writeLatencyFields(w, report.endToEnd);
    w.endObject().key("stages").beginArray();
    for (const ScenarioStageReport &stage : report.stages) {
        w.beginObject().field("node", stage.node);
        w.field("stage", stage.stage).key("task");
        if (stage.benchmarkId.empty()) {
            w.value(nullptr);
        } else {
            w.value(stage.benchmarkId);
        }
        writeLatencyFields(w, stage.latency);
        w.field("launches", stage.launches);
        w.field("gflops", stage.flops / 1e9);
        w.field("gbytes", stage.bytes / 1e9);
        w.field("flops_share",
                totalFlops > 0.0 ? stage.flops / totalFlops : 0.0);
        w.endObject();
    }
    w.endArray().endObject();
    return w.str();
}

} // namespace aib::dag
