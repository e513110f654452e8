/**
 * @file
 * Scenario benchmarks: end-to-end application pipelines.
 *
 * The paper's Table 2 maps each component benchmark to the internet
 * services it composes into. A @c ScenarioSpec names one such
 * pipeline and builds its typed @c Graph; @c ScenarioTask wraps the
 * graph behind the ordinary @c TrainableTask interface, so a whole
 * pipeline lists, serves (open/closed/replay via @c aib::serve) and
 * replays deterministically exactly like a single component.
 *
 * Scenarios are deliberately kept in their own registry
 * (@c scenarioSuite) and NOT merged into @c core::allBenchmarks():
 * the golden-trace, lint and crash-matrix sweeps enumerate "all 24
 * components" and must not silently start training pipelines.
 */

#ifndef AIB_DAG_SCENARIO_H
#define AIB_DAG_SCENARIO_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/benchmark.h"
#include "dag/executor.h"
#include "dag/nodes.h"

namespace aib::dag {

/** One named pipeline: metadata plus its graph builder. */
struct ScenarioSpec {
    std::string id;          ///< e.g. "SCN-ECOMMERCE"
    std::string name;        ///< e.g. "E-commerce search"
    std::string description; ///< one-line summary for `aibench list`
    /** Component benchmarks composed, in stage order (Table 2). */
    std::vector<std::string> components;
    /** Wire the pipeline into @p graph (do not validate). */
    void (*build)(Graph &graph, std::uint64_t seed);
};

/** The shipped scenario catalog (stable order). */
const std::vector<ScenarioSpec> &scenarioSpecs();

/** Find a spec by id, or nullptr. */
const ScenarioSpec *findScenarioSpec(std::string_view id);

/**
 * Scenario catalog as serve-compatible @c ComponentBenchmark values
 * (suite = @c Suite::Scenario); makeTask builds a @c ScenarioTask.
 */
const std::vector<core::ComponentBenchmark> &scenarioSuite();

/** Find a scenario benchmark by id, or nullptr. */
const core::ComponentBenchmark *findScenario(std::string_view id);

/**
 * A pipeline behind the @c TrainableTask interface. Construction
 * derives a deterministic seed per task stage (reseeding the global
 * RNG before each stage factory), so replicas built with the same
 * seed are bitwise clones — the serve engine's replica contract.
 */
class ScenarioTask : public core::TrainableTask
{
  public:
    ScenarioTask(const ScenarioSpec &spec, std::uint64_t seed,
                 int dagWorkers = 2);

    /** One training epoch on every component stage, in topo order. */
    void runEpoch() override;
    /** Mean quality over component stages. */
    double evaluate() override;
    /**
     * Every component stage's model as one module tree, each stage a
     * child named by its benchmark id ("DC-AI-C1.stem.weight"), so
     * parameter counts, resident sets and zeroGrad span the pipeline.
     */
    nn::Module &model() override { return model_; }
    void forwardOnce() override;
    double serveBatch(const std::vector<int> &ids) override;
    bool supportsBatchedServe() const override { return true; }
    void saveState(core::ckpt::StateWriter &out) const override;
    void loadState(core::ckpt::StateReader &in) override;

    /** Execute one batch and return the full per-stage result. */
    ExecResult executeBatch(const std::vector<int> &ids);

    const ScenarioSpec &spec() const { return spec_; }
    const Graph &graph() const { return graph_; }
    const Executor &executor() const { return *executor_; }
    const std::vector<TaskNode *> &taskNodes() const { return taskNodes_; }

  private:
    /** Non-owning parent of the stage models (see model()). */
    struct StageModels : nn::Module {
        void add(const std::string &id, nn::Module &stage)
        {
            registerModule(id, &stage);
        }
    };

    const ScenarioSpec &spec_;
    Graph graph_;
    std::vector<TaskNode *> taskNodes_; ///< borrowed, topo order
    StageModels model_;
    std::unique_ptr<Executor> executor_;
};

/** Options for a standalone scenario run (`aibench scenario --run`). */
struct ScenarioRunOptions {
    int queries = 64;    ///< total requests, ids 0..queries-1
    int batch = 8;       ///< fixed request-batch size
    int workers = 2;     ///< pipeline replicas served in parallel
    std::uint64_t seed = 42;
};

/** Per-stage slice of a scenario run report (topo order). */
struct ScenarioStageReport {
    NodeId node = -1;
    std::string stage;       ///< node name
    std::string benchmarkId; ///< component id, empty for transforms
    serve::LatencyHistogram latency;
    std::uint64_t launches = 0;
    double flops = 0.0;
    double bytes = 0.0;
};

/** Result of a standalone scenario run. */
struct ScenarioRunReport {
    std::string scenarioId;
    std::string name;
    std::vector<std::string> components;
    int queries = 0;
    int batch = 0;
    int workers = 0;
    int dagWorkers = 0; ///< stage workers inside each replica
    std::uint64_t seed = 0;

    /** Fixed batch-order fold over per-batch digests. */
    double digest = 0.0;
    /** Per-batch scenario digests, in batch order. */
    std::vector<double> batchDigests;

    std::vector<ScenarioStageReport> stages; ///< topo order
    serve::LatencyHistogram endToEnd;
    double wallSeconds = 0.0;
    double throughputQps = 0.0;
};

/**
 * Run @p spec over a fixed request stream on a planned
 * @c serve::ServingEndpoint: @c workers replicas (each with the
 * @c ScenarioTask default of DAG workers) are built
 * deterministically, every id is submitted, and the report's digest
 * is bitwise invariant to @c workers.
 */
ScenarioRunReport runScenario(const ScenarioSpec &spec,
                              const ScenarioRunOptions &options);

/** The aib.scenario/1 JSON document (per-stage latency/FLOP split). */
std::string scenarioReportToJson(const ScenarioRunReport &report);

} // namespace aib::dag

#endif // AIB_DAG_SCENARIO_H
