/**
 * @file
 * train-subset: the paper's early-stage measurement (Sec. 5.4). Train
 * the affordable subset (DC-AI-C1, C9, C16) from the workload seed,
 * epoch by epoch, until each member meets its target, exactly as
 * core::trainToQuality does, and time every makeTask, runEpoch and
 * evaluate from outside.
 *
 * Why these settings:
 *  - The tensor pool is pinned to 1 thread. The VM's 4 vCPUs are
 *    shared with other tenants, whose load shows as steal time. At 2
 *    threads, process CPU per subset epoch held within 4 % over five
 *    seeds while wall time spread 33 %: wall / CPU went from 0.71 to
 *    1.31 per process as host steal rose from 1 % to 25 %, because
 *    every parallelFor waits for its slowest vCPU. At 4 threads the
 *    subset took 3.9-8.3 s to target at equal CPU. At 1 thread wall ~
 *    CPU and the wall-time spread fell to 6 %. core.pool_dispatch_us
 *    .t2 / .t4 keep the pool's behaviour visible in the traced run.
 *  - Epochs-to-target depend on the seed: over seeds 1-10, C9 needs
 *    6-15 epochs, so the subset's time to quality spreads ~17 %
 *    between seeds (IQR / median). The gated time is therefore the
 *    cost of one epoch of each member (median over the run), which
 *    does not depend on the trajectory; epochs-to-target are reported
 *    as counts (9 / 10 / 33 at seed 42). A change of that count is a
 *    change of trajectory, not a speed-up.
 *  - Sessions repeat until the run's time is used, so each member's
 *    median rests on tens of epochs spread over the whole run, which
 *    absorbs the host's slow phases (0.5 s to >7 s long).
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "host.h"
#include "profiler/trace.h"
#include "stats.h"
#include "tensor/alloctrack.h"
#include "tensor/random.h"

namespace perfbench {

namespace {

const char *const kSubset[] = {"DC-AI-C1", "DC-AI-C9", "DC-AI-C16"};

/**
 * A member that has not met its target after this many epochs fails
 * the run. The runner's default cap of 40 would fail correct code:
 * over seeds 100-160 C16 needed 14-32 epochs, except seed 102, which
 * needs 42. 100 still catches training that stopped converging.
 */
constexpr int kMaxEpochs = 100;
constexpr int kPoolThreads = 1;

/** Extra makeTask rounds before training, for a steadier setup_s. */
constexpr int kSetupRounds = 3;

/** Training epochs per member in the probe other workloads make. */
constexpr int kProbeEpochs = 2;

struct EpochSample {
    double epochMs = 0.0; ///< runEpoch + evaluate
    double runMs = 0.0;
    double evalMs = 0.0;
    double cpuMs = 0.0;
    double vcsw = 0.0;
    double minflt = 0.0;
    double allocMb = 0.0;
    double launches = 0.0;
    double gflop = 0.0;
};

/** Everything measured about one member across the run. */
struct MemberStats {
    std::string id;
    std::vector<double> setupMs;
    std::vector<EpochSample> epochs;
    std::vector<int> epochsToTarget; ///< one per complete session
    std::vector<double> firstTrajectory;

    std::vector<double>
    column(double EpochSample::*field) const
    {
        std::vector<double> v;
        for (const EpochSample &e : epochs)
            v.push_back(e.*field);
        return v;
    }
};

const core::ComponentBenchmark &
benchmarkOf(const char *id)
{
    const core::ComponentBenchmark *b = core::findBenchmark(id);
    if (b == nullptr)
        throw std::runtime_error(std::string("unknown benchmark ") + id);
    return *b;
}

/** makeTask as trainToQuality calls it: global RNG reseeded first. */
std::unique_ptr<core::TrainableTask>
makeTimedTask(const core::ComponentBenchmark &b, std::uint64_t seed,
              SpanRecorder &spans, MemberStats &m)
{
    ScopedSpan span(spans, "makeTask", "models", b.info.id);
    aib::seedGlobalRng(seed);
    const auto t0 = Clock::now();
    auto task = b.makeTask(seed);
    m.setupMs.push_back(msBetween(t0, Clock::now()));
    return task;
}

/** One timed epoch: runEpoch then evaluate, with counter deltas. */
double
timedEpoch(core::TrainableTask &task, const std::string &id, bool kernels,
           SpanRecorder &spans, MemberStats &m)
{
    EpochSample s;
    profiler::TraceSession trace;
    const alloctrack::Stats a0 = alloctrack::snapshot();
    const ProcCounters c0 = selfCounters();
    const auto t0 = Clock::now();
    {
        ScopedSpan span(spans, "runEpoch", "models", id);
        if (kernels) {
            profiler::ScopedTrace scope(trace);
            task.runEpoch();
        } else {
            task.runEpoch();
        }
    }
    const auto t1 = Clock::now();
    double quality = 0.0;
    {
        ScopedSpan span(spans, "evaluate", "metrics", id);
        quality = task.evaluate();
    }
    const auto t2 = Clock::now();
    const ProcCounters c1 = selfCounters();
    const alloctrack::Stats a1 = alloctrack::snapshot();
    s.runMs = msBetween(t0, t1);
    s.evalMs = msBetween(t1, t2);
    s.epochMs = msBetween(t0, t2);
    s.cpuMs = (c1.cpuSeconds - c0.cpuSeconds) * 1e3;
    s.vcsw = static_cast<double>(c1.voluntarySwitches - c0.voluntarySwitches);
    s.minflt = static_cast<double>(c1.minorFaults - c0.minorFaults);
    s.allocMb =
        static_cast<double>(a1.totalBytes - a0.totalBytes) / (1024.0 * 1024.0);
    s.launches = static_cast<double>(trace.totalLaunches());
    s.gflop = trace.totalFlops() * 1e-9;
    m.epochs.push_back(s);
    return quality;
}

void
emitMemberLayers(const std::vector<MemberStats> &members, Outcome &out)
{
    for (const MemberStats &m : members) {
        const std::string &id = m.id;
        auto add = [&](const std::string &name, double v, const char *unit) {
            out.perLayer.push_back({name + "." + id, v, unit});
        };
        add("models.setup_ms", median(m.setupMs), "ms");
        add("models.epoch_ms", median(m.column(&EpochSample::runMs)), "ms");
        add("metrics.eval_ms", median(m.column(&EpochSample::evalMs)), "ms");
        add("tensor.launches_per_epoch",
            median(m.column(&EpochSample::launches)), "count");
        add("tensor.gflops_per_epoch", median(m.column(&EpochSample::gflop)),
            "GFLOP");
        add("tensor.alloc_mb_per_epoch",
            median(m.column(&EpochSample::allocMb)), "MiB");
        add("tensor.minflt_per_epoch", median(m.column(&EpochSample::minflt)),
            "count");
        add("core.vcsw_per_epoch", median(m.column(&EpochSample::vcsw)),
            "count");
    }
}

/** Sum over members of the median of one per-epoch field. */
double
subsetMedian(const std::vector<MemberStats> &members,
             double EpochSample::*field)
{
    double sum = 0.0;
    for (const MemberStats &m : members)
        sum += median(m.column(field));
    return sum;
}

} // namespace

void
runTrainSubset(const RunOptions &opt, SpanRecorder &spans, Outcome &out)
{
    out.threads = "tensor pool " +
                  std::to_string(core::ThreadPool::setGlobalThreads(
                      kPoolThreads));

    std::vector<MemberStats> members;
    for (const char *id : kSubset)
        members.push_back(MemberStats{id, {}, {}, {}, {}});

    // Set-up rounds: build all three members several times.
    std::vector<double> setupRounds;
    for (int r = 0; r < kSetupRounds; ++r) {
        double sum = 0.0;
        for (MemberStats &m : members) {
            makeTimedTask(benchmarkOf(m.id.c_str()), opt.seed, spans, m);
            sum += m.setupMs.back();
        }
        setupRounds.push_back(sum);
    }

    const ProcCounters c0 = selfCounters();
    const auto start = Clock::now();
    int sessions = 0;
    bool timeUp = false;
    std::vector<double> ttqMs; ///< per complete session
    double peakRssMb = 0.0;
    while (!timeUp) {
        ScopedSpan sessionSpan(spans, "session", "core",
                               std::to_string(sessions));
        double setupSum = 0.0;
        double sessionMs = 0.0;
        bool complete = true;
        for (MemberStats &m : members) {
            const core::ComponentBenchmark &b = benchmarkOf(m.id.c_str());
            auto task = makeTimedTask(b, opt.seed, spans, m);
            setupSum += m.setupMs.back();
            std::vector<double> trajectory;
            int reached = -1;
            for (int epoch = 1; epoch <= kMaxEpochs; ++epoch) {
                ++out.attempted;
                const double q =
                    timedEpoch(*task, m.id, opt.trace, spans, m);
                sessionMs += m.epochs.back().epochMs;
                trajectory.push_back(q);
                if (b.info.metTarget(q)) {
                    reached = epoch;
                    break;
                }
                if (sessions > 0 && secondsSince(start) >= opt.seconds) {
                    complete = false;
                    break;
                }
            }
            if (!complete) {
                timeUp = true;
                break;
            }
            if (reached < 0) {
                ++out.failed;
                out.fail(m.id + " did not reach its target within " +
                         std::to_string(kMaxEpochs) + " epochs (seed " +
                         std::to_string(opt.seed) + ")");
                timeUp = true;
                break;
            }
            // Same seed, same trajectory: sessions must repeat bitwise.
            if (m.epochsToTarget.empty()) {
                m.firstTrajectory = trajectory;
            } else if (trajectory.size() != m.firstTrajectory.size() ||
                       std::memcmp(trajectory.data(),
                                   m.firstTrajectory.data(),
                                   trajectory.size() * sizeof(double)) !=
                           0) {
                ++out.failed;
                out.fail(m.id + " session " + std::to_string(sessions) +
                         " diverged from session 0 at the same seed");
            }
            m.epochsToTarget.push_back(reached);
        }
        if (complete && out.errors.empty()) {
            setupRounds.push_back(setupSum);
            ttqMs.push_back(sessionMs);
        }
        // Peak memory after set-up and one whole session: later,
        // partial sessions only add heap growth whose size depends on
        // how many sessions fit the time (25.6 vs 28.9 MiB).
        if (sessions == 0)
            peakRssMb = selfCounters().peakRssMb;
        ++sessions;
        if (secondsSince(start) >= opt.seconds)
            timeUp = true;
    }
    const double wall = secondsSince(start);
    const ProcCounters c1 = selfCounters();

    const double epochMs = subsetMedian(members, &EpochSample::epochMs);
    const double cpuMs = subsetMedian(members, &EpochSample::cpuMs);
    out.endToEnd = {
        {"p50_ms", epochMs, "ms"},
        {"cpu_us_per_op", cpuMs * 1e3, "us"},
        {"setup_s", median(setupRounds) * 1e-3, "s"},
        {"peak_rss_mb", peakRssMb, "MiB"},
    };

    for (const MemberStats &m : members) {
        if (!m.epochsToTarget.empty())
            out.report.push_back({"models.epochs." + m.id,
                                  static_cast<double>(m.epochsToTarget[0]),
                                  "count"});
        out.report.push_back({"epoch_ms." + m.id,
                              median(m.column(&EpochSample::epochMs)), "ms"});
        out.report.push_back({"epoch_cpu_ms." + m.id,
                              median(m.column(&EpochSample::cpuMs)), "ms"});
    }
    out.report.push_back({"ttq_s", median(ttqMs) * 1e-3, "s"});
    out.report.push_back(
        {"sessions", static_cast<double>(sessions), "count"});
    out.report.push_back(
        {"core.cpu_per_wall", (c1.cpuSeconds - c0.cpuSeconds) / wall, "ratio"});

    if (opt.trace) {
        emitMemberLayers(members, out);
        double epochsRun = 0.0;
        for (const MemberStats &m : members)
            epochsRun += static_cast<double>(m.epochs.size());
        // One operation is one epoch of each of the three members.
        addWindowLayers(c0, c1, wall, epochsRun / 3.0, epochMs, spans, out);
    }
}

void
probeTrainingLayers(const RunOptions &opt, SpanRecorder &spans, Outcome &out)
{
    const int saved = core::ThreadPool::global().numThreads();
    core::ThreadPool::setGlobalThreads(kPoolThreads);
    std::vector<MemberStats> members;
    for (const char *id : kSubset) {
        MemberStats m{id, {}, {}, {}, {}};
        const core::ComponentBenchmark &b = benchmarkOf(id);
        auto task = makeTimedTask(b, opt.seed, spans, m);
        for (int e = 0; e < kProbeEpochs; ++e)
            timedEpoch(*task, m.id, true, spans, m);
        members.push_back(std::move(m));
    }
    emitMemberLayers(members, out);
    core::ThreadPool::setGlobalThreads(saved);
}

} // namespace perfbench
