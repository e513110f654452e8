#include "net/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/bytes.h"
#include "core/sysio.h"
#include "net/framing.h"
#include "serve/loadgen.h"

namespace aib::net {

namespace {

namespace by = core::bytes;
using Clock = std::chrono::steady_clock;

/** "AIBW": magic of a worker result blob on the parent pipe. */
constexpr std::uint32_t kWorkerMagic = 0x57424941u;
constexpr std::uint16_t kWorkerVersion = 1;

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Outcome of one connection's session. */
struct ConnOutcome {
    serve::LatencyHistogram latency;
    std::uint64_t sent = 0;
    std::uint64_t replies = 0;
    std::uint64_t shed = 0;
    std::uint64_t lateSends = 0;
    double maxLatenessUs = 0.0;
    bool fatal = false; ///< handshake/transport failure
    /** (batchIndex, digest) pairs observed in Reply frames. */
    std::vector<std::pair<std::uint64_t, double>> batchDigests;
};

/** Everything one worker ships to the parent. */
struct WorkerOutcome {
    serve::LatencyHistogram latency;
    std::uint64_t sent = 0;
    std::uint64_t replies = 0;
    std::uint64_t shed = 0;
    std::uint64_t fatalConns = 0;
    std::uint64_t lateSends = 0;
    double maxLatenessUs = 0.0;
    double wallSeconds = 0.0;
    std::map<std::uint64_t, double> batchDigests;
    bool digestConflict = false;
};

std::string
encodeWorkerOutcome(const WorkerOutcome &w)
{
    std::string out;
    by::putU32(&out, kWorkerMagic);
    by::putU16(&out, kWorkerVersion);
    by::putU64(&out, w.sent);
    by::putU64(&out, w.replies);
    by::putU64(&out, w.shed);
    by::putU64(&out, w.fatalConns);
    by::putU64(&out, w.lateSends);
    by::putF64(&out, w.maxLatenessUs);
    by::putF64(&out, w.wallSeconds);
    out.push_back(w.digestConflict ? 1 : 0);
    by::putU32(&out, static_cast<std::uint32_t>(w.batchDigests.size()));
    for (const auto &[index, digest] : w.batchDigests) {
        by::putU64(&out, index);
        by::putF64(&out, digest);
    }
    const std::string hist = w.latency.encode();
    by::putU32(&out, static_cast<std::uint32_t>(hist.size()));
    out.append(hist);
    return out;
}

bool
decodeWorkerOutcome(const std::string &bytes, WorkerOutcome *out,
                    std::string *error)
{
    const auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    by::Reader in(bytes);
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    if (!in.getU32(&magic) || !in.getU16(&version))
        return fail("worker blob: truncated header");
    if (magic != kWorkerMagic)
        return fail("worker blob: bad magic");
    if (version != kWorkerVersion)
        return fail("worker blob: unsupported version");
    WorkerOutcome w;
    std::uint8_t conflict = 0;
    if (!in.getU64(&w.sent) || !in.getU64(&w.replies) ||
        !in.getU64(&w.shed) || !in.getU64(&w.fatalConns) ||
        !in.getU64(&w.lateSends) || !in.getF64(&w.maxLatenessUs) ||
        !in.getF64(&w.wallSeconds) || !in.getU8(&conflict))
        return fail("worker blob: truncated counters");
    w.digestConflict = conflict != 0;
    std::uint32_t nBatches = 0;
    if (!in.getU32(&nBatches))
        return fail("worker blob: truncated digest count");
    for (std::uint32_t i = 0; i < nBatches; ++i) {
        std::uint64_t index = 0;
        double digest = 0.0;
        if (!in.getU64(&index) || !in.getF64(&digest))
            return fail("worker blob: truncated digest entry");
        w.batchDigests[index] = digest;
    }
    std::uint32_t histLen = 0;
    std::string hist;
    if (!in.getU32(&histLen) || !in.getBytes(&hist, histLen))
        return fail("worker blob: truncated histogram");
    std::string histErr;
    if (!serve::LatencyHistogram::decode(hist, &w.latency, &histErr)) {
        if (error)
            *error = "worker blob: " + histErr;
        return false;
    }
    if (in.remaining() != 0)
        return fail("worker blob: trailing bytes");
    *out = std::move(w);
    return true;
}

/** Shared, read-only run plan every connection works from. */
struct RunPlan {
    const NetBenchOptions *options = nullptr;
    std::vector<double> trace; ///< open loop arrival offsets (us)
    Clock::time_point start{};
};

HelloMsg
helloFor(const NetBenchOptions &o)
{
    HelloMsg m;
    m.benchmarkId = o.benchmarkId;
    m.seed = o.seed;
    m.queries = static_cast<std::uint32_t>(o.queries);
    m.qps = o.qps;
    m.maxBatch = static_cast<std::uint32_t>(o.policy.maxBatch);
    m.maxDelayUs = static_cast<std::uint64_t>(o.policy.maxDelayUs);
    m.batching =
        o.batching == serve::BatchingMode::Planned ? 1 : 0;
    return m;
}

/** Read one frame after a POLLIN; false aborts the connection. */
bool
nextServerFrame(int fd, Frame *frame)
{
    std::string err;
    return readFrame(fd, frame, &err) == IoStatus::Ok;
}

/** True when @p fd turns readable within @p timeoutMs. Every read
 *  that could otherwise block forever (handshake, Bye skim) waits
 *  through here first, so a server that stops mid-conversation costs
 *  a bounded timeout, never a hang. */
bool
readableWithin(int fd, int timeoutMs)
{
    pollfd pfd{fd, POLLIN, 0};
    for (;;) {
        const int n = ::poll(&pfd, 1, timeoutMs);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        return n > 0;
    }
}

/**
 * Process one server frame mid-run. Returns false on a
 * connection-fatal condition. @p resolved counts queries that will
 * never need further waiting (replied or request-scoped error).
 */
bool
absorbFrame(const Frame &frame, const RunPlan &plan,
            const std::unordered_map<std::uint64_t, Clock::time_point>
                &sendTimes,
            ConnOutcome *out, std::uint64_t *resolved)
{
    const NetBenchOptions &o = *plan.options;
    if (frame.type == FrameType::Reply) {
        ReplyMsg r;
        if (!decodeReply(frame.payload, &r))
            return false;
        // Wire requestId is the exemplar id + 1 (0 is reserved for
        // connection-fatal errors).
        if (r.requestId == 0 ||
            r.requestId > static_cast<std::uint64_t>(o.queries))
            return false;
        double latencyUs;
        if (o.mode == LoadMode::Open) {
            // From the *scheduled* arrival, not the actual send: a
            // late client inflates, never hides, latency.
            const auto scheduled =
                plan.start +
                std::chrono::microseconds(static_cast<long>(
                    plan.trace[static_cast<std::size_t>(
                        r.requestId - 1)]));
            latencyUs = std::chrono::duration<double, std::micro>(
                            Clock::now() - scheduled)
                            .count();
        } else {
            const auto it = sendTimes.find(r.requestId);
            latencyUs =
                it == sendTimes.end()
                    ? 0.0
                    : std::chrono::duration<double, std::micro>(
                          Clock::now() - it->second)
                          .count();
        }
        out->latency.record(latencyUs);
        out->replies += 1;
        *resolved += 1;
        if (r.batchIndexPlus1 > 0)
            out->batchDigests.emplace_back(r.batchIndexPlus1 - 1,
                                           r.batchDigest);
        return true;
    }
    if (frame.type == FrameType::Error) {
        ErrorMsg e;
        if (!decodeError(frame.payload, &e))
            return false;
        if (e.requestId == 0)
            return false; // connection-fatal
        out->shed += 1;
        *resolved += 1;
        return true;
    }
    // HelloAck/ByeAck handled at the edges; anything else here is a
    // protocol violation.
    return false;
}

ConnOutcome
runConnection(const RunPlan &plan, int connIndex)
{
    const NetBenchOptions &o = *plan.options;
    ConnOutcome out;
    std::string err;
    const int fd = connectTcp(o.host, o.port, &err);
    if (fd < 0) {
        out.fatal = true;
        return out;
    }

    // Handshake.
    if (writeFrame(fd, encodeHello(helloFor(o))) != IoStatus::Ok) {
        out.fatal = true;
        ::close(fd);
        return out;
    }
    Frame frame;
    if (!readableWithin(fd, static_cast<int>(o.replyTimeoutMs)) ||
        readFrame(fd, &frame) != IoStatus::Ok ||
        frame.type != FrameType::HelloAck) {
        out.fatal = true;
        ::close(fd);
        return out;
    }

    // The ids this connection owns, ascending (so open-loop
    // scheduled times are ascending too).
    std::vector<int> mine;
    for (int i = connIndex; i < o.queries; i += o.connections)
        mine.push_back(i);

    std::unordered_map<std::uint64_t, Clock::time_point> sendTimes;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(o.replyTimeoutMs);
    std::uint64_t resolved = 0;
    std::size_t sendIdx = 0;
    bool ok = true;

    const auto sendQuery = [&](int id) {
        QueryMsg q;
        // +1: requestId 0 means "connection-fatal" in Error frames,
        // so exemplar 0 must not travel as requestId 0.
        q.requestId = static_cast<std::uint64_t>(id) + 1;
        q.exemplar = static_cast<std::uint32_t>(id);
        if (o.mode == LoadMode::Closed)
            sendTimes[q.requestId] = Clock::now();
        if (writeFrame(fd, encodeQuery(q)) != IoStatus::Ok)
            return false;
        out.sent += 1;
        return true;
    };

    // Waits with microsecond resolution: the open loop's gaps are
    // mostly under a millisecond, and a millisecond poll would turn
    // each into a zero timeout and spin.
    const auto pump = [&](std::chrono::microseconds wait) {
        pollfd pfd{fd, POLLIN, 0};
        const timespec ts{static_cast<time_t>(wait.count() / 1000000),
                          static_cast<long>(wait.count() % 1000000) *
                              1000};
        const int n = ::ppoll(&pfd, 1, &ts, nullptr);
        if (n < 0)
            return errno == EINTR;
        if (n == 0)
            return true;
        if (!nextServerFrame(fd, &frame))
            return false;
        return absorbFrame(frame, plan, sendTimes, &out, &resolved);
    };

    if (o.mode == LoadMode::Open) {
        while (ok && (sendIdx < mine.size() ||
                      resolved < mine.size())) {
            if (Clock::now() > deadline)
                break;
            if (sendIdx < mine.size()) {
                const int id = mine[sendIdx];
                const auto scheduled =
                    plan.start +
                    std::chrono::microseconds(static_cast<long>(
                        plan.trace[static_cast<std::size_t>(id)]));
                const auto now = Clock::now();
                if (now >= scheduled) {
                    const double latenessUs =
                        std::chrono::duration<double, std::micro>(
                            now - scheduled)
                            .count();
                    if (latenessUs > o.lateThresholdUs) {
                        out.lateSends += 1;
                        out.maxLatenessUs =
                            std::max(out.maxLatenessUs, latenessUs);
                    }
                    ok = sendQuery(id);
                    sendIdx += 1;
                    continue;
                }
                ok = pump(std::min<std::chrono::microseconds>(
                    std::chrono::ceil<std::chrono::microseconds>(
                        scheduled - now),
                    std::chrono::milliseconds(5)));
                continue;
            }
            ok = pump(std::chrono::milliseconds(50));
        }
    } else {
        const int inflight = std::max(1, o.inflight);
        while (ok && resolved < mine.size()) {
            if (Clock::now() > deadline)
                break;
            while (ok && sendIdx < mine.size() &&
                   sendIdx - resolved <
                       static_cast<std::size_t>(inflight)) {
                ok = sendQuery(mine[sendIdx]);
                sendIdx += 1;
            }
            if (ok)
                ok = pump(std::chrono::milliseconds(50));
        }
    }
    if (!ok)
        out.fatal = true;

    // Graceful goodbye: ask for the server's view, skim stray
    // replies until the ByeAck (or give up quickly).
    if (ok && writeFrame(fd, encodeBye({out.sent})) == IoStatus::Ok) {
        for (int spins = 0; spins < 64; ++spins) {
            if (!readableWithin(fd, 250) ||
                readFrame(fd, &frame) != IoStatus::Ok)
                break;
            if (frame.type == FrameType::ByeAck)
                break;
            if (!absorbFrame(frame, plan, sendTimes, &out, &resolved))
                break;
        }
    }
    ::close(fd);
    return out;
}

/** Run every connection of worker @p workerIndex on threads and
 *  merge the outcomes. */
WorkerOutcome
runWorker(const RunPlan &plan, int workerIndex, int numWorkers)
{
    const NetBenchOptions &o = *plan.options;
    const auto t0 = Clock::now();
    std::vector<int> myConns;
    for (int c = workerIndex; c < o.connections; c += numWorkers)
        myConns.push_back(c);

    std::vector<ConnOutcome> outcomes(myConns.size());
    std::vector<std::thread> threads;
    threads.reserve(myConns.size());
    for (std::size_t k = 0; k < myConns.size(); ++k)
        threads.emplace_back([&plan, &outcomes, &myConns, k] {
            outcomes[k] = runConnection(plan, myConns[k]);
        });
    for (std::thread &t : threads)
        t.join();

    WorkerOutcome w;
    for (const ConnOutcome &c : outcomes) {
        w.latency.merge(c.latency);
        w.sent += c.sent;
        w.replies += c.replies;
        w.shed += c.shed;
        w.lateSends += c.lateSends;
        w.maxLatenessUs = std::max(w.maxLatenessUs, c.maxLatenessUs);
        if (c.fatal)
            w.fatalConns += 1;
        for (const auto &[index, digest] : c.batchDigests) {
            const auto it = w.batchDigests.find(index);
            if (it == w.batchDigests.end())
                w.batchDigests[index] = digest;
            else if (bitsOf(it->second) != bitsOf(digest))
                w.digestConflict = true;
        }
    }
    w.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return w;
}

/** Idle-loop calibration: cost of one send-loop iteration (frame
 *  encode + two clock reads), without any socket. */
double
calibrateOpUs()
{
    constexpr int kIters = 4000;
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
        QueryMsg q;
        q.requestId = static_cast<std::uint64_t>(i);
        q.exemplar = static_cast<std::uint32_t>(i);
        sink += encodeQuery(q).size();
        sink += static_cast<std::size_t>(
            Clock::now().time_since_epoch().count() & 1);
    }
    const auto t1 = Clock::now();
    // Keep the loop observable so it cannot be optimized away.
    if (sink == 0)
        return 0.0;
    return std::chrono::duration<double, std::micro>(t1 - t0)
               .count() /
           kIters;
}

void
validate(const NetBenchOptions &o)
{
    if (o.connections < 1)
        throw std::invalid_argument("netbench: connections must be >= 1");
    if (o.queries < 1)
        throw std::invalid_argument("netbench: queries must be >= 1");
    if (o.processes < 0)
        throw std::invalid_argument("netbench: processes must be >= 0");
    if (o.mode == LoadMode::Open && o.qps <= 0.0)
        throw std::invalid_argument("netbench: open loop needs qps > 0");
    if (o.batching == serve::BatchingMode::Planned &&
        o.mode != LoadMode::Open)
        throw std::invalid_argument(
            "netbench: planned batching requires open-loop mode "
            "(the plan is derived from the arrival trace)");
    if (o.port <= 0)
        throw std::invalid_argument("netbench: port must be set");
}

} // namespace

NetBenchResult
runNetBench(const NetBenchOptions &options)
{
    validate(options);
    core::sysio::ignoreSigpipe();

    RunPlan plan;
    plan.options = &options;
    if (options.mode == LoadMode::Open)
        plan.trace = serve::poissonTrace(options.seed, options.qps,
                                         options.queries);

    NetBenchResult result;
    result.calibrationOpUs = calibrateOpUs();
    if (options.mode == LoadMode::Open) {
        result.meanGapUs = 1e6 *
                           static_cast<double>(options.connections) /
                           options.qps;
        result.headroom =
            result.calibrationOpUs > 0.0
                ? result.meanGapUs / result.calibrationOpUs
                : 1e9;
    }

    const int numWorkers =
        options.processes > 0
            ? options.processes
            : std::max(1, std::min(2, options.connections));

    // All workers pace against one shared start instant, so the
    // global Poisson schedule is preserved across processes.
    plan.start = Clock::now() + std::chrono::milliseconds(250);

    std::vector<WorkerOutcome> outcomes;
    if (options.processes == 0) {
        // In-thread workers: same code path, no fork — what the
        // sanitizer-tiered tests run.
        std::vector<std::string> blobs(
            static_cast<std::size_t>(numWorkers));
        std::vector<std::thread> threads;
        for (int wi = 0; wi < numWorkers; ++wi)
            threads.emplace_back([&plan, &blobs, wi, numWorkers] {
                blobs[static_cast<std::size_t>(wi)] =
                    encodeWorkerOutcome(
                        runWorker(plan, wi, numWorkers));
            });
        for (std::thread &t : threads)
            t.join();
        for (const std::string &blob : blobs) {
            WorkerOutcome w;
            std::string err;
            if (!decodeWorkerOutcome(blob, &w, &err))
                throw std::runtime_error("netbench: " + err);
            outcomes.push_back(std::move(w));
        }
    } else {
        // Forked workers. Fork happens before any thread exists in
        // this process; each child ships one result blob back on
        // its pipe and exits without running parent cleanups.
        struct Child {
            pid_t pid = -1;
            int pipeRead = -1;
        };
        std::vector<Child> children;
        for (int wi = 0; wi < numWorkers; ++wi) {
            int fds[2];
            if (::pipe(fds) != 0)
                throw std::runtime_error("netbench: pipe failed");
            const pid_t pid = ::fork();
            if (pid < 0) {
                ::close(fds[0]);
                ::close(fds[1]);
                throw std::runtime_error("netbench: fork failed");
            }
            if (pid == 0) {
                ::close(fds[0]);
                const std::string blob = encodeWorkerOutcome(
                    runWorker(plan, wi, numWorkers));
                (void)core::sysio::writeFull(fds[1], blob.data(),
                                             blob.size());
                ::close(fds[1]);
                ::_exit(0);
            }
            ::close(fds[1]);
            children.push_back({pid, fds[0]});
        }
        for (const Child &child : children) {
            std::string blob;
            char buf[1 << 16];
            for (;;) {
                const ssize_t n =
                    ::read(child.pipeRead, buf, sizeof(buf));
                if (n > 0) {
                    blob.append(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                break;
            }
            ::close(child.pipeRead);
            int status = 0;
            pid_t rc;
            do {
                rc = ::waitpid(child.pid, &status, 0);
            } while (rc < 0 && errno == EINTR);
            WorkerOutcome w;
            std::string err;
            if (!decodeWorkerOutcome(blob, &w, &err))
                throw std::runtime_error(
                    "netbench: worker result unreadable (" + err +
                    ")");
            outcomes.push_back(std::move(w));
        }
    }

    // Merge: the histogram codec + merge associativity make this
    // bitwise-equal to recording everything in one process.
    std::map<std::uint64_t, double> digests;
    bool digestConflict = false;
    std::uint64_t fatalConns = 0;
    for (const WorkerOutcome &w : outcomes) {
        result.latency.merge(w.latency);
        result.workersMerged += 1;
        result.sent += w.sent;
        result.replies += w.replies;
        result.shed += w.shed;
        result.lateSends += w.lateSends;
        result.maxLatenessUs =
            std::max(result.maxLatenessUs, w.maxLatenessUs);
        result.wallSeconds =
            std::max(result.wallSeconds, w.wallSeconds);
        fatalConns += w.fatalConns;
        digestConflict |= w.digestConflict;
        for (const auto &[index, digest] : w.batchDigests) {
            const auto it = digests.find(index);
            if (it == digests.end())
                digests[index] = digest;
            else if (bitsOf(it->second) != bitsOf(digest))
                digestConflict = true;
        }
    }
    result.errors = fatalConns;
    if (fatalConns >=
        static_cast<std::uint64_t>(options.connections))
        throw std::runtime_error(
            "netbench: every connection failed — is the server "
            "running on " +
            options.host + ":" + std::to_string(options.port) + "?");

    if (options.batching == serve::BatchingMode::Planned &&
        options.mode == LoadMode::Open) {
        const std::vector<serve::BatchPlan> plannedBatches =
            serve::planBatches(plan.trace, options.policy);
        bool complete = !digestConflict &&
                        digests.size() == plannedBatches.size();
        double fold = 0.0;
        for (std::size_t b = 0; b < plannedBatches.size(); ++b) {
            const auto it = digests.find(b);
            if (it == digests.end()) {
                complete = false;
                continue;
            }
            fold += it->second;
        }
        result.digest = fold;
        result.digestComplete = complete;
    }

    result.lateFraction =
        result.sent > 0 ? static_cast<double>(result.lateSends) /
                              static_cast<double>(result.sent)
                        : 0.0;
    // Bottleneck = the *generator* cannot keep up (send-loop cost
    // eats the inter-arrival gap). Late sends alone don't qualify:
    // on a shared box the server's own worker threads cause
    // scheduling lateness even when the client has huge headroom,
    // so lateness stays a reported diagnostic, not a verdict.
    if (options.mode == LoadMode::Open)
        result.clientBottleneck =
            result.headroom < options.minHeadroom;
    return result;
}

} // namespace aib::net
