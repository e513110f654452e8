/**
 * @file
 * net-recommend: SCN-RECOMMEND (embed -> project -> top-k -> C10 ->
 * C16, ~2 us of compute per request) hosted by net::NetServer in a
 * child process (epoll IO, dynamic batching, 2 workers), driven over
 * loopback by one client thread on 4 connections.
 *
 * Why these settings:
 *  - Compute is negligible, so framing and IO in `net`, admission and
 *    batching in `serve` and stage hand-offs in `dag` do almost all
 *    the work: ~25 us of server CPU and ~1.6 voluntary context
 *    switches per request, the opposite split from serve-ecommerce.
 *  - Open loop, seeded Poisson at 5,000 req/s. The server sheds from
 *    ~20,000 req/s; 5,000 stays well clear. Peak (closed-loop)
 *    throughput is not measured: one client thread with 4 x 8 in
 *    flight got 80k-160k req/s while itself 52-97 % busy, so it
 *    measured the client.
 *  - The server runs in its own process, so its CPU, context
 *    switches and syscalls are read from /proc/<pid> without the
 *    client's. Its set-up is timed from the start of the process to
 *    the 4th HelloAck.
 *  - The window is cut into blocks and the median block is reported:
 *    p50 over 8-s runs ranged 1.07-1.28 ms and server CPU per request
 *    moved between 24-27 and 32-35 us with the host's slow phases.
 */

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/thread_pool.h"
#include "dag/scenario.h"
#include "host.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/loadgen.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr const char *kScenario = "SCN-RECOMMEND";
constexpr int kConnections = 4;
constexpr int kWorkers = 2;
constexpr int kMaxBatch = 8;
constexpr long kMaxDelayUs = 2000;
constexpr double kQps = 5000.0;
/** Admission high-water: a 0.8-s host stall at kQps fits, so no shed. */
constexpr int kQueueCapacity = 4096;
constexpr int kSetupRounds = 8;
constexpr int kBlocks = 8;
constexpr double kWarmupS = 0.5;
/** In traced runs, one request in this many gets a life span. */
constexpr std::uint64_t kSpanEvery = 16;
/** An open-loop generator that runs later than this is invalid. */
constexpr double kMaxLateP50Ms = 0.5;

net::HelloMsg
hello(std::uint64_t seed)
{
    net::HelloMsg m;
    m.benchmarkId = kScenario;
    m.seed = seed;
    m.maxBatch = kMaxBatch;
    m.maxDelayUs = kMaxDelayUs;
    m.batching = 0; // dynamic
    return m;
}

/** A netserve child process: stdin closes -> drain and exit. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &self, std::uint64_t seed)
    {
        int toChild[2], fromChild[2];
        if (pipe(toChild) != 0 || pipe(fromChild) != 0)
            throw std::runtime_error("pipe failed");
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            dup2(toChild[0], STDIN_FILENO);
            dup2(fromChild[1], STDOUT_FILENO);
            close(toChild[0]);
            close(toChild[1]);
            close(fromChild[0]);
            close(fromChild[1]);
            const std::string seedText = std::to_string(seed);
            execl(self.c_str(), self.c_str(), "netserve-child", "--seed",
                  seedText.c_str(), static_cast<char *>(nullptr));
            _exit(127);
        }
        close(toChild[0]);
        close(fromChild[1]);
        stdin_ = toChild[1];
        stdout_ = fromChild[0];
    }

    ~ServerProcess()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
        if (stdin_ >= 0)
            close(stdin_);
        if (stdout_ >= 0)
            close(stdout_);
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    pid_t pid() const { return pid_; }

    /** Next line the child prints, or "" after @p timeoutMs. */
    std::string
    readLine(int timeoutMs)
    {
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(timeoutMs);
        for (;;) {
            const std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return line;
            }
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline - Clock::now());
            if (left.count() <= 0)
                return {};
            pollfd p{stdout_, POLLIN, 0};
            if (poll(&p, 1, static_cast<int>(left.count())) <= 0)
                continue;
            char chunk[512];
            const ssize_t n = read(stdout_, chunk, sizeof chunk);
            if (n <= 0)
                return {};
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** Close the child's stdin, read its summary line, reap it. */
    std::string
    stop()
    {
        close(stdin_);
        stdin_ = -1;
        std::string summary = readLine(10000);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return summary;
    }

  private:
    pid_t pid_ = -1;
    int stdin_ = -1;
    int stdout_ = -1;
    std::string buffer_;
};

/** connectTcp + Hello -> HelloAck; returns the fd or -1. */
int
connectAndGreet(int port, std::uint64_t seed)
{
    std::string err;
    const int fd = net::connectTcp("127.0.0.1", port, &err);
    if (fd < 0)
        return -1;
    net::Frame frame;
    pollfd p{fd, POLLIN, 0};
    if (net::writeFrame(fd, net::encodeHello(hello(seed))) !=
            net::IoStatus::Ok ||
        poll(&p, 1, 10000) != 1 ||
        net::readFrame(fd, &frame) != net::IoStatus::Ok ||
        frame.type != net::FrameType::HelloAck) {
        close(fd);
        return -1;
    }
    return fd;
}

struct Sample {
    Ns scheduled = 0;
    Ns sent = 0;
    Ns replied = 0;
    double serverUs = 0.0;
    int batchSize = 0;
    int replies = 0;
    bool error = false;
};

} // namespace

int
netServerMain(int argc, char **argv)
{
    std::uint64_t seed = 42;
    for (int i = 0; i + 1 < argc; i += 2)
        if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::strtoull(argv[i + 1], nullptr, 10);
    const core::ComponentBenchmark *scn = dag::findScenario(kScenario);
    if (scn == nullptr)
        return 2;
    core::ThreadPool::setGlobalThreads(1);
    net::NetServerOptions o;
    o.io = net::IoMode::Epoll;
    o.maxConnections = 16;
    o.endpoint.workers = kWorkers;
    o.endpoint.queueCapacity = kQueueCapacity;
    o.endpoint.policy.maxBatch = kMaxBatch;
    o.endpoint.policy.maxDelayUs = kMaxDelayUs;
    o.endpoint.seed = seed;
    o.endpoint.batching = serve::BatchingMode::Dynamic;
    net::NetServer server(*scn, o);
    server.start();
    std::printf("port %d\n", server.boundPort());
    std::fflush(stdout);
    char c;
    while (read(STDIN_FILENO, &c, 1) > 0) {
    }
    const net::NetServerStats stats = server.stop();
    std::printf("completed %llu shed %llu\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.shed));
    std::fflush(stdout);
    return 0;
}

void
runNetRecommend(const RunOptions &opt, SpanRecorder &spans, Outcome &out)
{
    out.threads = "client: 1 generator on " + std::to_string(kConnections) +
                  " connections; server: epoll IO, " +
                  std::to_string(kWorkers) +
                  " workers x 2 DAG workers, tensor pool 1";
    signal(SIGPIPE, SIG_IGN);

    // ---- set-up: process start -> listening -> 4 HelloAcks ----
    std::vector<double> setupS, connectMs;
    std::unique_ptr<ServerProcess> server;
    std::vector<int> fds;
    for (int r = 0; r < kSetupRounds; ++r) {
        for (const int fd : fds)
            close(fd);
        fds.clear();
        if (server) {
            server->stop();
            server.reset();
        }
        ScopedSpan span(spans, "setup", "net", std::to_string(r));
        const auto t0 = Clock::now();
        server = std::make_unique<ServerProcess>(opt.selfPath, opt.seed);
        const std::string line = server->readLine(30000);
        int port = 0;
        if (std::sscanf(line.c_str(), "port %d", &port) != 1 || port <= 0)
            throw std::runtime_error("netserve child did not report a port");
        for (int c = 0; c < kConnections; ++c) {
            ScopedSpan connect(spans, "connect", "net");
            const auto c0 = Clock::now();
            const int fd = connectAndGreet(port, opt.seed);
            connectMs.push_back(msBetween(c0, Clock::now()));
            ++out.attempted;
            if (fd < 0) {
                ++out.failed;
                out.fail("connect/Hello to the netserve child failed");
                return;
            }
            fds.push_back(fd);
        }
        setupS.push_back(secondsSince(t0));
    }
    const pid_t pid = server->pid();

    // ---- the load: one thread, open loop, 4 connections ----
    prctl(PR_SET_TIMERSLACK, 1UL);
    const std::size_t total = static_cast<std::size_t>(
        kQps * (opt.seconds + kWarmupS) * 1.2 + 1000);
    const std::vector<double> arrivalsUs =
        serve::poissonTrace(opt.seed, kQps, static_cast<int>(total));
    // The server routes completions by exemplar, so exemplars in
    // flight must differ: consecutive ids from a seeded base.
    const std::uint32_t exemplarBase =
        static_cast<std::uint32_t>((opt.seed * 2654435761u) % (1u << 20));
    std::vector<Sample> samples(total);
    std::vector<net::FrameParser> parsers(kConnections);
    std::vector<double> lateMs;
    std::uint64_t outstanding = 0, errors = 0, strays = 0;

    // Wait up to timeoutUs for replies and take in all that arrived.
    auto drainReplies = [&](long timeoutUs) {
        std::vector<pollfd> pfds;
        for (const int fd : fds)
            pfds.push_back({fd, POLLIN, 0});
        const timespec ts{timeoutUs / 1000000, (timeoutUs % 1000000) * 1000};
        if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
            return;
        const Ns now = spans.now();
        for (std::size_t c = 0; c < pfds.size(); ++c) {
            if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[16384];
            const ssize_t n = read(pfds[c].fd, buf, sizeof buf);
            if (n <= 0)
                continue;
            parsers[c].feed(buf, static_cast<std::size_t>(n));
            net::Frame frame;
            while (parsers[c].next(&frame) ==
                   net::FrameParser::Result::Frame) {
                if (frame.type == net::FrameType::Reply) {
                    net::ReplyMsg r;
                    if (!net::decodeReply(frame.payload, &r) ||
                        r.requestId == 0 || r.requestId > total) {
                        ++strays;
                        continue;
                    }
                    Sample &s = samples[r.requestId - 1];
                    if (s.replies++ == 0 && !s.error) {
                        s.replied = now;
                        s.serverUs = r.serverLatencyUs;
                        s.batchSize = static_cast<int>(r.batchSize);
                        --outstanding;
                    }
                } else if (frame.type == net::FrameType::Error) {
                    net::ErrorMsg e;
                    ++errors;
                    if (net::decodeError(frame.payload, &e) &&
                        e.requestId > 0 && e.requestId <= total) {
                        Sample &s = samples[e.requestId - 1];
                        if (!s.error && s.replies == 0)
                            --outstanding;
                        s.error = true;
                    }
                } else {
                    ++strays;
                }
            }
        }
    };

    struct BlockMark {
        std::size_t firstSeq;
        ProcCounters server;
        Clock::time_point at;
    };
    std::vector<BlockMark> marks;
    const double blockS = opt.seconds / kBlocks;
    std::size_t seq = 0;
    const auto t0 = Clock::now();
    const double cpu0 = threadCpuSeconds();
    int nextMark = 0;
    for (; seq < total; ++seq) {
        const double atS = arrivalsUs[seq] * 1e-6;
        if (atS >= kWarmupS + opt.seconds)
            break;
        // Block boundaries: the window starts after the warm-up.
        while (nextMark <= kBlocks && atS >= kWarmupS + nextMark * blockS) {
            marks.push_back({seq, pidCounters(pid), Clock::now()});
            ++nextMark;
        }
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(atS));
        for (;;) {
            const auto left = std::chrono::duration_cast<
                std::chrono::microseconds>(due - Clock::now());
            if (left.count() <= 0)
                break;
            drainReplies(static_cast<long>(left.count()));
        }
        Sample &s = samples[seq];
        s.scheduled = spans.at(due);
        s.sent = spans.now();
        lateMs.push_back(static_cast<double>(s.sent - s.scheduled) * 1e-6);
        net::QueryMsg q;
        q.requestId = seq + 1;
        q.exemplar = static_cast<std::uint32_t>((exemplarBase + seq) %
                                                (1u << 20));
        ++out.attempted;
        ++outstanding;
        if (net::writeFrame(fds[seq % kConnections], net::encodeQuery(q)) !=
            net::IoStatus::Ok) {
            s.error = true;
            --outstanding;
        }
    }
    const double genCpuShare = (threadCpuSeconds() - cpu0) / secondsSince(t0);
    const std::size_t sent = seq;
    const auto drainDeadline = Clock::now() + std::chrono::seconds(10);
    while (outstanding > 0 && Clock::now() < drainDeadline)
        drainReplies(100000);
    while (nextMark <= kBlocks) {
        marks.push_back({sent, pidCounters(pid), Clock::now()});
        ++nextMark;
    }
    const double peakRss = pidCounters(pid).peakRssMb;

    // ---- Bye / ByeAck and server-side accounting ----
    std::uint64_t byeServed = 0;
    for (std::size_t c = 0; c < fds.size(); ++c) {
        net::ByeMsg bye;
        net::writeFrame(fds[c], net::encodeBye(bye));
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
        net::Frame frame;
        pollfd p{fds[c], POLLIN, 0};
        bool acked = false;
        while (!acked) {
            if (parsers[c].next(&frame) == net::FrameParser::Result::Frame) {
                net::ByeAckMsg ack;
                if (frame.type == net::FrameType::ByeAck &&
                    net::decodeByeAck(frame.payload, &ack)) {
                    byeServed += ack.served;
                    acked = true;
                }
                continue;
            }
            if (poll(&p, 1, 5000) != 1)
                break;
            char buf[4096];
            const ssize_t n = read(fds[c], buf, sizeof buf);
            if (n <= 0)
                break;
            parsers[c].feed(buf, static_cast<std::size_t>(n));
        }
        close(fds[c]);
    }
    fds.clear();
    const std::string summary = server->stop();
    unsigned long long completed = 0, shed = 0;
    std::sscanf(summary.c_str(), "completed %llu shed %llu", &completed,
                &shed);

    // ---- correctness: one Reply per Query, with its id ----
    std::uint64_t missing = 0, duplicate = 0, failedReq = 0;
    for (std::size_t i = 0; i < sent; ++i) {
        const Sample &s = samples[i];
        if (s.error)
            ++failedReq;
        else if (s.replies == 0)
            ++missing;
        if (s.replies > 1)
            ++duplicate;
    }
    out.failed += failedReq + missing;
    if (missing || duplicate || strays)
        out.fail(std::to_string(missing) + " queries without a reply, " +
                 std::to_string(duplicate) + " with more than one, " +
                 std::to_string(strays) + " stray frames");
    if (completed != sent - failedReq || byeServed != completed)
        out.fail("server completed " + std::to_string(completed) +
                 " and acknowledged " + std::to_string(byeServed) +
                 " of " + std::to_string(sent - failedReq) + " queries");

    // ---- metrics: median over blocks ----
    std::vector<double> blockP50, blockCpu, allMs, serverMs, rttBatch;
    double batches = 0.0, batched = 0.0;
    for (int b = 0; b < kBlocks; ++b) {
        const BlockMark &m0 = marks[static_cast<std::size_t>(b)];
        const BlockMark &m1 = marks[static_cast<std::size_t>(b) + 1];
        std::vector<double> ms;
        for (std::size_t i = m0.firstSeq; i < m1.firstSeq; ++i) {
            const Sample &s = samples[i];
            if (s.error || s.replies == 0)
                continue;
            ms.push_back(static_cast<double>(s.replied - s.scheduled) * 1e-6);
            serverMs.push_back(s.serverUs * 1e-3);
            batched += 1.0;
            batches += 1.0 / std::max(1, s.batchSize);
            if (spans.enabled() && (i % kSpanEvery) == 0) {
                Span life;
                life.name = "request";
                life.layer = "net";
                life.start = s.scheduled;
                life.end = s.replied;
                life.request = i + 1;
                life.async = true;
                spans.add(std::move(life));
            }
        }
        const double n = static_cast<double>(m1.firstSeq - m0.firstSeq);
        blockP50.push_back(median(ms));
        blockCpu.push_back((m1.server.cpuSeconds - m0.server.cpuSeconds) *
                           1e6 / n);
        allMs.insert(allMs.end(), ms.begin(), ms.end());
    }
    const BlockMark &w0 = marks.front();
    const BlockMark &w1 = marks.back();
    const double windowReq = static_cast<double>(w1.firstSeq - w0.firstSeq);
    const double windowWall =
        std::chrono::duration<double>(w1.at - w0.at).count();
    const double p50 = median(blockP50);

    out.endToEnd = {
        {"p50_ms", p50, "ms"},
        {"cpu_us_per_op", median(blockCpu), "us"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", peakRss, "MiB"},
    };
    const double lateP50 = median(lateMs);
    out.report.insert(out.report.end(), {
        {"net.server_p50_ms", median(serverMs), "ms"},
        {"net.batch_mean", batches > 0 ? batched / batches : 0.0, "count"},
        {"net.connect_ms", median(connectMs), "ms"},
        {"net.server_syscalls_per_req",
         static_cast<double>(w1.server.syscalls - w0.server.syscalls) /
             windowReq,
         "count"},
        {"net.server_vcsw_per_req",
         static_cast<double>(w1.server.voluntarySwitches -
                             w0.server.voluntarySwitches) /
             windowReq,
         "count"},
        {"net.server_ivcsw_per_req",
         static_cast<double>(w1.server.involuntarySwitches -
                             w0.server.involuntarySwitches) /
             windowReq,
         "count"},
        {"net.rtt_p90_ms", percentile(allMs, 90.0), "ms"},
        {"net.rtt_p99_ms", percentile(allMs, 99.0), "ms"},
        {"net.samples", static_cast<double>(allMs.size()), "count"},
        {"net.errors", static_cast<double>(errors), "count"},
        {"net.shed", static_cast<double>(shed), "count"},
        {"gen.late_p99_ms", percentile(lateMs, 99.0), "ms"},
        {"gen.cpu_share", genCpuShare, "ratio"},
    });
    if (lateP50 > kMaxLateP50Ms)
        out.invalid.push_back("open-loop generator ran " +
                              std::to_string(lateP50) +
                              " ms late at the median");

    if (opt.trace)
        addWindowLayers(w0.server, w1.server, windowWall, windowReq, p50,
                        spans, out);
}

} // namespace perfbench
