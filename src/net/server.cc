#include "net/server.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/faultinject.h"
#include "core/sysio.h"
#include "net/framing.h"

namespace aib::net {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

/** One accepted connection. The event loop is the only reader;
 *  serving workers write replies under @c writeMutex, which also
 *  guards fd lifetime. */
struct NetServer::Conn {
    int fd = -1;            ///< -1 once closed; guarded by writeMutex
    std::size_t index = 0;  ///< accept order
    FrameParser parser;
    std::mutex writeMutex;
    bool open = true;       ///< guarded by writeMutex; false = no writes
    bool retired = false;   ///< guarded by Impl::connMutex
    ConnectionStats stats;  ///< counters under writeMutex

    /** Stop writes and close the fd, serialized against writers. */
    void
    closeNow()
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        open = false;
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
};

struct NetServer::Impl {
    Impl(const core::ComponentBenchmark &b, NetServerOptions o)
        : benchmark(b), options(std::move(o))
    {}

    const core::ComponentBenchmark &benchmark;
    NetServerOptions options;

    std::unique_ptr<serve::ServingEndpoint> endpoint;
    int listenFd = -1;
    int wakeRead = -1;
    int wakeWrite = -1;
    std::thread ioThread;

    std::atomic<bool> stopping{false};
    std::atomic<bool> started{false};
    bool stoppedCollected = false;
    NetServerStats finalStats;

    std::mutex doneMutex;
    std::condition_variable doneCv;
    bool ioDone = false;

    std::mutex connMutex;
    std::vector<std::shared_ptr<Conn>> conns; ///< accept order
    std::size_t openConns = 0;
    std::uint64_t accepted = 0;

    /** A fault-killed connection was the last one open (folded into
     *  the event loop's exit-linger decision). */
    bool faultLastGone = false;

    struct Pending {
        std::shared_ptr<Conn> conn;
        std::uint64_t requestId = 0;
    };
    std::mutex pendingMutex;
    std::unordered_map<int, Pending> pending;

    ~Impl()
    {
        if (listenFd >= 0)
            ::close(listenFd);
        if (wakeRead >= 0)
            ::close(wakeRead);
        if (wakeWrite >= 0)
            ::close(wakeWrite);
    }

    // ---- outbound ----

    /** Write an encoded frame to a connection if it is still open. */
    bool
    sendFrame(Conn &conn, const std::string &encoded, bool isReply,
              bool isError)
    {
        std::lock_guard<std::mutex> lock(conn.writeMutex);
        if (!conn.open)
            return false;
        std::string err;
        if (writeFrame(conn.fd, encoded, &err) != IoStatus::Ok) {
            // A dead peer is shed, never fatal to the server: stop
            // writing and shut the socket down, but leave the fd to
            // the reading side — it will observe the hangup and
            // retire (and close) the connection exactly once.
            conn.open = false;
            ::shutdown(conn.fd, SHUT_RDWR);
            return false;
        }
        conn.stats.bytesOut += encoded.size();
        if (isReply)
            conn.stats.replies += 1;
        if (isError)
            conn.stats.errorsSent += 1;
        return true;
    }

    void
    sendError(Conn &conn, StatusCode status, std::uint64_t requestId,
              const std::string &message)
    {
        sendFrame(conn, encodeError({status, requestId, message}),
                  false, requestId != 0);
    }

    /** Endpoint completion -> Reply frame on the right connection. */
    void
    onCompletion(const serve::EndpointCompletion &c)
    {
        Pending p;
        {
            std::lock_guard<std::mutex> lock(pendingMutex);
            auto it = pending.find(c.id);
            if (it == pending.end())
                return; // connection vanished before completion
            p = std::move(it->second);
            pending.erase(it);
        }
        if (c.failed) {
            sendError(*p.conn, StatusCode::Internal, p.requestId,
                      "batch failed");
            return;
        }
        ReplyMsg r;
        r.requestId = p.requestId;
        r.exemplar = static_cast<std::uint32_t>(c.id);
        r.batchDigest = c.batchDigest;
        r.batchSize = static_cast<std::uint32_t>(c.batchSize);
        r.batchIndexPlus1 =
            c.batchIndex >= 0
                ? static_cast<std::uint64_t>(c.batchIndex) + 1
                : 0;
        r.serverLatencyUs = c.serverLatencyUs;
        sendFrame(*p.conn, encodeReply(r), true, false);
    }

    // ---- inbound ----

    bool
    checkHello(const HelloMsg &m, StatusCode *status,
               std::string *why)
    {
        if (m.benchmarkId != benchmark.info.id) {
            *status = StatusCode::UnknownBenchmark;
            *why = "server hosts '" + benchmark.info.id + "'";
            return false;
        }
        const serve::EndpointOptions &ep = options.endpoint;
        const bool planned =
            ep.batching == serve::BatchingMode::Planned;
        const std::uint8_t batching = planned ? 1 : 0;
        if (m.seed != ep.seed || m.batching != batching ||
            m.maxBatch != static_cast<std::uint32_t>(ep.policy.maxBatch) ||
            m.maxDelayUs !=
                static_cast<std::uint64_t>(ep.policy.maxDelayUs) ||
            (planned && (m.queries != options.helloQueries ||
                         bitsOf(m.qps) != bitsOf(options.helloQps)))) {
            *status = StatusCode::ConfigMismatch;
            *why = "hello fingerprint differs from server config";
            return false;
        }
        return true;
    }

    /**
     * Dispatch one decoded frame. Returns false when the connection
     * should close (gracefully — Bye — or after a fatal error).
     * Throws core::fault::FaultInjected out of the net.conn point.
     */
    bool
    handleFrame(Conn &conn, const Frame &frame)
    {
        conn.stats.framesIn += 1;
        switch (frame.type) {
        case FrameType::Hello: {
            HelloMsg m;
            if (!decodeHello(frame.payload, &m)) {
                sendError(conn, StatusCode::BadFrame, 0,
                          "malformed hello");
                return false;
            }
            StatusCode status = StatusCode::Ok;
            std::string why;
            if (!checkHello(m, &status, &why)) {
                sendError(conn, status, 0, why);
                return false;
            }
            conn.stats.helloOk = true;
            HelloAckMsg ack;
            ack.benchmarkId = benchmark.info.id;
            ack.seed = options.endpoint.seed;
            ack.workers =
                static_cast<std::uint32_t>(options.endpoint.workers);
            ack.batching =
                options.endpoint.batching ==
                        serve::BatchingMode::Planned
                    ? 1
                    : 0;
            return sendFrame(conn, encodeHelloAck(ack), false, false);
        }
        case FrameType::Query: {
            // The connection-kill fault point: fires per decoded
            // query frame, killing only this connection.
            core::fault::checkPoint("net.conn");
            QueryMsg m;
            if (!decodeQuery(frame.payload, &m)) {
                sendError(conn, StatusCode::BadFrame, 0,
                          "malformed query");
                return false;
            }
            if (!conn.stats.helloOk) {
                sendError(conn, StatusCode::BadFrame, 0,
                          "query before hello");
                return false;
            }
            conn.stats.queries += 1;
            if (stopping.load(std::memory_order_relaxed)) {
                sendError(conn, StatusCode::Draining, m.requestId,
                          "server is draining");
                return true;
            }
            const int id = static_cast<int>(m.exemplar);
            std::shared_ptr<Conn> self = connShared(conn);
            bool inserted;
            {
                std::lock_guard<std::mutex> lock(pendingMutex);
                inserted =
                    pending
                        .emplace(id, Pending{std::move(self),
                                             m.requestId})
                        .second;
            }
            if (!inserted) {
                // id already in flight (a client bug) — never
                // clobber the first sender's completion route.
                sendError(conn, StatusCode::UnknownId, m.requestId,
                          "id already in flight");
                return true;
            }
            serve::Request req;
            req.id = id;
            req.arrivalUs = 0.0;
            req.enqueue = Clock::now();
            switch (endpoint->submit(req)) {
            case serve::SubmitResult::Accepted:
                return true;
            case serve::SubmitResult::Shed:
                erasePending(id);
                sendError(conn, StatusCode::Shed, m.requestId,
                          "admission queue full");
                return true;
            case serve::SubmitResult::Closed:
                erasePending(id);
                sendError(conn, StatusCode::Draining, m.requestId,
                          "endpoint closed");
                return true;
            case serve::SubmitResult::UnknownId:
                erasePending(id);
                sendError(conn, StatusCode::UnknownId, m.requestId,
                          "id outside the batch plan");
                return true;
            }
            return true;
        }
        case FrameType::Bye: {
            ByeMsg m;
            if (!decodeBye(frame.payload, &m)) {
                sendError(conn, StatusCode::BadFrame, 0,
                          "malformed bye");
                return false;
            }
            conn.stats.sawBye = true;
            ByeAckMsg ack;
            {
                std::lock_guard<std::mutex> lock(conn.writeMutex);
                ack.served = conn.stats.replies;
                ack.shed = conn.stats.errorsSent;
            }
            sendFrame(conn, encodeByeAck(ack), false, false);
            return false; // graceful close
        }
        default:
            sendError(conn, StatusCode::BadFrame, 0,
                      "unexpected frame type from client");
            return false;
        }
    }

    std::shared_ptr<Conn>
    connShared(Conn &conn)
    {
        std::lock_guard<std::mutex> lock(connMutex);
        return conns[conn.index];
    }

    void
    erasePending(int id)
    {
        std::lock_guard<std::mutex> lock(pendingMutex);
        pending.erase(id);
    }

    /** Drop every pending completion routed to @p conn. */
    void
    dropPendingFor(const Conn &conn)
    {
        std::lock_guard<std::mutex> lock(pendingMutex);
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->second.conn.get() == &conn)
                it = pending.erase(it);
            else
                ++it;
        }
    }

    std::shared_ptr<Conn>
    registerConn(int fd)
    {
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(connMutex);
        conn->index = conns.size();
        conns.push_back(conn);
        openConns += 1;
        accepted += 1;
        return conn;
    }

    /** Retire a connection (idempotent); true when this was the last
     *  open one and at least one client ever connected. */
    bool
    retireConn(Conn &conn, int ep, bool faultKilled)
    {
        if (faultKilled)
            conn.stats.faultKilled = true;
        {
            std::lock_guard<std::mutex> lock(conn.writeMutex);
            if (conn.open && conn.fd >= 0)
                ::epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
        }
        conn.closeNow();
        // Leaving the pending entries would only drop replies on the
        // closed socket; removing them keeps the map small.
        dropPendingFor(conn);
        std::lock_guard<std::mutex> lock(connMutex);
        if (conn.retired)
            return false;
        conn.retired = true;
        openConns -= 1;
        return options.exitAfterLastClient && accepted > 0 &&
               openConns == 0;
    }

    // ---- the event loop ----

    void
    runEpoll()
    {
        const int ep = ::epoll_create1(EPOLL_CLOEXEC);
        if (ep < 0) {
            markIoDone();
            return;
        }
        auto add = [&](int fd, void *ptr) {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.ptr = ptr;
            ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
        };
        add(listenFd, nullptr);
        add(wakeRead, &wakeRead);

        const auto msUntil = [](Clock::time_point when) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    when - Clock::now())
                    .count();
            return left > 0 ? static_cast<int>(left) : 0;
        };
        bool draining = false;
        bool lingering = false;
        Clock::time_point deadline{};
        Clock::time_point lingerUntil{};
        epoll_event events[64];
        for (;;) {
            int timeoutMs = -1;
            if (draining)
                timeoutMs = msUntil(deadline);
            else if (lingering)
                timeoutMs = msUntil(lingerUntil);
            const int n =
                ::epoll_wait(ep, events, 64, timeoutMs);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            bool lastClientGone = false;
            for (int i = 0; i < n; ++i) {
                void *ptr = events[i].data.ptr;
                if (ptr == nullptr) {
                    // listen socket: readiness guarantees one
                    // non-blocking accept on a blocking fd.
                    const int fd = ::accept4(listenFd, nullptr,
                                             nullptr, SOCK_CLOEXEC);
                    if (fd < 0)
                        continue;
                    auto conn = registerConn(fd);
                    add(fd, conn.get());
                    continue;
                }
                if (ptr == &wakeRead) {
                    char buf[16];
                    (void)::read(wakeRead, buf, sizeof(buf));
                    continue; // stopping flag is checked below
                }
                auto *conn = static_cast<Conn *>(ptr);
                if (!serviceReadable(*conn, ep))
                    lastClientGone |= retireConn(*conn, ep, false);
            }
            lastClientGone |= faultLastGone;
            faultLastGone = false;
            if (lastClientGone && !draining && !lingering) {
                // Not an instant exit: connections the client already
                // made may still sit un-accepted in the listen
                // backlog. Keep accepting for the linger window; a
                // fresh accept cancels the exit below.
                lingering = true;
                lingerUntil = Clock::now() +
                              std::chrono::milliseconds(
                                  options.exitLingerMs);
            }
            if (lingering && !draining) {
                std::size_t open;
                {
                    std::lock_guard<std::mutex> lock(connMutex);
                    open = openConns;
                }
                if (open > 0)
                    lingering = false;
                else if (Clock::now() >= lingerUntil)
                    stopping.store(true, std::memory_order_relaxed);
            }
            if (stopping.load(std::memory_order_relaxed) &&
                !draining) {
                draining = true;
                deadline = Clock::now() +
                           std::chrono::milliseconds(
                               options.drainGraceMs);
                // Closing (not just de-registering) the listen socket
                // resets any connection still in the accept queue —
                // its client sees an error instead of hanging on a
                // reply that will never come.
                ::epoll_ctl(ep, EPOLL_CTL_DEL, listenFd, nullptr);
                ::close(listenFd);
                listenFd = -1;
            }
            if (draining) {
                std::size_t open;
                {
                    std::lock_guard<std::mutex> lock(connMutex);
                    open = openConns;
                }
                if (open == 0 || Clock::now() >= deadline)
                    break;
            }
        }
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        // Force-close drain stragglers (retireConn is idempotent).
        std::vector<std::shared_ptr<Conn>> snapshot;
        {
            std::lock_guard<std::mutex> lock(connMutex);
            snapshot = conns;
        }
        for (const auto &c : snapshot)
            retireConn(*c, ep, false);
        ::close(ep);
        markIoDone();
    }

    /** One readiness-driven read + frame dispatch. Returns false
     *  when the connection must be retired. */
    bool
    serviceReadable(Conn &conn, int ep)
    {
        char buf[1 << 16];
        int fd;
        {
            std::lock_guard<std::mutex> lock(conn.writeMutex);
            if (!conn.open)
                return false;
            fd = conn.fd;
        }
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n == 0)
            return false; // peer closed
        if (n < 0)
            return errno == EINTR;
        conn.stats.bytesIn += static_cast<std::uint64_t>(n);
        conn.parser.feed(buf, static_cast<std::size_t>(n));
        Frame frame;
        for (;;) {
            switch (conn.parser.next(&frame)) {
            case FrameParser::Result::NeedMore:
                return true;
            case FrameParser::Result::Corrupt:
                conn.stats.parseCorrupt = true;
                sendError(conn, StatusCode::BadFrame, 0,
                          conn.parser.error());
                return false;
            case FrameParser::Result::Frame:
                try {
                    if (!handleFrame(conn, frame))
                        return false;
                } catch (const core::fault::FaultInjected &) {
                    if (retireConn(conn, ep, true))
                        faultLastGone = true;
                    return true; // already retired
                }
                break;
            }
        }
    }

    void
    requestStopImpl()
    {
        stopping.store(true, std::memory_order_relaxed);
        const char byte = 's';
        // Async-signal-safe: a single-byte pipe write; a full pipe
        // just means a wake is already queued.
        (void)::write(wakeWrite, &byte, 1);
    }

    void
    markIoDone()
    {
        {
            std::lock_guard<std::mutex> lock(doneMutex);
            ioDone = true;
        }
        doneCv.notify_all();
    }
};

NetServer::NetServer(const core::ComponentBenchmark &benchmark,
                     NetServerOptions options)
    : impl_(new Impl{benchmark, std::move(options)})
{}

NetServer::~NetServer()
{
    if (!impl_->started.load())
        return;
    try {
        stop();
    } catch (...) {
        // A failed batch's error; callers that want it call stop().
    }
}

void
NetServer::start()
{
    core::sysio::ignoreSigpipe();
    std::string err;
    impl_->listenFd = listenTcp(impl_->options.host,
                                impl_->options.port, &boundPort_,
                                &err);
    if (impl_->listenFd < 0)
        throw std::runtime_error(err);
    int pipeFds[2];
    if (::pipe2(pipeFds, O_CLOEXEC) != 0)
        throw std::runtime_error("netserve: pipe2 failed");
    impl_->wakeRead = pipeFds[0];
    impl_->wakeWrite = pipeFds[1];

    // Replicas build before any IO thread exists (global RNG).
    impl_->endpoint = std::make_unique<serve::ServingEndpoint>(
        impl_->benchmark, impl_->options.endpoint,
        [impl = impl_.get()](const serve::EndpointCompletion &c) {
            impl->onCompletion(c);
        });

    Impl *impl = impl_.get();
    impl->ioThread = std::thread([impl] { impl->runEpoll(); });
    impl->started.store(true);
}

void
NetServer::requestStop()
{
    impl_->requestStopImpl();
}

void
NetServer::waitStopped()
{
    std::unique_lock<std::mutex> lock(impl_->doneMutex);
    impl_->doneCv.wait(lock, [&] { return impl_->ioDone; });
}

NetServerStats
NetServer::stop()
{
    Impl *impl = impl_.get();
    if (impl->stoppedCollected)
        return impl->finalStats;
    requestStop();
    if (impl->ioThread.joinable())
        impl->ioThread.join();
    std::exception_ptr error;
    try {
        impl->endpoint->drain();
    } catch (...) {
        error = std::current_exception();
    }

    NetServerStats stats;
    stats.accepted = impl->accepted;
    stats.completed = impl->endpoint->completed();
    stats.shed = impl->endpoint->rejected();
    stats.batches = impl->endpoint->batches();
    stats.sessionDigest = impl->endpoint->sessionDigest();
    stats.serverLatency = impl->endpoint->latency();
    for (const auto &c : impl->conns)
        stats.connections.push_back(c->stats);
    impl->finalStats = std::move(stats);
    impl->stoppedCollected = true;
    if (error)
        std::rethrow_exception(error);
    return impl->finalStats;
}

} // namespace aib::net
