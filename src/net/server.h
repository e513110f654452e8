/**
 * @file
 * aibench netserve: a ServingEndpoint behind a TCP socket.
 *
 * The server decodes aib.net/1 queries into the same admission /
 * batcher / worker-replica path the in-process engine uses
 * (@c serve::ServingEndpoint) and streams each request's batch
 * digest back on the connection that sent it. Two selectable IO
 * models (--io epoll|threads):
 *
 *  - @c Epoll: one event-loop thread multiplexes the listen socket
 *    and every connection (level-triggered epoll over blocking fds:
 *    readiness means one read() cannot block). Reads feed a
 *    per-connection @c FrameParser; replies are written from the
 *    serving workers under a per-connection write lock.
 *
 *  - @c Threads: thread-per-connection on a dedicated
 *    @c core::ThreadPool — an acceptor thread hands sockets to a
 *    fixed pool of handler loops, each running blocking readFrame
 *    on one connection at a time.
 *
 * Shutdown is a graceful drain: on @c requestStop (the CLI wires
 * SIGTERM/SIGINT to it through the server's wake pipe, which is
 * async-signal-safe), the server stops accepting, gives open
 * connections a grace window to say Bye, closes stragglers, drains
 * the endpoint (planned mode flushes partially-arrived batches so a
 * killed client cannot wedge the batcher), and publishes final
 * stats. The @c net.conn fault point fires per decoded query frame
 * and kills just that connection — the fault matrix in
 * tests/net/test_net_faults.cc proves the rest of the run survives.
 */

#ifndef AIB_NET_SERVER_H
#define AIB_NET_SERVER_H

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmark.h"
#include "serve/endpoint.h"

namespace aib::net {

enum class IoMode {
    Epoll,   ///< one event-loop thread, level-triggered epoll
    Threads, ///< thread-per-connection on a dedicated ThreadPool
};

/** Parse "epoll" / "threads" (false = unrecognized). */
bool parseIoMode(const std::string &text, IoMode *out);
const char *ioModeName(IoMode mode);

struct NetServerOptions {
    std::string host = "127.0.0.1";
    int port = 0; ///< 0 = ephemeral; see boundPort() after start
    IoMode io = IoMode::Epoll;
    /** Threads mode: handler pool size = max concurrent conns. */
    int maxConnections = 16;
    /** Grace window between requestStop and force-closing conns. */
    long drainGraceMs = 2000;
    /** Auto-stop once >=1 client connected and all disconnected. */
    bool exitAfterLastClient = false;
    /**
     * exitAfterLastClient is armed, not instant: when the last
     * connection retires, the server keeps accepting for this window
     * and a fresh connection cancels the exit. A multi-connection
     * client ramping up can otherwise lose the race — its first
     * connection finishes (or is refused at handshake) while later
     * ones still sit un-accepted in the listen backlog, and an
     * instant exit would strand them.
     */
    long exitLingerMs = 200;
    /**
     * Planned-mode Hello fingerprint: the (queries, qps) the batch
     * plan was derived from. Clients must present the same values or
     * their plan — and therefore the digest — would diverge.
     * Ignored in dynamic mode.
     */
    std::uint32_t helloQueries = 0;
    double helloQps = 0.0;
    serve::EndpointOptions endpoint;
};

/** Lifetime accounting of one accepted connection. */
struct ConnectionStats {
    std::uint64_t framesIn = 0;
    std::uint64_t queries = 0;
    std::uint64_t replies = 0;
    std::uint64_t errorsSent = 0; ///< request-scoped Error frames
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    bool helloOk = false;
    bool sawBye = false;
    bool faultKilled = false; ///< dropped by the net.conn fault point
    bool parseCorrupt = false;
};

/** Published by stop(); stable afterwards. */
struct NetServerStats {
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0; ///< queries served to completion
    std::uint64_t shed = 0;      ///< rejected at admission
    std::uint64_t batches = 0;
    double sessionDigest = 0.0;  ///< endpoint fold (see endpoint.h)
    serve::LatencyHistogram serverLatency; ///< submit->served, us
    std::vector<ConnectionStats> connections; ///< accept order
};

class NetServer
{
  public:
    NetServer(const core::ComponentBenchmark &benchmark,
              NetServerOptions options);
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /**
     * Bind, listen and spawn the IO machinery (and the endpoint's
     * serving workers). Throws std::runtime_error on socket errors.
     */
    void start();

    /** Port actually bound (after start). */
    int boundPort() const { return boundPort_; }

    /**
     * Ask the server to drain and stop. Safe from any thread; the
     * one-byte wake-pipe write is also async-signal-safe, so a
     * signal handler may call it directly.
     */
    void requestStop();

    /** Block until the IO machinery observed requestStop (or
     *  exitAfterLastClient) and finished draining. */
    void waitStopped();

    /**
     * Drain (if still running), join everything, publish stats. If a
     * batch failed, the first call rethrows its error once the stats
     * are published; later calls return them.
     */
    NetServerStats stop();

  private:
    struct Conn;
    struct Impl;
    std::unique_ptr<Impl> impl_;
    int boundPort_ = -1;
};

} // namespace aib::net

#endif // AIB_NET_SERVER_H
