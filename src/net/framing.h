/**
 * @file
 * Blocking fd-level transport for aib.net/1 frames, built on the
 * EINTR-safe @c core::sysio primitives. The client connections speak
 * through these; the server reads raw bytes itself and feeds a
 * @c FrameParser, but writes replies with the same @c writeFrame.
 *
 * Also here: the small socket plumbing the server and client share
 * (listen/connect on a host:port, nonblocking toggles), kept in one
 * place so the subsystem's only raw syscall surface is this file,
 * sysio, and the epoll loop.
 */

#ifndef AIB_NET_FRAMING_H
#define AIB_NET_FRAMING_H

#include <string>

#include "net/protocol.h"

namespace aib::net {

enum class IoStatus {
    Ok,
    Eof,     ///< peer closed cleanly at a frame boundary
    Corrupt, ///< malformed frame (see *error)
    Error,   ///< errno-level failure (see *error)
};

/**
 * Read exactly one frame from blocking @p fd. Eof only when the
 * connection closes before any header byte; a connection dying
 * mid-frame is Corrupt ("truncated frame").
 */
IoStatus readFrame(int fd, Frame *out, std::string *error = nullptr);

/** Write one already-encoded frame (all bytes, retrying EINTR). */
IoStatus writeFrame(int fd, const std::string &encoded,
                    std::string *error = nullptr);

/**
 * Bind a listening TCP socket on @p host:@p port (port 0 picks an
 * ephemeral one). Returns the fd (>= 0) and stores the actually
 * bound port in @p *boundPort, or returns -1 with @p *error set.
 */
int listenTcp(const std::string &host, int port, int *boundPort,
              std::string *error);

/** Connect a blocking TCP socket to @p host:@p port; -1 on error. */
int connectTcp(const std::string &host, int port, std::string *error);

/** Set O_NONBLOCK on @p fd. Returns false on fcntl failure. */
bool setNonBlocking(int fd, bool nonBlocking);

} // namespace aib::net

#endif // AIB_NET_FRAMING_H
