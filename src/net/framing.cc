#include "net/framing.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/bytes.h"
#include "core/sysio.h"

namespace aib::net {

namespace {

void
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
}

std::string
errnoText(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

} // namespace

IoStatus
readFrame(int fd, Frame *out, std::string *error)
{
    unsigned char header[kHeaderSize];
    std::size_t got = 0;
    switch (core::sysio::readFull(fd, header, sizeof(header), &got)) {
    case core::sysio::IoResult::Ok:
        break;
    case core::sysio::IoResult::Eof:
        if (got == 0)
            return IoStatus::Eof;
        setError(error, "net: connection closed mid-header");
        return IoStatus::Corrupt;
    case core::sysio::IoResult::Error:
        setError(error, errnoText("net: read"));
        return IoStatus::Error;
    }

    core::bytes::Reader in(header, sizeof(header));
    std::uint32_t magic = 0, length = 0;
    std::uint8_t version = 0, type = 0;
    (void)in.getU32(&magic);
    (void)in.getU8(&version);
    (void)in.getU8(&type);
    (void)in.getU32(&length);
    if (magic != kNetMagic) {
        setError(error, "net: bad frame magic");
        return IoStatus::Corrupt;
    }
    if (version != kNetVersion) {
        setError(error, "net: unsupported protocol version");
        return IoStatus::Corrupt;
    }
    if (!knownFrameType(type)) {
        setError(error, "net: unknown frame type");
        return IoStatus::Corrupt;
    }
    if (length > kMaxPayload) {
        setError(error, "net: oversized frame payload");
        return IoStatus::Corrupt;
    }

    out->type = static_cast<FrameType>(type);
    out->payload.resize(length);
    if (length > 0) {
        switch (core::sysio::readFull(fd, out->payload.data(), length,
                                      &got)) {
        case core::sysio::IoResult::Ok:
            break;
        case core::sysio::IoResult::Eof:
            setError(error, "net: connection closed mid-frame");
            return IoStatus::Corrupt;
        case core::sysio::IoResult::Error:
            setError(error, errnoText("net: read"));
            return IoStatus::Error;
        }
    }
    return IoStatus::Ok;
}

IoStatus
writeFrame(int fd, const std::string &encoded, std::string *error)
{
    switch (core::sysio::writeFull(fd, encoded.data(),
                                   encoded.size())) {
    case core::sysio::IoResult::Ok:
        return IoStatus::Ok;
    case core::sysio::IoResult::Eof:
        setError(error, "net: peer closed during write");
        return IoStatus::Eof;
    case core::sysio::IoResult::Error:
    default:
        setError(error, errnoText("net: write"));
        return IoStatus::Error;
    }
}

int
listenTcp(const std::string &host, int port, int *boundPort,
          std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        setError(error, errnoText("net: socket"));
        return -1;
    }
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        setError(error, "net: bad listen address '" + host + "'");
        ::close(fd);
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        setError(error, errnoText("net: bind"));
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 128) != 0) {
        setError(error, errnoText("net: listen"));
        ::close(fd);
        return -1;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0) {
        setError(error, errnoText("net: getsockname"));
        ::close(fd);
        return -1;
    }
    if (boundPort)
        *boundPort = static_cast<int>(ntohs(bound.sin_port));
    return fd;
}

int
connectTcp(const std::string &host, int port, std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        setError(error, errnoText("net: socket"));
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        setError(error, "net: bad address '" + host + "'");
        ::close(fd);
        return -1;
    }
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        setError(error, errnoText("net: connect"));
        ::close(fd);
        return -1;
    }
    // The protocol is many small frames; never wait for Nagle.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one));
    return fd;
}

bool
setNonBlocking(int fd, bool nonBlocking)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    const int want =
        nonBlocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    return ::fcntl(fd, F_SETFL, want) >= 0;
}

} // namespace aib::net
