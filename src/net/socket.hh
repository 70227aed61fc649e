/**
 * @file
 * Thin POSIX socket layer shared by the server, the client, and the
 * tests: an RAII fd, endpoint parsing ("tcp:HOST:PORT" /
 * "unix:PATH"), and listen/connect helpers for both families.
 * Failures are recoverable util/errors.hh Results — a refused
 * connection or an occupied port is an operational condition, not a
 * process-fatal bug.
 */

#ifndef HETEROMAP_NET_SOCKET_HH
#define HETEROMAP_NET_SOCKET_HH

#include <cstdint>
#include <string>

#include "util/errors.hh"

namespace heteromap {
namespace net {

/** Owning file descriptor (move-only; closes on destruction). */
class OwnedFd
{
  public:
    OwnedFd() = default;
    explicit OwnedFd(int fd) : fd_(fd) {}
    ~OwnedFd() { reset(); }

    OwnedFd(OwnedFd &&other) noexcept : fd_(other.release()) {}
    OwnedFd &
    operator=(OwnedFd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }
    OwnedFd(const OwnedFd &) = delete;
    OwnedFd &operator=(const OwnedFd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int
    release()
    {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void reset();

  private:
    int fd_ = -1;
};

/** A parsed serving endpoint: loopback TCP or a Unix socket path. */
struct Endpoint {
    enum class Family { Tcp, Unix };

    Family family = Family::Unix;
    std::string host;    //!< TCP only (numeric, e.g. "127.0.0.1")
    uint16_t port = 0;   //!< TCP only; 0 = kernel-assigned
    std::string path;    //!< Unix only

    /** "tcp:127.0.0.1:7070" / "unix:/run/hm.sock" rendering. */
    std::string toString() const;
};

/**
 * Parse "tcp:HOST:PORT", "HOST:PORT" (tcp implied), or "unix:PATH".
 * Malformed specs (missing port, port out of range, empty path) are
 * recoverable errors.
 */
Result<Endpoint> parseEndpoint(const std::string &spec);

/**
 * Bind + listen on @p endpoint. A Unix endpoint unlinks a stale
 * socket file first. @return the listening fd (nonblocking).
 */
Result<OwnedFd> listenOn(const Endpoint &endpoint, int backlog = 128);

/**
 * The endpoint a listening TCP fd actually bound (resolves a
 * port-0 request to the kernel's pick). Unix endpoints round-trip.
 */
Result<Endpoint> localEndpoint(int listen_fd, const Endpoint &requested);

/** Blocking connect to @p endpoint. @return the connected fd. */
Result<OwnedFd> connectTo(const Endpoint &endpoint);

/** Set O_NONBLOCK on @p fd. @return false on fcntl failure. */
bool setNonBlocking(int fd);

/**
 * Set TCP_NODELAY on the TCP socket @p fd — both ends of a
 * connection need it. Request/response frames are small; Nagle would
 * hold each one back until the peer's delayed ACK.
 * @return false on setsockopt failure (e.g. a unix socket).
 */
bool setTcpNoDelay(int fd);

/**
 * Blocking send of the whole buffer (for the client side; the
 * server writes through its event loop instead). Short writes are
 * retried; an error or peer reset is recoverable.
 */
Result<std::size_t> sendAll(int fd, const char *data, std::size_t size);

/**
 * Blocking receive of exactly @p size bytes. EOF mid-message and
 * socket errors are recoverable (a reset peer must map onto the
 * client's transport-error path, never an exception).
 */
Result<std::size_t> recvAll(int fd, char *data, std::size_t size);

} // namespace net
} // namespace heteromap

#endif // HETEROMAP_NET_SOCKET_HH
