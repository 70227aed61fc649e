/**
 * @file
 * POSIX socket helpers. Linux-only, like the epoll event loop that
 * sits on top (the CI fleet and the deployment target are Linux).
 */

#include "net/socket.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace heteromap {
namespace net {

void
OwnedFd::reset()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

std::string
Endpoint::toString() const
{
    if (family == Family::Unix)
        return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

Result<Endpoint>
parseEndpoint(const std::string &spec)
{
    Endpoint endpoint;
    std::string rest = spec;
    if (rest.rfind("unix:", 0) == 0) {
        endpoint.family = Endpoint::Family::Unix;
        endpoint.path = rest.substr(5);
        if (endpoint.path.empty())
            return makeError(ErrorCode::Parse, 0,
                             "empty unix socket path in '", spec, "'");
        if (endpoint.path.size() >= sizeof(sockaddr_un{}.sun_path))
            return makeError(ErrorCode::OutOfRange, 0,
                             "unix socket path too long (",
                             endpoint.path.size(), " bytes): '", spec,
                             "'");
        return endpoint;
    }
    if (rest.rfind("tcp:", 0) == 0)
        rest = rest.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size())
        return makeError(ErrorCode::Parse, 0, "endpoint '", spec,
                         "' is not tcp:HOST:PORT or unix:PATH");
    endpoint.family = Endpoint::Family::Tcp;
    endpoint.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    char *end = nullptr;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (end == port_text.c_str() || *end != '\0' || port < 0 ||
        port > 65535)
        return makeError(ErrorCode::OutOfRange, 0, "bad port '",
                         port_text, "' in endpoint '", spec, "'");
    endpoint.port = static_cast<uint16_t>(port);
    return endpoint;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
setTcpNoDelay(int fd)
{
    const int one = 1;
    return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                        sizeof(one)) == 0;
}

namespace {

Result<OwnedFd>
socketFor(const Endpoint &endpoint)
{
    const int family =
        endpoint.family == Endpoint::Family::Unix ? AF_UNIX : AF_INET;
    OwnedFd fd(::socket(family, SOCK_STREAM, 0));
    if (!fd.valid())
        return makeError(ErrorCode::Unavailable, 0,
                         "socket() failed: ", std::strerror(errno));
    return fd;
}

/** Fill @p storage for @p endpoint; @return the address length. */
Result<socklen_t>
fillAddress(const Endpoint &endpoint, sockaddr_storage &storage)
{
    std::memset(&storage, 0, sizeof(storage));
    if (endpoint.family == Endpoint::Family::Unix) {
        auto *addr = reinterpret_cast<sockaddr_un *>(&storage);
        addr->sun_family = AF_UNIX;
        std::strncpy(addr->sun_path, endpoint.path.c_str(),
                     sizeof(addr->sun_path) - 1);
        return static_cast<socklen_t>(sizeof(sockaddr_un));
    }
    auto *addr = reinterpret_cast<sockaddr_in *>(&storage);
    addr->sin_family = AF_INET;
    addr->sin_port = htons(endpoint.port);
    if (::inet_pton(AF_INET, endpoint.host.c_str(),
                    &addr->sin_addr) != 1)
        return makeError(ErrorCode::Parse, 0, "bad IPv4 address '",
                         endpoint.host, "'");
    return static_cast<socklen_t>(sizeof(sockaddr_in));
}

} // namespace

Result<OwnedFd>
listenOn(const Endpoint &endpoint, int backlog)
{
    Result<OwnedFd> fd = socketFor(endpoint);
    if (!fd)
        return fd.error();
    OwnedFd sock = std::move(fd).value();

    if (endpoint.family == Endpoint::Family::Unix) {
        // A previous instance that died uncleanly leaves the socket
        // file behind; binding over it needs the unlink.
        ::unlink(endpoint.path.c_str());
    } else {
        const int one = 1;
        ::setsockopt(sock.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
    }

    sockaddr_storage storage;
    Result<socklen_t> len = fillAddress(endpoint, storage);
    if (!len)
        return len.error();
    if (::bind(sock.get(), reinterpret_cast<sockaddr *>(&storage),
               len.value()) != 0)
        return makeError(ErrorCode::Unavailable, 0, "bind(",
                         endpoint.toString(),
                         ") failed: ", std::strerror(errno));
    if (::listen(sock.get(), backlog) != 0)
        return makeError(ErrorCode::Unavailable, 0, "listen(",
                         endpoint.toString(),
                         ") failed: ", std::strerror(errno));
    if (!setNonBlocking(sock.get()))
        return makeError(ErrorCode::Unavailable, 0,
                         "O_NONBLOCK failed: ", std::strerror(errno));
    return sock;
}

Result<Endpoint>
localEndpoint(int listen_fd, const Endpoint &requested)
{
    if (requested.family == Endpoint::Family::Unix)
        return requested;
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return makeError(ErrorCode::Unavailable, 0,
                         "getsockname failed: ", std::strerror(errno));
    Endpoint bound = requested;
    bound.port = ntohs(addr.sin_port);
    return bound;
}

Result<OwnedFd>
connectTo(const Endpoint &endpoint)
{
    Result<OwnedFd> fd = socketFor(endpoint);
    if (!fd)
        return fd.error();
    OwnedFd sock = std::move(fd).value();

    sockaddr_storage storage;
    Result<socklen_t> len = fillAddress(endpoint, storage);
    if (!len)
        return len.error();
    if (::connect(sock.get(), reinterpret_cast<sockaddr *>(&storage),
                  len.value()) != 0)
        return makeError(ErrorCode::Unavailable, 0, "connect(",
                         endpoint.toString(),
                         ") failed: ", std::strerror(errno));
    if (endpoint.family == Endpoint::Family::Tcp)
        setTcpNoDelay(sock.get());
    return sock;
}

Result<std::size_t>
sendAll(int fd, const char *data, std::size_t size)
{
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return makeError(ErrorCode::Unavailable, 0,
                             "send failed after ", sent, "/", size,
                             " bytes: ", std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
    return sent;
}

Result<std::size_t>
recvAll(int fd, char *data, std::size_t size)
{
    std::size_t received = 0;
    while (received < size) {
        const ssize_t n =
            ::recv(fd, data + received, size - received, 0);
        if (n == 0)
            return makeError(ErrorCode::Unavailable, 0,
                             "connection closed after ", received, "/",
                             size, " bytes");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return makeError(ErrorCode::Unavailable, 0,
                             "recv failed after ", received, "/", size,
                             " bytes: ", std::strerror(errno));
        }
        received += static_cast<std::size_t>(n);
    }
    return received;
}

} // namespace net
} // namespace heteromap
