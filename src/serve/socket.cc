#include "serve/socket.hh"

#include <cerrno>
#include <cstring>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace unico::serve {

bool
parseEndpoint(const std::string &addr, Endpoint &out, std::string *error)
{
    const std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
        if (error)
            *error = "address '" + addr + "' has no ':port'";
        return false;
    }
    const std::string port_str = addr.substr(colon + 1);
    if (port_str.empty() ||
        port_str.find_first_not_of("0123456789") != std::string::npos) {
        if (error)
            *error = "address '" + addr + "' has a malformed port";
        return false;
    }
    unsigned long port = 0;
    try {
        port = std::stoul(port_str);
    } catch (const std::exception &) {
        port = 65536; // force the range error below
    }
    if (port > 65535) {
        if (error)
            *error = "address '" + addr + "' port out of range";
        return false;
    }
    out.host = addr.substr(0, colon);
    out.port = static_cast<std::uint16_t>(port);
    return true;
}

#if defined(_WIN32)

// Sockets are POSIX-only; stubs keep the server library linking.
int
tcpListen(const std::string &, std::string *error)
{
    if (error)
        *error = "tcp sockets unavailable on this platform";
    return -1;
}

int
boundPort(int)
{
    return -1;
}

int
tcpAccept(int, double, common::IoStatus *status)
{
    if (status)
        *status = common::IoStatus::Error;
    return -1;
}

int
tcpConnect(const std::string &, double, std::string *error)
{
    if (error)
        *error = "tcp sockets unavailable on this platform";
    return -1;
}

#else

namespace {

/** Resolve host (IPv4) into @p out; empty/wildcard maps per @p passive. */
bool
resolveHost(const std::string &host, bool passive, struct in_addr &out,
            std::string *error)
{
    std::string name = host;
    if (name.empty() || name == "*")
        name = passive ? "0.0.0.0" : "127.0.0.1";
    if (::inet_pton(AF_INET, name.c_str(), &out) == 1)
        return true;
    struct addrinfo hints = {};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    if (passive)
        hints.ai_flags = AI_PASSIVE;
    struct addrinfo *res = nullptr;
    const int rc = ::getaddrinfo(name.c_str(), nullptr, &hints, &res);
    if (rc != 0 || res == nullptr) {
        if (error)
            *error = "cannot resolve host '" + name +
                     "': " + ::gai_strerror(rc);
        if (res)
            ::freeaddrinfo(res);
        return false;
    }
    out = reinterpret_cast<struct sockaddr_in *>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
    return true;
}

std::string
errnoMessage(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/** TCP_NODELAY, SO_KEEPALIVE, close-on-exec, non-blocking. Returns
 *  false if any step failed (the fd is still usable, just untuned). */
bool
tuneTcpSocket(int fd)
{
    bool ok = true;
    int one = 1;
    ok &= ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one)) == 0;
    ok &= ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one,
                       sizeof(one)) == 0;
    ok &= common::setCloexec(fd);
    ok &= common::setNonblocking(fd);
    return ok;
}

} // namespace

int
tcpListen(const std::string &addr, std::string *error)
{
    Endpoint ep;
    if (!parseEndpoint(addr, ep, error))
        return -1;
    struct sockaddr_in sin = {};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(ep.port);
    if (!resolveHost(ep.host, /*passive=*/true, sin.sin_addr, error))
        return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = errnoMessage("socket");
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    common::setCloexec(fd);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sin),
               sizeof(sin)) != 0 ||
        ::listen(fd, 64) != 0) {
        if (error)
            *error = errnoMessage("bind/listen");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
boundPort(int listen_fd)
{
    struct sockaddr_in sin = {};
    socklen_t len = sizeof(sin);
    if (::getsockname(listen_fd,
                      reinterpret_cast<struct sockaddr *>(&sin),
                      &len) != 0)
        return -1;
    return static_cast<int>(ntohs(sin.sin_port));
}

int
tcpAccept(int listen_fd, double deadline_seconds,
          common::IoStatus *status)
{
    for (;;) {
        const common::IoStatus ready =
            common::waitReadable(listen_fd, deadline_seconds);
        if (ready != common::IoStatus::Ok) {
            if (status)
                *status = ready;
            return -1;
        }
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            tuneTcpSocket(fd);
            if (status)
                *status = common::IoStatus::Ok;
            return fd;
        }
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == ECONNABORTED)
            continue; // raced a dying connection; keep waiting
        if (status)
            *status = common::IoStatus::Error;
        return -1;
    }
}

int
tcpConnect(const std::string &addr, double deadline_seconds,
           std::string *error)
{
    Endpoint ep;
    if (!parseEndpoint(addr, ep, error))
        return -1;
    struct sockaddr_in sin = {};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(ep.port);
    if (!resolveHost(ep.host, /*passive=*/false, sin.sin_addr, error))
        return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = errnoMessage("socket");
        return -1;
    }
    common::setCloexec(fd);
    common::setNonblocking(fd);
    int rc = ::connect(fd, reinterpret_cast<struct sockaddr *>(&sin),
                       sizeof(sin));
    while (rc != 0 && errno == EINTR)
        rc = ::connect(fd, reinterpret_cast<struct sockaddr *>(&sin),
                       sizeof(sin));
    if (rc != 0 && errno != EINPROGRESS && errno != EALREADY &&
        errno != EISCONN) {
        if (error)
            *error = errnoMessage("connect");
        ::close(fd);
        return -1;
    }
    if (rc != 0) {
        // Non-blocking connect in flight: wait for writability, then
        // read the final outcome from SO_ERROR.
        const common::IoStatus ready =
            common::waitWritable(fd, deadline_seconds);
        if (ready != common::IoStatus::Ok) {
            if (error)
                *error = ready == common::IoStatus::Timeout
                             ? "connect timed out"
                             : errnoMessage("connect wait");
            ::close(fd);
            return -1;
        }
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) !=
                0 ||
            so_error != 0) {
            if (error) {
                errno = so_error != 0 ? so_error : errno;
                *error = errnoMessage("connect");
            }
            ::close(fd);
            return -1;
        }
    }
    tuneTcpSocket(fd);
    return fd;
}

#endif // !_WIN32

} // namespace unico::serve
