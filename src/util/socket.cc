#include "socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

namespace prosperity::net {

namespace {

[[noreturn]] void
socketError(const std::string& what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

} // namespace

int
openListener(std::uint16_t port, int backlog, std::uint16_t* bound_port)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        socketError("socket()");

    const int one = 1;
    if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one)) != 0)
        socketError("setsockopt(SO_REUSEADDR)");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0)
        socketError("bind(127.0.0.1:" + std::to_string(port) + ')');
    if (::listen(sock.fd(), backlog) != 0)
        socketError("listen()");

    if (bound_port) {
        sockaddr_in actual{};
        socklen_t len = sizeof(actual);
        if (::getsockname(sock.fd(),
                          reinterpret_cast<sockaddr*>(&actual),
                          &len) != 0)
            socketError("getsockname()");
        *bound_port = ntohs(actual.sin_port);
    }
    return sock.release();
}

int
acceptWithTimeout(int listener_fd, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = listener_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
        if (errno == EINTR)
            return kInvalidFd; // treated as a timeout; caller re-polls
        socketError("poll(listener)");
    }
    if (ready == 0)
        return kInvalidFd;

    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) {
        // The connection can vanish between poll and accept; that is a
        // timeout from the caller's point of view, not a failure.
        if (errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK || errno == EINTR)
            return kInvalidFd;
        socketError("accept()");
    }
    return fd;
}

int
connectLoopback(std::uint16_t port)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        socketError("socket()");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0)
        socketError("connect(127.0.0.1:" + std::to_string(port) + ')');
    return sock.release();
}

bool
waitReadable(int fd, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
        if (errno == EINTR)
            return false; // caller re-polls on its next slice
        socketError("poll(connection)");
    }
    return ready > 0;
}

bool
writeAll(int fd, std::string_view head, std::string_view body)
{
    while (!head.empty() || !body.empty()) {
        iovec parts[2] = {{const_cast<char*>(head.data()), head.size()},
                          {const_cast<char*>(body.data()), body.size()}};
        msghdr message{};
        message.msg_iov = parts;
        message.msg_iovlen = 2;
        const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EPIPE || errno == ECONNRESET ||
                errno == EAGAIN || errno == EWOULDBLOCK)
                return false;
            socketError("sendmsg()");
        }
        // A partial send leaves the rest for the next call.
        const std::size_t sent = static_cast<std::size_t>(n);
        const std::size_t from_head = std::min(sent, head.size());
        head.remove_prefix(from_head);
        body.remove_prefix(sent - from_head);
    }
    return true;
}

void
setSendTimeout(int fd, int timeout_ms)
{
    if (timeout_ms <= 0)
        return;
    timeval timeout{};
    timeout.tv_sec = timeout_ms / 1000;
    timeout.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
    if (::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                     sizeof(timeout)) != 0)
        socketError("setsockopt(SO_SNDTIMEO)");
}

std::size_t
readSome(int fd, void* data, std::size_t size)
{
    for (;;) {
        const ssize_t n = ::recv(fd, data, size, 0);
        if (n >= 0)
            return static_cast<std::size_t>(n);
        if (errno == EINTR)
            continue;
        // A peer that slams the connection mid-read is EOF for the
        // request loop, not an internal server error.
        if (errno == ECONNRESET)
            return 0;
        socketError("recv()");
    }
}

void
closeFd(int fd)
{
    if (fd != kInvalidFd)
        ::close(fd);
}

} // namespace prosperity::net
