/**
 * @file
 * Minimal POSIX TCP helpers shared by the HTTP layer (src/serve/) and
 * its tests: open/accept/connect loopback sockets and move whole
 * buffers through them. Everything is blocking; concurrency is the
 * caller's job (the HTTP server owns a worker pool, the tests spawn
 * plain threads).
 *
 * All functions report failure by throwing std::runtime_error with the
 * errno text, except where noted. File descriptors are plain ints so
 * no platform header leaks out of this file; Socket is a tiny RAII
 * owner for scopes that would otherwise leak one on an exception.
 */

#ifndef PROSPERITY_UTIL_SOCKET_H
#define PROSPERITY_UTIL_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace prosperity::net {

/** Invalid descriptor marker (never returned by the open helpers). */
inline constexpr int kInvalidFd = -1;

/**
 * Create a listening IPv4 TCP socket on 127.0.0.1:`port` (port 0 picks
 * a free ephemeral port) with SO_REUSEADDR set. On return `bound_port`
 * holds the actual port. Throws std::runtime_error on failure.
 */
int openListener(std::uint16_t port, int backlog,
                 std::uint16_t* bound_port);

/**
 * Accept one connection, waiting at most `timeout_ms`. Returns the
 * connected descriptor, or kInvalidFd on timeout (so an accept loop
 * can poll a stop flag without platform-specific wakeup tricks).
 * Throws std::runtime_error on a real accept failure.
 */
int acceptWithTimeout(int listener_fd, int timeout_ms);

/** Connect to 127.0.0.1:`port`. Throws std::runtime_error on failure. */
int connectLoopback(std::uint16_t port);

/**
 * Wait until `fd` is readable (data, EOF or error — anything that
 * makes a recv() return immediately). Returns false on timeout.
 * Throws std::runtime_error on a poll failure.
 */
bool waitReadable(int fd, int timeout_ms);

/**
 * Write all of `head`, then all of `body`, through gathered sends
 * (sendmsg, SIGPIPE suppressed): a message and its body leave in one
 * call without first being joined into one buffer. Either part may be
 * empty. Returns false when the bytes were not delivered: the peer has
 * gone away (EPIPE / ECONNRESET), routine during shutdown, or a send
 * made no progress within the socket's send timeout (EAGAIN, see
 * setSendTimeout). Throws std::runtime_error on other errors.
 */
bool writeAll(int fd, std::string_view head, std::string_view body = {});

/**
 * Make a send on `fd` that makes no progress for `timeout_ms` fail
 * with EAGAIN (SO_SNDTIMEO), so a peer that stops reading cannot block
 * the sender for longer. `timeout_ms <= 0` leaves sends blocking.
 * Throws std::runtime_error on failure.
 */
void setSendTimeout(int fd, int timeout_ms);

/**
 * Read up to `size` bytes into `data`. Returns the number of bytes
 * read; 0 means orderly EOF. Throws std::runtime_error on error.
 */
std::size_t readSome(int fd, void* data, std::size_t size);

/** Close `fd` (ignores kInvalidFd and close errors). */
void closeFd(int fd);

/** RAII descriptor owner (movable, closes on destruction). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { closeFd(fd_); }

    Socket(Socket&& other) noexcept : fd_(other.release()) {}
    Socket& operator=(Socket&& other) noexcept
    {
        if (this != &other) {
            closeFd(fd_);
            fd_ = other.release();
        }
        return *this;
    }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ != kInvalidFd; }

    /** Give up ownership without closing. */
    int release()
    {
        const int fd = fd_;
        fd_ = kInvalidFd;
        return fd;
    }

    void reset(int fd = kInvalidFd)
    {
        closeFd(fd_);
        fd_ = fd;
    }

  private:
    int fd_ = kInvalidFd;
};

} // namespace prosperity::net

#endif // PROSPERITY_UTIL_SOCKET_H
