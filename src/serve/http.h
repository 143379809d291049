/**
 * @file
 * Dependency-free HTTP/1.1 server and client over blocking loopback
 * sockets — the transport of the simulation-as-a-service layer
 * (src/serve/service.h), kept deliberately small:
 *
 * - **Server**: one acceptor thread plus a fixed worker pool; each
 *   worker serves whole connections (keep-alive request loop) and
 *   hands every parsed request to a single user handler. Headers and
 *   bodies are size-capped, Content-Length bodies and
 *   `Expect: 100-continue` are supported, and malformed requests turn
 *   into structured JSON `400`s without reaching the handler.
 * - **Client**: a blocking keep-alive connection for tests, the bench
 *   load generator and scripted clients; reconnects transparently
 *   when the server closed an idle connection.
 *
 * This is not a general web server: no TLS, no chunked transfer
 * encoding, no routing DSL — exactly what serving JSON over loopback
 * or a trusted LAN needs, with zero third-party code (the constraint
 * the whole repo is built under).
 */

#ifndef PROSPERITY_SERVE_HTTP_H
#define PROSPERITY_SERVE_HTTP_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/thread_annotations.h"

namespace prosperity::serve {

/** One parsed request. Header names are lowercased; the path and query
 *  values are percent-decoded. */
struct HttpRequest
{
    std::string method; ///< uppercase ("GET", "POST", ...)
    std::string target; ///< raw request target ("/v1/jobs/x?format=csv")
    std::string path;   ///< decoded path without the query ("/v1/jobs/x")
    std::vector<std::pair<std::string, std::string>> query;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Header value by (case-insensitive) name; nullptr when absent. */
    const std::string* header(const std::string& name) const;

    /** First query parameter named `key`, or `fallback`. */
    std::string queryValue(const std::string& key,
                           const std::string& fallback = "") const;
};

/** One response; Content-Length and Connection are added by the server. */
struct HttpResponse
{
    int status = 200;
    std::string content_type = "application/json";
    std::string body;

    /** JSON body (pretty-printed, trailing newline — byte-compatible
     *  with the CLI's report files). */
    static HttpResponse json(int status, const json::Value& value);

    /** The service's structured error shape:
     *  `{"error": {"status": N, "message": "..."}}`. */
    static HttpResponse error(int status, const std::string& message);

    /** Plain body with an explicit content type. */
    static HttpResponse text(int status, std::string body,
                             std::string content_type = "text/plain");
};

/** Standard reason phrase of a status code ("OK", "Not Found", ...). */
const char* statusReason(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/** Requests with a larger Content-Length get 413. */
inline constexpr std::size_t kMaxBodyBytes = std::size_t{8} << 20;

/** Requests whose header block, from the request line through the
 *  blank line that ends it, is longer get 431. */
inline constexpr std::size_t kMaxHeaderBytes = std::size_t{64} << 10;

struct HttpServerOptions
{
    /** Listening port on 127.0.0.1; 0 picks a free port (see port()). */
    std::uint16_t port = 0;

    /** Connection worker threads (>= 1 enforced). */
    std::size_t threads = 4;

    /**
     * Maximum milliseconds a connection may sit without delivering
     * bytes — idle between keep-alive requests or stalled mid-request
     * — before the server closes it. It is also each accepted socket's
     * send timeout: a response send that makes no progress for that
     * long (a client that stopped reading) fails and closes the
     * connection. Keeps workers reclaimable (idle clients cannot
     * starve the fixed pool) and bounds how long stop() waits on
     * in-flight connections.
     */
    int read_timeout_ms = 5000;
};

/**
 * Blocking HTTP/1.1 server. start() binds and spawns the acceptor +
 * worker threads; stop() (or destruction) drains them. The handler is
 * invoked concurrently from the worker threads and must be
 * thread-safe; an exception escaping it becomes a 500 with the
 * exception text, never a dropped connection.
 */
class HttpServer
{
  public:
    HttpServer(HttpServerOptions options, HttpHandler handler);
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /** Bind + listen + spawn threads. Throws std::runtime_error when
     *  the port is taken. */
    void start();

    /** Stop accepting, close queued connections, join all threads.
     *  Idempotent. In-flight requests finish first. */
    void stop();

    /** Actual bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    bool running() const { return running_; }

    /** Connections accepted since start() — lets tests assert that
     *  keep-alive actually reused a connection. */
    std::uint64_t connectionsAccepted() const
    {
        return connections_accepted_;
    }

    /** Requests that received a response (including error responses). */
    std::uint64_t requestsServed() const { return requests_served_; }

  private:
    void acceptLoop() EXCLUDES(mutex_);
    void workerLoop() EXCLUDES(mutex_);
    void serveConnection(int fd);

    HttpServerOptions options_;
    HttpHandler handler_;

    int listener_fd_;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> connections_accepted_{0};
    std::atomic<std::uint64_t> requests_served_{0};

    std::thread acceptor_;
    std::vector<std::thread> workers_; ///< touched by start()/stop() only
    util::Mutex mutex_;
    util::CondVar queue_cv_;
    std::deque<int> pending_fds_ GUARDED_BY(mutex_);
};

/**
 * Blocking keep-alive client for loopback round trips. Not
 * thread-safe; give each thread its own client. request() throws
 * std::runtime_error when the server cannot be reached or answers
 * with something that is not HTTP.
 */
class HttpClient
{
  public:
    explicit HttpClient(std::uint16_t port) : port_(port) {}
    ~HttpClient();

    HttpClient(const HttpClient&) = delete;
    HttpClient& operator=(const HttpClient&) = delete;

    /** Extra request headers as (name, value) pairs. */
    using HeaderList = std::vector<std::pair<std::string, std::string>>;

    /** Send one request and read the full response. The connection is
     *  reused across calls and transparently re-opened when the server
     *  closed it. `headers` are sent verbatim after the standard ones
     *  (e.g. {{"X-Prosperity-Trace", "<id>"}}). */
    HttpResponse request(const std::string& method,
                         const std::string& target,
                         const std::string& body = "",
                         const std::string& content_type =
                             "application/json",
                         const HeaderList& headers = {});

    HttpResponse get(const std::string& target)
    {
        return request("GET", target);
    }
    HttpResponse post(const std::string& target, const std::string& body)
    {
        return request("POST", target, body);
    }

  private:
    bool tryRequest(const std::string& request_head,
                    const std::string& body, HttpResponse* response);

    std::uint16_t port_;
    int fd_ = -1;
};

} // namespace prosperity::serve

#endif // PROSPERITY_SERVE_HTTP_H
