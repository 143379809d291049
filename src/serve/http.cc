#include "http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/socket.h"

namespace prosperity::serve {

namespace {

/** Bump prosperity_http_responses_total{code="<status>"}. The lookup
 *  takes the registry mutex; that is fine here — the HTTP write path
 *  is not latency-critical the way the simulation record path is. */
void
countResponse(int status)
{
    obs::MetricsRegistry::global()
        .counter("prosperity_http_responses_total",
                 "HTTP responses by status code",
                 {{"code", std::to_string(status)}})
        .add();
}

obs::Counter&
connectionsCounter()
{
    static obs::Counter& counter = obs::MetricsRegistry::global().counter(
        "prosperity_http_connections_total",
        "TCP connections accepted");
    return counter;
}

/** Wire-volume counters: request bytes parsed, response bytes sent. */
struct HttpByteCounters
{
    obs::Counter& request_bytes;
    obs::Counter& response_bytes;
};

HttpByteCounters&
byteCounters()
{
    static HttpByteCounters counters{
        obs::MetricsRegistry::global().counter(
            "prosperity_http_request_bytes_total",
            "Request bytes received (header block + body)"),
        obs::MetricsRegistry::global().counter(
            "prosperity_http_response_bytes_total",
            "Response bytes written on the wire (status line + "
            "headers + body)"),
    };
    return counters;
}

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** %xx-decode; '+' becomes a space in query strings only. */
std::string
percentDecode(const std::string& s, bool plus_is_space)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%' && i + 2 < s.size()) {
            const int hi = hexDigit(s[i + 1]);
            const int lo = hexDigit(s[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out.push_back(static_cast<char>(hi * 16 + lo));
                i += 2;
                continue;
            }
        }
        if (plus_is_space && s[i] == '+') {
            out.push_back(' ');
            continue;
        }
        out.push_back(s[i]);
    }
    return out;
}

/** Split the raw target into decoded path + query pairs. */
void
parseTarget(const std::string& target, HttpRequest* request)
{
    const std::size_t qmark = target.find('?');
    request->path = percentDecode(target.substr(0, qmark), false);
    if (qmark == std::string::npos)
        return;
    std::size_t begin = qmark + 1;
    while (begin <= target.size()) {
        std::size_t end = target.find('&', begin);
        if (end == std::string::npos)
            end = target.size();
        const std::string pair = target.substr(begin, end - begin);
        if (!pair.empty()) {
            const std::size_t eq = pair.find('=');
            if (eq == std::string::npos)
                request->query.emplace_back(percentDecode(pair, true),
                                            "");
            else
                request->query.emplace_back(
                    percentDecode(pair.substr(0, eq), true),
                    percentDecode(pair.substr(eq + 1), true));
        }
        begin = end + 1;
    }
}

std::string
trim(const std::string& s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end && (s[begin] == ' ' || s[begin] == '\t'))
        ++begin;
    while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t'))
        --end;
    return s.substr(begin, end - begin);
}

/** Body bytes a read may size its destination for before any have
 *  arrived; past it the destination grows to twice what has arrived. */
constexpr std::size_t kBodyStep = std::size_t{1} << 20;

/** Pending connections the listening socket queues for accept(). */
constexpr int kListenBacklog = 64;

/** Buffered reader over one connection: bytes read past the current
 *  request stay available for the next one (keep-alive pipelining).
 *  With `timeout_ms >= 0` (the server side), a read waits in 100 ms
 *  poll slices so a stop flag interrupts it, and a connection that
 *  delivers nothing for the whole timeout counts as gone — blocked
 *  workers stay reclaimable. The client side reads blocking
 *  (`timeout_ms < 0`). */
struct ConnReader
{
    int fd;
    std::string buffer;
    int timeout_ms = -1;
    const std::atomic<bool>* stop_flag = nullptr;

    /** Read up to `size` bytes into `data`; 0 on EOF, timeout or
     *  stop. */
    std::size_t readInto(char* data, std::size_t size)
    {
        if (timeout_ms >= 0) {
            int waited = 0;
            for (;;) {
                if (stop_flag && *stop_flag)
                    return 0;
                const int slice =
                    std::min(100, timeout_ms - waited);
                if (net::waitReadable(fd, slice))
                    break;
                waited += std::max(slice, 1);
                if (waited >= timeout_ms)
                    return 0; // idle/stalled: close it
            }
        }
        return net::readSome(fd, data, size);
    }

    /** Grow the buffer by one read; false on EOF, timeout or stop. */
    bool fill()
    {
        char chunk[4096];
        const std::size_t n = readInto(chunk, sizeof(chunk));
        buffer.append(chunk, n);
        return n > 0;
    }

    /** Read until the buffer holds a full header block. Returns the
     *  offset just past "\r\n\r\n" (the block's length),
     *  std::string::npos on clean EOF before any byte, or throws
     *  std::length_error when the block is longer than `limit`. A
     *  block with no end in sight is given up once the buffer passes
     *  `limit`, so it holds at most one read more. */
    std::size_t readHeaderBlock(std::size_t limit)
    {
        std::size_t scanned = 0;
        for (;;) {
            const std::size_t end =
                buffer.find("\r\n\r\n",
                            scanned > 3 ? scanned - 3 : 0);
            if (end != std::string::npos) {
                if (end + 4 > limit)
                    throw std::length_error("header block too large");
                return end + 4;
            }
            scanned = buffer.size();
            if (buffer.size() > limit)
                throw std::length_error("header block too large");
            if (!fill()) {
                if (buffer.empty())
                    return std::string::npos;
                throw std::runtime_error(
                    "connection closed mid-request");
            }
        }
    }

    /** Read the next `size` bytes into `body`. The bytes the header
     *  read buffered past the head move over first; the rest is
     *  received straight into `body`. `body` grows only with bytes
     *  that have arrived (to twice them, or kBodyStep), so a length
     *  the peer never sends sizes no allocation. Throws
     *  std::runtime_error on EOF, timeout or stop. */
    void readBody(std::size_t size, std::string* body)
    {
        std::size_t have = std::min(size, buffer.size());
        body->assign(buffer, 0, have);
        buffer.erase(0, have);
        while (have < size) {
            body->resize(std::min(size, std::max(2 * have, kBodyStep)));
            const std::size_t n =
                readInto(body->data() + have, body->size() - have);
            if (n == 0)
                throw std::runtime_error("connection closed mid-body");
            have += n;
        }
    }
};

/** RFC 9110 §8.6: a Content-Length value is 1*DIGIT, read whole, so a
 *  sign, a suffix ("2x") or an empty value is malformed (false). A
 *  value too large for size_t reads as its maximum, over any cap. */
bool
parseContentLength(const std::string& value, std::size_t* length)
{
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, *length);
    if (ec == std::errc::invalid_argument || ptr != end)
        return false;
    if (ec == std::errc::result_out_of_range)
        *length = std::numeric_limits<std::size_t>::max();
    return true;
}

/** Everything the per-request parser can report to the write path. */
struct ParseOutcome
{
    bool eof = false;        ///< clean EOF, nothing to answer
    bool keep_alive = false; ///< honor keep-alive after the response
    int error_status = 0;    ///< non-zero: respond with this and close
    std::string error_message;
    std::size_t bytes = 0;   ///< request bytes consumed (header + body)
};

ParseOutcome
parseRequest(ConnReader& reader, HttpRequest* request)
{
    ParseOutcome outcome;
    std::size_t header_end = 0;
    try {
        header_end = reader.readHeaderBlock(kMaxHeaderBytes);
    } catch (const std::length_error&) {
        outcome.error_status = 431;
        outcome.error_message = "request header block exceeds " +
                                std::to_string(kMaxHeaderBytes) +
                                " bytes";
        return outcome;
    } catch (const std::exception&) {
        outcome.eof = true; // peer vanished mid-request: nothing to say
        return outcome;
    }
    if (header_end == std::string::npos) {
        outcome.eof = true;
        return outcome;
    }

    const std::string head = reader.buffer.substr(0, header_end);
    reader.buffer.erase(0, header_end);
    outcome.bytes = header_end;

    // Request line: METHOD SP target SP HTTP/1.x
    const std::size_t line_end = head.find("\r\n");
    const std::string line = head.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
        outcome.error_status = 400;
        outcome.error_message = "malformed request line";
        return outcome;
    }
    request->method = line.substr(0, sp1);
    request->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (request->method.empty() || request->target.empty() ||
        request->target[0] != '/') {
        outcome.error_status = 400;
        outcome.error_message = "malformed request target";
        return outcome;
    }
    parseTarget(request->target, request);
    const bool http11 = line.compare(sp2 + 1, 8, "HTTP/1.1") == 0;

    // Header fields.
    std::size_t pos = line_end + 2;
    while (pos + 2 <= head.size()) {
        const std::size_t eol = head.find("\r\n", pos);
        if (eol == pos || eol == std::string::npos)
            break;
        const std::string field = head.substr(pos, eol - pos);
        pos = eol + 2;
        const std::size_t colon = field.find(':');
        if (colon == std::string::npos) {
            outcome.error_status = 400;
            outcome.error_message = "malformed header field";
            return outcome;
        }
        request->headers.emplace_back(
            toLower(trim(field.substr(0, colon))),
            trim(field.substr(colon + 1)));
    }

    if (request->header("transfer-encoding")) {
        outcome.error_status = 501;
        outcome.error_message =
            "transfer-encoding is not supported; send a "
            "Content-Length body";
        return outcome;
    }

    const std::string* connection = request->header("connection");
    outcome.keep_alive =
        connection ? toLower(*connection) != "close" : http11;

    // Body (Content-Length only): a malformed value is a 400, and one
    // too large for size_t is oversized like any other (413).
    std::size_t content_length = 0;
    if (const std::string* value = request->header("content-length")) {
        if (!parseContentLength(*value, &content_length)) {
            outcome.error_status = 400;
            outcome.error_message = "malformed Content-Length";
            return outcome;
        }
    }
    if (content_length > kMaxBodyBytes) {
        outcome.error_status = 413;
        outcome.error_message =
            "request body exceeds " +
            std::to_string(kMaxBodyBytes) + " bytes";
        return outcome;
    }

    // A client that sent Expect: 100-continue (curl does for larger
    // bodies) is waiting for the interim response before the body.
    if (const std::string* expect = request->header("expect")) {
        if (toLower(*expect) == "100-continue")
            if (!net::writeAll(reader.fd,
                               "HTTP/1.1 100 Continue\r\n\r\n")) {
                outcome.eof = true;
                return outcome;
            }
    }

    if (content_length > 0) {
        try {
            reader.readBody(content_length, &request->body);
        } catch (const std::exception&) {
            outcome.eof = true;
            return outcome;
        }
        outcome.bytes += content_length;
    }
    return outcome;
}

/** Status line and headers of `response`; its body follows on the
 *  wire in the same gathered send. */
std::string
responseHead(const HttpResponse& response, bool keep_alive)
{
    std::string head = "HTTP/1.1 " + std::to_string(response.status) +
                       ' ' + statusReason(response.status) + "\r\n";
    head += "Content-Type: " + response.content_type + "\r\n";
    head += "Content-Length: " + std::to_string(response.body.size()) +
            "\r\n";
    head += keep_alive ? "Connection: keep-alive\r\n"
                       : "Connection: close\r\n";
    head += "\r\n";
    return head;
}

} // namespace

const std::string*
HttpRequest::header(const std::string& name) const
{
    const std::string lowered = toLower(name);
    for (const auto& [key, value] : headers)
        if (key == lowered)
            return &value;
    return nullptr;
}

std::string
HttpRequest::queryValue(const std::string& key,
                        const std::string& fallback) const
{
    for (const auto& [k, v] : query)
        if (k == key)
            return v;
    return fallback;
}

HttpResponse
HttpResponse::json(int status, const json::Value& value)
{
    HttpResponse response;
    response.status = status;
    response.content_type = "application/json";
    response.body = value.dump(2);
    response.body += '\n';
    return response;
}

HttpResponse
HttpResponse::error(int status, const std::string& message)
{
    json::Value detail = json::Value::object();
    detail.set("status", status);
    detail.set("message", message);
    json::Value root = json::Value::object();
    root.set("error", std::move(detail));
    return json(status, root);
}

HttpResponse
HttpResponse::text(int status, std::string body, std::string content_type)
{
    HttpResponse response;
    response.status = status;
    response.content_type = std::move(content_type);
    response.body = std::move(body);
    return response;
}

const char*
statusReason(int status)
{
    switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default:  return "Status";
    }
}

HttpServer::HttpServer(HttpServerOptions options, HttpHandler handler)
    : options_(options), handler_(std::move(handler)),
      listener_fd_(net::kInvalidFd)
{
    if (options_.threads == 0)
        options_.threads = 1;
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start()
{
    if (running_)
        return;
    listener_fd_ =
        net::openListener(options_.port, kListenBacklog, &port_);
    stopping_ = false;
    running_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    workers_.reserve(options_.threads);
    for (std::size_t i = 0; i < options_.threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
HttpServer::stop()
{
    if (!running_)
        return;
    {
        // Flip the flag under the queue mutex: a worker between its
        // predicate check and blocking in wait() must not miss the
        // notification (same discipline as ~SimulationEngine).
        util::MutexLock lock(mutex_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    if (acceptor_.joinable())
        acceptor_.join();
    for (std::thread& worker : workers_)
        worker.join();
    workers_.clear();
    {
        util::MutexLock lock(mutex_);
        for (const int fd : pending_fds_)
            net::closeFd(fd);
        pending_fds_.clear();
    }
    net::closeFd(listener_fd_);
    listener_fd_ = net::kInvalidFd;
    running_ = false;
}

void
HttpServer::acceptLoop()
{
    // Polling accept (100 ms) instead of a blocking one: close()-ing a
    // listening socket does not reliably wake a blocked accept(), and
    // a stop flag poll needs no platform-specific self-pipe tricks.
    while (!stopping_) {
        int fd = net::kInvalidFd;
        try {
            fd = net::acceptWithTimeout(listener_fd_, 100);
        } catch (const std::exception&) {
            return; // listener is gone; stop() is tearing us down
        }
        if (fd == net::kInvalidFd)
            continue;
        ++connections_accepted_;
        connectionsCounter().add();
        {
            util::MutexLock lock(mutex_);
            pending_fds_.push_back(fd);
        }
        queue_cv_.notify_one();
    }
}

void
HttpServer::workerLoop()
{
    for (;;) {
        int fd = net::kInvalidFd;
        {
            util::UniqueLock lock(mutex_);
            while (!stopping_ && pending_fds_.empty())
                queue_cv_.wait(lock);
            if (pending_fds_.empty())
                return; // stopping, nothing queued
            fd = pending_fds_.front();
            pending_fds_.pop_front();
        }
        serveConnection(fd);
    }
}

void
HttpServer::serveConnection(int fd)
{
    net::Socket sock(fd);
    // Head and body leave in one gathered send; false when undelivered.
    const auto respond = [&](const HttpResponse& response,
                             bool keep_alive) {
        const std::string head = responseHead(response, keep_alive);
        const bool delivered = net::writeAll(fd, head, response.body);
        byteCounters().response_bytes.add(head.size() +
                                          response.body.size());
        ++requests_served_;
        countResponse(response.status);
        return delivered;
    };
    try {
        // A peer that stops reading is bounded like one that stops
        // sending: a send with no progress for the read timeout fails.
        net::setSendTimeout(fd, options_.read_timeout_ms);
        ConnReader reader{fd, {}, options_.read_timeout_ms, &stopping_};
        // Keep-alive request loop; any parse error answers and closes.
        while (!stopping_) {
            HttpRequest request;
            const ParseOutcome outcome =
                parseRequest(reader, &request);
            if (outcome.bytes > 0)
                byteCounters().request_bytes.add(outcome.bytes);
            if (outcome.eof)
                return;
            if (outcome.error_status != 0) {
                (void)respond(HttpResponse::error(outcome.error_status,
                                                  outcome.error_message),
                              false);
                return;
            }

            HttpResponse response;
            try {
                response = handler_(request);
            } catch (const std::exception& e) {
                response = HttpResponse::error(500, e.what());
            } catch (...) {
                response =
                    HttpResponse::error(500, "unknown server error");
            }
            if (!respond(response, outcome.keep_alive) ||
                !outcome.keep_alive)
                return;
        }
    } catch (const std::exception&) {
        // A transport error (recv, send) ends this connection only:
        // nothing sane is left to send on it, and the worker moves on.
    }
}

HttpClient::~HttpClient()
{
    net::closeFd(fd_);
}

HttpResponse
HttpClient::request(const std::string& method, const std::string& target,
                    const std::string& body,
                    const std::string& content_type,
                    const HeaderList& headers)
{
    std::string head = method + ' ' + target + " HTTP/1.1\r\n";
    head += "Host: 127.0.0.1:" + std::to_string(port_) + "\r\n";
    if (!body.empty() || method == "POST" || method == "PUT") {
        head += "Content-Type: " + content_type + "\r\n";
        head += "Content-Length: " + std::to_string(body.size()) +
                "\r\n";
    }
    for (const auto& [name, value] : headers)
        head += name + ": " + value + "\r\n";
    head += "Connection: keep-alive\r\n\r\n";

    HttpResponse response;
    try {
        if (tryRequest(head, body, &response))
            return response;
        // The server may have closed an idle keep-alive connection
        // between requests; one reconnect attempt is the expected
        // recovery.
        net::closeFd(fd_);
        fd_ = -1;
        if (tryRequest(head, body, &response))
            return response;
    } catch (const std::exception&) {
        // The stream stopped at an unknown offset: the next request
        // starts on a new connection.
        net::closeFd(fd_);
        fd_ = -1;
        throw;
    }
    throw std::runtime_error("no HTTP response from 127.0.0.1:" +
                             std::to_string(port_));
}

bool
HttpClient::tryRequest(const std::string& request_head,
                       const std::string& body, HttpResponse* response)
{
    if (fd_ < 0)
        fd_ = net::connectLoopback(port_);
    if (!net::writeAll(fd_, request_head, body))
        return false;

    ConnReader reader{fd_, {}};
    for (;;) {
        std::size_t header_end = 0;
        try {
            header_end = reader.readHeaderBlock(1u << 20);
        } catch (const std::exception&) {
            return false;
        }
        if (header_end == std::string::npos)
            return false;

        const std::string head = reader.buffer.substr(0, header_end);
        reader.buffer.erase(0, header_end);
        const std::size_t line_end = head.find("\r\n");
        const std::string line = head.substr(0, line_end);
        if (line.compare(0, 5, "HTTP/") != 0)
            throw std::runtime_error("malformed HTTP status line: " +
                                     line);
        const std::size_t sp = line.find(' ');
        response->status = std::stoi(line.substr(sp + 1));
        if (response->status == 100)
            continue; // interim response; the real one follows

        std::size_t content_length = 0;
        std::size_t pos = line_end + 2;
        while (pos + 2 <= head.size()) {
            const std::size_t eol = head.find("\r\n", pos);
            if (eol == pos || eol == std::string::npos)
                break;
            const std::string field = head.substr(pos, eol - pos);
            pos = eol + 2;
            const std::size_t colon = field.find(':');
            if (colon == std::string::npos)
                continue;
            const std::string name = toLower(trim(field.substr(0, colon)));
            const std::string value = trim(field.substr(colon + 1));
            if (name == "content-length" &&
                !parseContentLength(value, &content_length))
                throw std::runtime_error(
                    "malformed Content-Length in response: \"" + value +
                    '"');
            if (name == "content-type")
                response->content_type = value;
        }
        reader.readBody(content_length, &response->body);
        return true;
    }
}

} // namespace prosperity::serve
