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

    /** Grow the buffer by one read; false on EOF, timeout or stop. */
    bool fill()
    {
        if (timeout_ms >= 0) {
            int waited = 0;
            for (;;) {
                if (stop_flag && *stop_flag)
                    return false;
                const int slice =
                    std::min(100, timeout_ms - waited);
                if (net::waitReadable(fd, slice))
                    break;
                waited += std::max(slice, 1);
                if (waited >= timeout_ms)
                    return false; // idle/stalled: close it
            }
        }
        char chunk[4096];
        const std::size_t n = net::readSome(fd, chunk, sizeof(chunk));
        if (n == 0)
            return false;
        buffer.append(chunk, n);
        return true;
    }

    /** Read until the buffer holds a full header block. Returns the
     *  offset just past "\r\n\r\n", std::string::npos on clean EOF
     *  before any byte, or throws std::length_error past `limit`. */
    std::size_t readHeaderBlock(std::size_t limit)
    {
        std::size_t scanned = 0;
        for (;;) {
            const std::size_t end =
                buffer.find("\r\n\r\n",
                            scanned > 3 ? scanned - 3 : 0);
            if (end != std::string::npos)
                return end + 4;
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

    /** Ensure at least `size` bytes are buffered. */
    void readExact(std::size_t size)
    {
        while (buffer.size() < size)
            if (!fill())
                throw std::runtime_error(
                    "connection closed mid-body");
    }
};

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
parseRequest(ConnReader& reader, const HttpServerOptions& options,
             HttpRequest* request)
{
    ParseOutcome outcome;
    std::size_t header_end = 0;
    try {
        header_end = reader.readHeaderBlock(options.max_header_bytes);
    } catch (const std::length_error&) {
        outcome.error_status = 431;
        outcome.error_message = "request header block exceeds " +
                                std::to_string(options.max_header_bytes) +
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

    // Body (Content-Length only). RFC 9110 §8.6: the value is 1*DIGIT,
    // so a sign, a suffix ("2x") or an empty value is a 400; a value
    // too large for size_t is oversized like any other (413).
    std::size_t content_length = 0;
    if (const std::string* value = request->header("content-length")) {
        const char* end = value->data() + value->size();
        const auto [ptr, ec] =
            std::from_chars(value->data(), end, content_length);
        if (ec == std::errc::result_out_of_range && ptr == end) {
            content_length = std::numeric_limits<std::size_t>::max();
        } else if (ec != std::errc() || ptr != end) {
            outcome.error_status = 400;
            outcome.error_message = "malformed Content-Length";
            return outcome;
        }
    }
    if (content_length > options.max_body_bytes) {
        outcome.error_status = 413;
        outcome.error_message =
            "request body exceeds " +
            std::to_string(options.max_body_bytes) + " bytes";
        return outcome;
    }

    // A client that sent Expect: 100-continue (curl does for larger
    // bodies) is waiting for the interim response before the body.
    if (const std::string* expect = request->header("expect")) {
        if (toLower(*expect) == "100-continue")
            if (!net::writeAll(reader.fd,
                               "HTTP/1.1 100 Continue\r\n\r\n", 25)) {
                outcome.eof = true;
                return outcome;
            }
    }

    if (content_length > 0) {
        try {
            reader.readExact(content_length);
        } catch (const std::exception&) {
            outcome.eof = true;
            return outcome;
        }
        request->body = reader.buffer.substr(0, content_length);
        reader.buffer.erase(0, content_length);
        outcome.bytes += content_length;
    }
    return outcome;
}

std::string
renderResponse(const HttpResponse& response, bool keep_alive)
{
    std::string wire = "HTTP/1.1 " + std::to_string(response.status) +
                       ' ' + statusReason(response.status) + "\r\n";
    wire += "Content-Type: " + response.content_type + "\r\n";
    wire += "Content-Length: " + std::to_string(response.body.size()) +
            "\r\n";
    wire += keep_alive ? "Connection: keep-alive\r\n"
                       : "Connection: close\r\n";
    wire += "\r\n";
    wire += response.body;
    return wire;
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
    response.body = value.dump(2) + "\n";
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
        net::openListener(options_.port, options_.backlog, &port_);
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
    ConnReader reader{fd, {}, options_.read_timeout_ms, &stopping_};
    // Keep-alive request loop; any parse error answers and closes.
    while (!stopping_) {
        HttpRequest request;
        ParseOutcome outcome;
        try {
            outcome = parseRequest(reader, options_, &request);
        } catch (const std::exception&) {
            return; // transport error: nothing sane left to send
        }
        if (outcome.bytes > 0)
            byteCounters().request_bytes.add(outcome.bytes);
        if (outcome.eof)
            return;
        if (outcome.error_status != 0) {
            const HttpResponse response = HttpResponse::error(
                outcome.error_status, outcome.error_message);
            const std::string wire = renderResponse(response, false);
            (void)net::writeAll(fd, wire.data(), wire.size());
            byteCounters().response_bytes.add(wire.size());
            ++requests_served_;
            countResponse(response.status);
            return;
        }

        HttpResponse response;
        try {
            response = handler_(request);
        } catch (const std::exception& e) {
            response = HttpResponse::error(500, e.what());
        } catch (...) {
            response = HttpResponse::error(500, "unknown server error");
        }
        const std::string wire =
            renderResponse(response, outcome.keep_alive);
        const bool delivered =
            net::writeAll(fd, wire.data(), wire.size());
        byteCounters().response_bytes.add(wire.size());
        ++requests_served_;
        countResponse(response.status);
        if (!delivered || !outcome.keep_alive)
            return;
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
    std::string wire = method + ' ' + target + " HTTP/1.1\r\n";
    wire += "Host: 127.0.0.1:" + std::to_string(port_) + "\r\n";
    if (!body.empty() || method == "POST" || method == "PUT") {
        wire += "Content-Type: " + content_type + "\r\n";
        wire += "Content-Length: " + std::to_string(body.size()) +
                "\r\n";
    }
    for (const auto& [name, value] : headers)
        wire += name + ": " + value + "\r\n";
    wire += "Connection: keep-alive\r\n\r\n";
    wire += body;

    HttpResponse response;
    if (tryRequest(wire, &response))
        return response;
    // The server may have closed an idle keep-alive connection between
    // requests; one reconnect attempt is the expected recovery.
    net::closeFd(fd_);
    fd_ = -1;
    if (!tryRequest(wire, &response))
        throw std::runtime_error("no HTTP response from 127.0.0.1:" +
                                 std::to_string(port_));
    return response;
}

bool
HttpClient::tryRequest(const std::string& wire, HttpResponse* response)
{
    if (fd_ < 0)
        fd_ = net::connectLoopback(port_);
    if (!net::writeAll(fd_, wire.data(), wire.size()))
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
            if (name == "content-length")
                content_length = std::stoull(value);
            else if (name == "content-type")
                response->content_type = value;
        }
        reader.readExact(content_length);
        response->body = reader.buffer.substr(0, content_length);
        reader.buffer.erase(0, content_length);
        return true;
    }
}

} // namespace prosperity::serve
