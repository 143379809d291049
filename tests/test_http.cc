/**
 * @file
 * Tests for the dependency-free HTTP/1.1 layer: loopback round trips,
 * keep-alive connection reuse, concurrent clients, large bodies in
 * both directions, the malformed-request surface (bad request lines,
 * oversized bodies and header blocks, Expect: 100-continue), a client
 * that stops reading, and the client's reading of raw responses — all
 * against live sockets on ephemeral ports, no mocks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "obs/metrics.h"
#include "serve/http.h"
#include "util/json.h"
#include "util/socket.h"

namespace prosperity::serve {
namespace {

/** Echo server: answers with a JSON description of the request. */
HttpResponse
echoHandler(const HttpRequest& request)
{
    json::Value root = json::Value::object();
    root.set("method", request.method);
    root.set("path", request.path);
    root.set("body", request.body);
    root.set("format", request.queryValue("format", "(none)"));
    return HttpResponse::json(200, root);
}

/** Raw echo: the response body is the request body, byte for byte. */
HttpResponse
bodyEchoHandler(const HttpRequest& request)
{
    return HttpResponse::text(200, request.body, "application/octet-stream");
}

/** `size` bytes of a pattern that repeats every 251 bytes, so a
 *  dropped, doubled or shifted byte changes the comparison. */
std::string
patternBytes(std::size_t size, unsigned offset)
{
    std::string bytes(size, '\0');
    for (std::size_t i = 0; i < size; ++i)
        bytes[i] = static_cast<char>((i + offset) % 251);
    return bytes;
}

HttpServerOptions
testOptions()
{
    HttpServerOptions options;
    options.port = 0; // ephemeral
    options.threads = 2;
    return options;
}

/** requestsServed() increments *after* the response bytes are written,
 *  so a client can observe its response before the counter moves —
 *  give the worker a moment to catch up before asserting. */
void
expectRequestsServed(const HttpServer& server, std::uint64_t expected)
{
    for (int i = 0; i < 100 && server.requestsServed() != expected; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.requestsServed(), expected);
}

TEST(HttpServer, StartStopAssignsEphemeralPort)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    EXPECT_NE(server.port(), 0);
    EXPECT_TRUE(server.running());
    server.stop();
    EXPECT_FALSE(server.running());
    // stop() is idempotent.
    server.stop();
}

TEST(HttpServer, GetRoundTrip)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    HttpClient client(server.port());

    const HttpResponse response =
        client.get("/hello/world?format=csv&x=1");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.content_type, "application/json");
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("method").asString(), "GET");
    EXPECT_EQ(body.at("path").asString(), "/hello/world");
    EXPECT_EQ(body.at("format").asString(), "csv");
}

TEST(HttpServer, PostBodyRoundTrip)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    HttpClient client(server.port());

    const std::string payload = "{\"answer\": 42}";
    const HttpResponse response = client.post("/submit", payload);
    EXPECT_EQ(response.status, 200);
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("method").asString(), "POST");
    EXPECT_EQ(body.at("body").asString(), payload);
}

TEST(HttpServer, PercentDecodingInPathAndQuery)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    HttpClient client(server.port());

    const HttpResponse response =
        client.get("/v1/jobs/a%20b?format=c%2Bsv");
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("path").asString(), "/v1/jobs/a b");
    EXPECT_EQ(body.at("format").asString(), "c+sv");
}

TEST(HttpServer, KeepAliveReusesOneConnection)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    HttpClient client(server.port());

    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(client.get("/ping").status, 200);
    expectRequestsServed(server, 5);
    EXPECT_EQ(server.connectionsAccepted(), 1u);
}

TEST(HttpServer, HandlerStatusAndErrorsPassThrough)
{
    HttpServer server(testOptions(), [](const HttpRequest& request) {
        if (request.path == "/missing")
            return HttpResponse::error(404, "no such thing");
        if (request.path == "/throws")
            throw std::runtime_error("handler exploded");
        return HttpResponse::text(200, "ok");
    });
    server.start();
    HttpClient client(server.port());

    const HttpResponse missing = client.get("/missing");
    EXPECT_EQ(missing.status, 404);
    const json::Value error = json::Value::parse(missing.body);
    EXPECT_EQ(error.at("error").at("message").asString(),
              "no such thing");

    // A throwing handler becomes a structured 500, and the server
    // (plus the connection) survives it.
    const HttpResponse thrown = client.get("/throws");
    EXPECT_EQ(thrown.status, 500);
    EXPECT_NE(json::Value::parse(thrown.body)
                  .at("error")
                  .at("message")
                  .asString()
                  .find("handler exploded"),
              std::string::npos);
    EXPECT_EQ(client.get("/fine").status, 200);
}

TEST(HttpServer, ConcurrentClients)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();

    constexpr int kThreads = 4;
    constexpr int kRequests = 25;
    std::vector<std::thread> clients;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t)
        clients.emplace_back([&, t] {
            HttpClient client(server.port());
            for (int i = 0; i < kRequests; ++i) {
                const HttpResponse response = client.post(
                    "/job", std::to_string(t * kRequests + i));
                if (response.status != 200)
                    ++failures[t];
            }
        });
    for (std::thread& thread : clients)
        thread.join();
    for (const int f : failures)
        EXPECT_EQ(f, 0);
    expectRequestsServed(server,
                         static_cast<std::uint64_t>(kThreads) *
                             kRequests);
}

/** Everything `fd` delivers until EOF. */
std::string
readToEof(int fd)
{
    std::string bytes;
    char chunk[4096];
    for (;;) {
        const std::size_t n = net::readSome(fd, chunk, sizeof(chunk));
        if (n == 0)
            return bytes;
        bytes.append(chunk, n);
    }
}

/** Raw-socket request helper for malformed-input tests the HttpClient
 *  refuses to produce. Returns everything the server sends back. */
std::string
rawExchange(std::uint16_t port, const std::string& wire)
{
    net::Socket sock(net::connectLoopback(port));
    EXPECT_TRUE(net::writeAll(sock.fd(), wire));
    return readToEof(sock.fd());
}

/** Bodies of the Content-Length responses in `wire`, in order. */
std::vector<std::string>
responseBodies(const std::string& wire)
{
    std::vector<std::string> bodies;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t head_end = wire.find("\r\n\r\n", pos);
        const std::size_t field = wire.find("Content-Length: ", pos);
        if (head_end == std::string::npos || field > head_end)
            return bodies;
        const std::size_t length = std::stoul(wire.substr(field + 16));
        bodies.push_back(wire.substr(head_end + 4, length));
        pos = head_end + 4 + length;
    }
}

/**
 * Raw server for client tests: it answers every connection by reading
 * the request head (the tests send bodiless GETs), handing the socket
 * to `answer`, then closing it.
 */
class RawServer
{
  public:
    explicit RawServer(std::function<void(int fd)> answer)
        : answer_(std::move(answer)),
          listener_(net::openListener(0, 4, &port_)),
          thread_([this] { run(); })
    {
    }
    ~RawServer()
    {
        stop_ = true;
        thread_.join();
    }
    RawServer(const RawServer&) = delete;
    RawServer& operator=(const RawServer&) = delete;

    std::uint16_t port() const { return port_; }

  private:
    void run()
    {
        while (!stop_) {
            const int fd = net::acceptWithTimeout(listener_.fd(), 50);
            if (fd == net::kInvalidFd)
                continue;
            net::Socket sock(fd);
            std::string head;
            char byte = 0;
            while (head.find("\r\n\r\n") == std::string::npos &&
                   net::readSome(fd, &byte, 1) == 1)
                head += byte;
            answer_(fd);
        }
    }

    std::function<void(int fd)> answer_;
    std::uint16_t port_ = 0;
    net::Socket listener_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

TEST(HttpServer, MalformedRequestLineIs400)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    const std::string reply =
        rawExchange(server.port(), "NONSENSE\r\n\r\n");
    EXPECT_EQ(reply.compare(0, 17, "HTTP/1.1 400 Bad "), 0) << reply;
}

TEST(HttpServer, OversizedBodyIs413)
{
    // The length alone decides: no body byte is sent.
    HttpServer server(testOptions(), echoHandler);
    server.start();
    const std::string reply = rawExchange(
        server.port(), "POST /x HTTP/1.1\r\nContent-Length: " +
                           std::to_string(kMaxBodyBytes + 1) +
                           "\r\n\r\n");
    EXPECT_EQ(reply.compare(0, 12, "HTTP/1.1 413"), 0) << reply;
}

TEST(HttpServer, HeaderBlockOverTheCapIs431)
{
    // The cap counts the whole block, from the request line through
    // the blank line that ends it: one byte more is a 431.
    HttpServer server(testOptions(), echoHandler);
    server.start();
    const auto headerBlock = [](std::size_t size) {
        std::string block = "GET /x HTTP/1.1\r\nConnection: close\r\n"
                            "X-Pad: ";
        block.append(size - block.size() - 4, 'a');
        return block + "\r\n\r\n";
    };
    ASSERT_EQ(headerBlock(kMaxHeaderBytes).size(), kMaxHeaderBytes);
    const std::string at_cap =
        rawExchange(server.port(), headerBlock(kMaxHeaderBytes));
    EXPECT_EQ(at_cap.compare(0, 12, "HTTP/1.1 200"), 0) << at_cap;
    const std::string over =
        rawExchange(server.port(), headerBlock(kMaxHeaderBytes + 1));
    EXPECT_EQ(over.compare(0, 12, "HTTP/1.1 431"), 0) << over;
}

TEST(HttpServer, NonDigitContentLengthIs400)
{
    // RFC 9110 §8.6: Content-Length is digits only. A sign, a suffix
    // or an empty value is malformed, not read for its leading digits.
    HttpServer server(testOptions(), echoHandler);
    server.start();
    for (const char* value : {"2x", "+2", "-1", ""}) {
        const std::string reply = rawExchange(
            server.port(), std::string("POST /x HTTP/1.1\r\n"
                                       "Content-Length: ") +
                               value +
                               "\r\nConnection: close\r\n\r\nhi");
        EXPECT_EQ(reply.compare(0, 12, "HTTP/1.1 400"), 0)
            << "Content-Length \"" << value << "\": " << reply;
        EXPECT_NE(reply.find("malformed Content-Length"),
                  std::string::npos)
            << reply;
    }
}

TEST(HttpServer, Expect100ContinueGetsInterimResponse)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    // curl sends this for larger POST bodies and stalls without the
    // interim reply.
    const std::string reply = rawExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nContent-Length: 2\r\n"
        "Expect: 100-continue\r\nConnection: close\r\n\r\nhi");
    EXPECT_EQ(reply.compare(0, 25, "HTTP/1.1 100 Continue\r\n\r\n"), 0)
        << reply;
    EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(reply.find("\"body\": \"hi\""), std::string::npos);
}

TEST(HttpServer, StopReturnsWithAnIdleKeepAliveConnectionOpen)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    // A client that made a request and then went idle must not be
    // able to hang shutdown: the worker's read polls the stop flag.
    HttpClient client(server.port());
    ASSERT_EQ(client.get("/ping").status, 200);
    const auto t0 = std::chrono::steady_clock::now();
    server.stop();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              2000);
}

TEST(HttpServer, IdleConnectionsAreReaped)
{
    HttpServerOptions options = testOptions();
    options.read_timeout_ms = 200;
    HttpServer server(options, echoHandler);
    server.start();
    // A connection that never sends a request is closed after the
    // read timeout (EOF on our end), freeing its worker for others.
    net::Socket idle(net::connectLoopback(server.port()));
    char byte = 0;
    EXPECT_EQ(net::readSome(idle.fd(), &byte, 1), 0u);
    // The pool is healthy afterwards.
    HttpClient client(server.port());
    EXPECT_EQ(client.get("/ping").status, 200);
}

TEST(HttpServer, TransferEncodingIsRejected)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    const std::string reply = rawExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    EXPECT_EQ(reply.compare(0, 12, "HTTP/1.1 501"), 0) << reply;
}

TEST(HttpServer, MegabyteBodyIsEchoedByteForByte)
{
    HttpServer server(testOptions(), bodyEchoHandler);
    server.start();
    HttpClient client(server.port());

    const std::string payload = patternBytes((1u << 20) + 13, 0);
    const HttpResponse response = client.post("/echo", payload);
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.content_type, "application/octet-stream");
    ASSERT_EQ(response.body.size(), payload.size());
    EXPECT_TRUE(response.body == payload);
}

TEST(HttpServer, TwoLargeRequestsOnOneConnection)
{
    HttpServer server(testOptions(), bodyEchoHandler);
    server.start();
    // Sent back to back, the tiny middle request's head and body
    // arrive in one read with the last request's head, so that body
    // starts in the reader's buffer and must end where its length says.
    const std::vector<std::string> bodies = {
        patternBytes((1u << 20) + 13, 1), "tiny",
        patternBytes(700001, 2)};
    std::string wire;
    for (std::size_t i = 0; i < bodies.size(); ++i)
        wire += "POST /echo HTTP/1.1\r\nContent-Length: " +
                std::to_string(bodies[i].size()) +
                (i + 1 == bodies.size() ? "\r\nConnection: close" : "") +
                "\r\n\r\n" + bodies[i];

    net::Socket sock(net::connectLoopback(server.port()));
    // Replies are read while the requests still go out, so neither
    // side's socket buffer has to hold a whole body.
    std::thread writer(
        [&] { EXPECT_TRUE(net::writeAll(sock.fd(), wire)); });
    const std::string reply = readToEof(sock.fd());
    writer.join();

    const std::vector<std::string> echoed = responseBodies(reply);
    ASSERT_EQ(echoed.size(), bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i)
        EXPECT_TRUE(echoed[i] == bodies[i]) << "request " << i;
    EXPECT_EQ(server.connectionsAccepted(), 1u);
}

TEST(HttpServer, ResponseBytesCountHeadAndBody)
{
    HttpServer server(testOptions(), echoHandler);
    server.start();
    const std::string wire = "POST /count HTTP/1.1\r\nContent-Length: 5\r\n"
                             "Connection: close\r\n\r\nhello";
    (void)rawExchange(server.port(), wire); // registers the counter
    const obs::Counter& sent = obs::MetricsRegistry::global().counter(
        "prosperity_http_response_bytes_total", "");
    const std::uint64_t before = sent.value();
    // The server counts before it closes, and the reply ends at close.
    const std::string reply = rawExchange(server.port(), wire);
    EXPECT_NE(reply.find("\"body\": \"hello\""), std::string::npos);
    EXPECT_EQ(sent.value() - before, reply.size());
}

TEST(HttpServer, StalledReaderIsDropped)
{
    // One worker, and a client that asks for a body far larger than
    // the socket buffers and never reads it: the send makes no
    // progress, times out, and the worker serves the next client.
    HttpServerOptions options = testOptions();
    options.threads = 1;
    options.read_timeout_ms = 300;
    const std::string big(16u << 20, 'x');
    HttpServer server(options, [&big](const HttpRequest& request) {
        return HttpResponse::text(200, request.path == "/big" ? big : "ok");
    });
    server.start();

    net::Socket stalled(net::connectLoopback(server.port()));
    const int small_buffer = 4096;
    ASSERT_EQ(::setsockopt(stalled.fd(), SOL_SOCKET, SO_RCVBUF,
                           &small_buffer, sizeof(small_buffer)),
              0);
    ASSERT_TRUE(net::writeAll(stalled.fd(), "GET /big HTTP/1.1\r\n\r\n"));

    const std::uint16_t port = server.port();
    std::future<int> second = std::async(std::launch::async, [port] {
        HttpClient client(port);
        return client.get("/ping").status;
    });
    const bool served = second.wait_for(std::chrono::seconds(3)) ==
                        std::future_status::ready;
    stalled.reset(); // frees the worker if the send is still blocked
    EXPECT_TRUE(served) << "a reader that never reads held the worker";
    EXPECT_EQ(second.get(), 200);
}

TEST(HttpClient, ReadsABodyThatArrivesInPieces)
{
    const std::string body = patternBytes(300000, 3);
    RawServer server([&body](int fd) {
        const std::string head =
            "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream"
            "\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n";
        std::string_view rest(body);
        EXPECT_TRUE(net::writeAll(fd, head, rest.substr(0, 100)));
        rest.remove_prefix(100);
        const std::size_t third = rest.size() / 3;
        for (int i = 0; i < 3; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            const std::string_view piece =
                i < 2 ? rest.substr(0, third) : rest;
            EXPECT_TRUE(net::writeAll(fd, piece));
            rest.remove_prefix(piece.size());
        }
    });
    HttpClient client(server.port());
    const HttpResponse response = client.get("/pieces");
    EXPECT_EQ(response.status, 200);
    ASSERT_EQ(response.body.size(), body.size());
    EXPECT_TRUE(response.body == body);
}

TEST(HttpClient, ContentLengthIsDigitsOnly)
{
    // Each answer sends a short body and closes. A value read for its
    // leading digits would desync the next keep-alive response, and
    // one taken whole must not size a buffer before the bytes arrive.
    const std::pair<const char*, const char*> cases[] = {
        {"12abc", "malformed Content-Length in response: \"12abc\""},
        {"+12", "malformed Content-Length in response: \"+12\""},
        {"-1", "malformed Content-Length in response: \"-1\""},
        {"1152921504606846976", "connection closed mid-body"},
    };
    for (const auto& [value, expected] : cases) {
        const std::string answer = std::string("HTTP/1.1 200 OK\r\n"
                                               "Content-Length: ") +
                                   value + "\r\n\r\nshort";
        RawServer server([&answer](int fd) {
            EXPECT_TRUE(net::writeAll(fd, answer));
        });
        HttpClient client(server.port());
        try {
            (void)client.get("/x");
            ADD_FAILURE() << "Content-Length \"" << value << "\" was read";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), expected);
        }
    }
}

} // namespace
} // namespace prosperity::serve
