// Admin diagnostics plane (DESIGN.md §15): a real second HTTP listener
// next to the protocol port — /metrics freshness and exposition shape,
// /healthz liveness, the /readyz high-watermark flip, /statusz JSON,
// /flightz records, and the 404/405 edges.
#include "serve/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "serve/client.h"
#include "serve/server.h"

namespace cfcm::serve {
namespace {

// One blocking HTTP exchange against the admin plane; returns the full
// response (status line + headers + body), "" on socket failure.
std::string HttpRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& path) {
  return HttpRequest(port, "GET " + path +
                               " HTTP/1.1\r\nHost: t\r\n"
                               "Connection: close\r\n\r\n");
}

std::string Body(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

struct AdminFixture {
  explicit AdminFixture(HandlerOptions handler_options = {},
                        ServerOptions server_options = {})
      : handler(handler_options), server(&handler, [&] {
          server_options.port = 0;
          server_options.admin_port = 0;
          server_options.watchdog_interval_ms = 0;  // scrape-driven ticks
          return server_options;
        }()) {
    const Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_GT(server.admin_port(), 0);
  }
  ~AdminFixture() { server.Shutdown(); }

  ServeHandler handler;
  Server server;
};

TEST(AdminPlaneTest, MetricsEndpointServesFreshPrometheusText) {
  AdminFixture fixture;
  {
    auto client = ServeClient::Connect("127.0.0.1", fixture.server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client->SendLine(R"({"op":"load","graph":"g","source":"karate"})")
            .ok());
    ASSERT_TRUE(client->ReadLine().ok());
    ASSERT_TRUE(
        client
            ->SendLine(
                R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"seed":4})")
            .ok());
    ASSERT_TRUE(client->ReadLine().ok());
  }
  const std::string response =
      HttpGet(fixture.server.admin_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("# HELP "), std::string::npos);
  EXPECT_NE(body.find("# TYPE "), std::string::npos);
  EXPECT_NE(body.find("serve_solve_latency_us_bucket{le=\""),
            std::string::npos);
  // The scrape itself refreshes the watchdog gauges, so the resource
  // and catalog gauges are present without any sampling thread.
#if defined(__linux__)
  EXPECT_NE(body.find("process_rss_bytes"), std::string::npos);
#endif
  EXPECT_NE(body.find("catalog_bytes"), std::string::npos);
  EXPECT_NE(body.find("serve_queue_depth"), std::string::npos);
}

TEST(AdminPlaneTest, HealthzAnswersOkWhileRunning) {
  AdminFixture fixture;
  const std::string response =
      HttpGet(fixture.server.admin_port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_EQ(Body(response), "ok\n");
}

TEST(AdminPlaneTest, ReadyzFlips503WhenQueueCrossesHighWatermark) {
  // Admit-only mode: no workers ever drain the queue, so filling it past
  // the watermark is deterministic (same trick as the backpressure
  // test).
  ServerOptions server_options;
  server_options.num_workers = 0;
  server_options.max_queue = 4;
  AdminFixture fixture{{}, server_options};
  EXPECT_EQ(fixture.server.queue_high_watermark(), 3u);

  const std::string ready = HttpGet(fixture.server.admin_port(), "/readyz");
  EXPECT_NE(ready.find("HTTP/1.1 200 OK"), std::string::npos) << ready;
  EXPECT_EQ(Body(ready), "ready\n");

  auto client = ServeClient::Connect("127.0.0.1", fixture.server.port());
  ASSERT_TRUE(client.ok());
  std::string burst;
  for (int i = 0; i < 4; ++i) burst += R"({"op":"stats"})" "\n";
  ASSERT_TRUE(client->SendLine(burst.substr(0, burst.size() - 1)).ok());

  // The reader thread admits asynchronously; poll until the flip.
  std::string not_ready;
  for (int i = 0; i < 500; ++i) {
    not_ready = HttpGet(fixture.server.admin_port(), "/readyz");
    if (not_ready.find("503") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NE(not_ready.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos)
      << not_ready;
  EXPECT_NE(Body(not_ready).find("queue_high_watermark"), std::string::npos)
      << not_ready;
}

TEST(AdminPlaneTest, StatuszIsParseableJsonWithBuildAndConfig) {
  AdminFixture fixture;
  const std::string response =
      HttpGet(fixture.server.admin_port(), "/statusz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  StatusOr<JsonValue> parsed = JsonValue::Parse(Body(response));
  ASSERT_TRUE(parsed.ok()) << Body(response);
  const JsonValue* build = parsed->Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_TRUE(build->Find("version")->is_string());
  EXPECT_TRUE(parsed->Find("ready")->as_bool());
  const JsonValue* config = parsed->Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->Find("admin_port")->as_int(),
            fixture.server.admin_port());
  EXPECT_GE(parsed->Find("uptime_s")->as_int(), 0);
}

TEST(AdminPlaneTest, FlightzServesRecentAndPinnedRecords) {
  HandlerOptions handler_options;
  handler_options.flight_slow_us = 1;  // pin essentially every request
  AdminFixture fixture{handler_options};
  {
    auto client = ServeClient::Connect("127.0.0.1", fixture.server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client->SendLine(R"({"op":"load","graph":"g","source":"karate"})")
            .ok());
    ASSERT_TRUE(client->ReadLine().ok());
    ASSERT_TRUE(client
                    ->SendLine(
                        R"({"op":"solve","graph":"g","algorithm":"forest",)"
                        R"("k":3,"seed":4,"trace_id":"admin-test-trace"})")
                    .ok());
    ASSERT_TRUE(client->ReadLine().ok());
  }
  const std::string response =
      HttpGet(fixture.server.admin_port(), "/flightz?n=8");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  StatusOr<JsonValue> parsed = JsonValue::Parse(Body(response));
  ASSERT_TRUE(parsed.ok()) << Body(response);
  EXPECT_GE(parsed->Find("committed")->as_int(), 2);
  bool saw_trace = false;
  for (const JsonValue& record : parsed->Find("records")->array()) {
    const JsonValue* trace_id = record.Find("trace_id");
    if (trace_id != nullptr && trace_id->is_string() &&
        trace_id->as_string() == "admin-test-trace") {
      saw_trace = true;
      EXPECT_EQ(record.Find("graph")->as_string(), "g");
    }
  }
  EXPECT_TRUE(saw_trace) << Body(response);
  // The solve took >= 1us, so the pinned (slow) ring caught it too.
  EXPECT_FALSE(parsed->Find("pinned")->array().empty()) << Body(response);
}

TEST(AdminPlaneTest, FlightzPageMatchesFlightzOp) {
  HandlerOptions handler_options;
  handler_options.flight_slow_us = 1;  // pinned ring non-empty too
  AdminFixture fixture{handler_options};
  auto client = ServeClient::Connect("127.0.0.1", fixture.server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->SendLine(R"({"op":"load","graph":"g","source":"karate"})").ok());
  ASSERT_TRUE(client->ReadLine().ok());
  ASSERT_TRUE(client->SendLine(R"({"op":"solve","graph":"g","k":2})").ok());
  ASSERT_TRUE(client->ReadLine().ok());

  // The page first: the flightz op records itself only after building
  // its response, so both see the same two records.
  const std::string page =
      Body(HttpGet(fixture.server.admin_port(), "/flightz?n=8"));
  ASSERT_TRUE(client->SendLine(R"({"op":"flightz","n":8})").ok());
  StatusOr<std::string> line = client->ReadLine();
  ASSERT_TRUE(line.ok());
  StatusOr<JsonValue> op = JsonValue::Parse(*line);
  ASSERT_TRUE(op.ok()) << *line;
  ASSERT_EQ(op->Find("status")->as_string(), "ok") << *line;

  // Same dump, minus the protocol envelope.
  JsonValue::Object fields = op->object();
  fields.erase("op");
  fields.erase("status");
  EXPECT_EQ(page, JsonValue(std::move(fields)).Serialize() + "\n");
  EXPECT_EQ(JsonValue::Parse(page)->Find("records")->array().size(), 2u);
}

TEST(AdminPlaneTest, UnknownPathAndNonGetAreRejected) {
  AdminFixture fixture;
  const std::string missing =
      HttpGet(fixture.server.admin_port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos)
      << missing;
  const std::string post = HttpRequest(
      fixture.server.admin_port(),
      "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos)
      << post;
}

TEST(AdminPlaneTest, AdminPortDisabledByDefault) {
  ServeHandler handler{{}};
  Server server{&handler, ServerOptions{.port = 0}};
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.admin_port(), -1);
  server.Shutdown();
}

}  // namespace
}  // namespace cfcm::serve
