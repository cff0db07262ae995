#include "serve/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace cfcm::serve {

namespace {

constexpr std::size_t kMaxRequestBytes = 8 * 1024;
constexpr std::size_t kDefaultFlightN = 64;
constexpr std::size_t kMaxFlightN = 4096;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "OK";
  }
}

// Parses "?n=..." out of a request target; returns the path part.
std::string SplitQuery(const std::string& target, std::size_t* n_out) {
  const std::size_t question = target.find('?');
  if (question == std::string::npos) return target;
  const std::string query = target.substr(question + 1);
  std::size_t begin = 0;
  while (begin <= query.size()) {
    std::size_t end = query.find('&', begin);
    if (end == std::string::npos) end = query.size();
    const std::string param = query.substr(begin, end - begin);
    begin = end + 1;
    if (param.rfind("n=", 0) == 0) {
      std::size_t n = 0;
      bool digits = param.size() > 2;
      for (std::size_t i = 2; i < param.size(); ++i) {
        if (param[i] < '0' || param[i] > '9' || n > kMaxFlightN) {
          digits = false;
          break;
        }
        n = n * 10 + static_cast<std::size_t>(param[i] - '0');
      }
      if (digits && n > 0) *n_out = std::min(n, kMaxFlightN);
    }
    if (end == query.size()) break;
  }
  return target.substr(0, question);
}

}  // namespace

AdminPlane::AdminPlane(AdminHooks hooks, AdminPlaneOptions options)
    : hooks_(std::move(hooks)), options_(std::move(options)) {}

AdminPlane::~AdminPlane() { Shutdown(); }

bool AdminPlane::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("admin socket: ") + std::strerror(errno);
    }
    return false;
  }
  int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) {
      *error = "bad admin bind address '" + options_.host + "'";
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (error != nullptr) {
      *error = "admin bind " + options_.host + ":" +
               std::to_string(options_.port) + ": " + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 16) < 0) {
    if (error != nullptr) {
      *error = std::string("admin listen: ") + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  obs::LogEvent(obs::LogLevel::kInfo, "admin_listening")
      .Str("host", options_.host)
      .Int("port", port_);
  return true;
}

void AdminPlane::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed during shutdown
    }
    if (options_.io_timeout_seconds > 0) {
      timeval timeout{};
      timeout.tv_sec = options_.io_timeout_seconds;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      open_fds_.insert(fd);
      ++active_;
    }
    std::thread([this, fd] {
      HandleConnection(fd);
      std::lock_guard<std::mutex> lock(mu_);
      open_fds_.erase(fd);
      ::close(fd);
      --active_;
      cv_.notify_all();
    }).detach();
  }
}

void AdminPlane::HandleConnection(int fd) {
  std::string request;
  char chunk[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) return;  // timeout, EOF, or shutdown
    request.append(chunk, static_cast<std::size_t>(got));
    if (request.size() > kMaxRequestBytes) return;  // not a sane GET
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const std::size_t line_end = request.find_first_of("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return;
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);

  int http_status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  const std::string body = HandleRequest(method, target, &http_status,
                                         &content_type);

  std::string response = "HTTP/1.1 " + std::to_string(http_status) + " " +
                         StatusText(http_status) +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t wrote = ::send(fd, response.data() + sent,
                                 response.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) return;
    sent += static_cast<std::size_t>(wrote);
  }
}

std::string AdminPlane::HandleRequest(const std::string& method,
                                      const std::string& target,
                                      int* http_status,
                                      std::string* content_type) {
  std::size_t flight_n = kDefaultFlightN;
  const std::string path = SplitQuery(target, &flight_n);
  if (method != "GET") {
    *http_status = 405;
    return "method not allowed\n";
  }
  if (path == "/metrics") {
    if (hooks_.refresh) hooks_.refresh();
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return obs::RenderPrometheus(obs::MetricsRegistry::Global().snapshot());
  }
  if (path == "/healthz") {
    return "ok\n";
  }
  if (path == "/readyz") {
    std::string reason;
    if (!hooks_.ready || hooks_.ready(&reason)) return "ready\n";
    *http_status = 503;
    return "not ready: " + reason + "\n";
  }
  if (path == "/statusz") {
    JsonValue::Object status;
    if (hooks_.statusz) hooks_.statusz(&status);
    *content_type = "application/json";
    return JsonValue(std::move(status)).Serialize() + "\n";
  }
  if (path == "/flightz") {
    if (hooks_.flight == nullptr) {
      *http_status = 503;
      return "flight recorder disabled\n";
    }
    *content_type = "application/json";
    return JsonValue(FlightzJson(*hooks_.flight, flight_n)).Serialize() +
           "\n";
  }
  *http_status = 404;
  return "not found\n";
}

void AdminPlane::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  acceptor_.join();
  {
    // Unblock connection handlers stuck in recv/send, then wait for the
    // detached threads to drain (they erase + close their own fds).
    std::unique_lock<std::mutex> lock(mu_);
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
    cv_.wait(lock, [this] { return active_ == 0; });
    started_ = false;
  }
}

}  // namespace cfcm::serve
