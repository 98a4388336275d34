#include "net/http_server.h"

#include <utility>

namespace relcomp {
namespace net {

namespace {

/// Poll slice for every blocking wait: the longest a thread stays blind
/// to the stop flag.
constexpr int kPollSliceMs = 100;

HttpResponse ErrorResponse(int code, const std::string& detail) {
  HttpResponse response;
  response.code = code;
  response.body =
      std::to_string(code) + " " + HttpStatusReason(code) + "\n" + detail;
  if (!detail.empty() && detail.back() != '\n') response.body += '\n';
  return response;
}

}  // namespace

Status HttpServer::Start(const HttpServerOptions& options,
                         HttpHandler handler) {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("HttpServer::Start called twice");
  }
  if (handler == nullptr) {
    return Status::InvalidArgument("HttpServer::Start needs a handler");
  }
  options_ = options;
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  handler_ = std::move(handler);
  Result<Socket> listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  Result<uint16_t> port = LocalPort(*listener);
  if (!port.ok()) return port.status();
  listener_ = std::move(listener).value();
  port_ = *port;
  serving_.store(true, std::memory_order_release);
  workers_.reserve(options_.worker_threads);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = JoinableThread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  {
    MutexLock lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) return;  // second Stop
    stop_.store(true, std::memory_order_release);
  }
  pending_cv_.NotifyAll();
  // Wake the acceptor out of its readiness poll right away rather than
  // after the current slice.
  listener_.ShutdownBoth();
  acceptor_.Join();
  for (JoinableThread& worker : workers_) worker.Join();
  {
    // Queued-but-unserved connections are abandoned: their Socket
    // destructors close them (the peer sees a reset, which is the
    // honest signal — no one was ever going to answer).
    MutexLock lock(mu_);
    pending_.clear();
  }
  listener_.Close();
  serving_.store(false, std::memory_order_release);
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Result<bool> readable = listener_.WaitReadable(kPollSliceMs);
    if (!readable.ok()) return;  // listener shut down or broken
    if (!*readable) continue;
    Result<Socket> conn = AcceptOn(listener_);
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kUnavailable) continue;
      return;
    }
    bool reject = false;
    {
      MutexLock lock(mu_);
      if (stop_.load(std::memory_order_relaxed)) return;
      if (pending_.size() >= options_.max_pending_connections) {
        reject = true;
      } else {
        pending_.push_back(std::move(conn).value());
      }
    }
    if (reject) {
      // Shed load at the door instead of queueing unboundedly; the
      // write is best-effort (a peer that already left gets the reset).
      const std::string wire = SerializeResponse(
          ErrorResponse(503, "connection queue full"), /*head_only=*/false,
          /*keep_alive=*/false);
      // Discarded: the connection closes next either way, and there is no
      // one left to report a failed 503 to.
      (void)conn->WriteAll(wire.data(), wire.size());
      continue;
    }
    pending_cv_.NotifyOne();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    Socket conn;
    {
      MutexLock lock(mu_);
      while (pending_.empty() && !stop_.load(std::memory_order_relaxed)) {
        pending_cv_.Wait(mu_);
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeConnection(std::move(conn));
  }
}

void HttpServer::ServeConnection(Socket conn) {
  HttpRequestParser::Limits limits;
  limits.max_head_bytes = options_.max_head_bytes;
  HttpRequestParser parser(limits);
  uint64_t idle_ms = 0;
  char buf[4096];
  while (!stop_.load(std::memory_order_acquire)) {
    Result<bool> readable = conn.WaitReadable(kPollSliceMs);
    if (!readable.ok()) return;
    if (!*readable) {
      idle_ms += kPollSliceMs;
      if (idle_ms >= options_.idle_timeout_ms) return;
      continue;
    }
    idle_ms = 0;
    Result<size_t> got = conn.Read(buf, sizeof(buf));
    if (!got.ok() || *got == 0) return;  // error or orderly EOF

    ParseState state = parser.Feed(buf, *got);
    while (state == ParseState::kComplete) {
      const HttpRequest& request = parser.request();
      const bool keep_alive = request.KeepAlive();
      const bool head_only = request.method == "HEAD";
      const std::string wire = SerializeResponse(handler_(request), head_only,
                                                 keep_alive);
      if (!conn.WriteAll(wire.data(), wire.size()).ok()) return;
      if (!keep_alive) return;
      state = parser.Consume();  // pipelining: next request, same bytes
    }
    if (state == ParseState::kError) {
      const std::string wire = SerializeResponse(
          ErrorResponse(parser.error_code(), parser.error_message()),
          /*head_only=*/false, /*keep_alive=*/false);
      // Discarded: best-effort, like the 503 above — the connection closes
      // right after, whether or not the error response got through.
      (void)conn.WriteAll(wire.data(), wire.size());
      return;
    }
  }
}

}  // namespace net
}  // namespace relcomp
