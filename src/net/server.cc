#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "io/json.h"
#include "obs/metrics.h"
#include "tensor/check.h"

namespace e2gcl {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Largest k a TopK request may ask for: the response must fit one
/// frame (12 bytes per hit plus the status prefix).
constexpr std::int64_t kMaxTopK =
    static_cast<std::int64_t>((kMaxPayload - 64) / 12);

/// Once shutdown begins, admitted responses get this long to flush
/// before laggard connections are force-closed.
constexpr std::chrono::milliseconds kDrainGrace{2000};

/// HTTP request-header bytes buffered before the connection is answered
/// 400 and closed.
constexpr std::size_t kMaxHttpHeaderBytes = 8192;

/// Token-bucket depth for a sustained rate: one second's worth, and at
/// least one request.
double BurstOf(double qps) { return std::max(1.0, qps); }

/// True when the '&'-separated query string contains `key=value`.
bool HasQueryParam(const std::string& query, const std::string& key,
                   const std::string& value) {
  const std::string want = key + "=" + value;
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    if (query.compare(pos, amp - pos, want) == 0) return true;
    pos = amp + 1;
  }
  return false;
}

/// Registry metric name -> Prometheus metric name: [a-zA-Z0-9_:] only
/// (dots become underscores), `e2gcl_` namespace prefix.
std::string PromName(const std::string& name) {
  std::string out = "e2gcl_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

struct NetCounters {
  Counter accepted = Counter::Get("net.accepted");
  Counter conn_rejected = Counter::Get("net.conn.rejected");
  Counter closed = Counter::Get("net.closed");
  Counter frames_ok = Counter::Get("net.frames.ok");
  Counter frames_bad = Counter::Get("net.frames.bad");
  Counter rate_limited = Counter::Get("net.rate_limited");
  Counter rejected_shutdown = Counter::Get("net.rejected.shutdown");
  Counter rejected_invalid = Counter::Get("net.rejected.invalid");
  Counter requests = Counter::Get("net.requests");
  Counter responses = Counter::Get("net.responses");
  Counter http_requests = Counter::Get("net.http.requests");
  Counter idle_closed = Counter::Get("net.idle_closed");
  Gauge connections = Gauge::Get("net.connections");
};

NetCounters& CountersOf() {
  static NetCounters counters;
  return counters;
}

}  // namespace

// ---------------------------------------------------------------------
// Connection state (event-loop-owned).

struct NetServer::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  bool http = false;
  bool probed = false;  // protocol decided from the first bytes
  std::string inbuf;
  std::string outbuf;
  std::size_t out_off = 0;
  bool close_after_flush = false;
  /// Output is parked behind a full send buffer: the loop polls for
  /// POLLOUT until FlushConn drains it.
  bool want_write = false;
  std::int64_t in_flight = 0;
  double tokens = 0.0;
  Clock::time_point last_refill;
  Clock::time_point last_activity;
};

/// The completion of one submitted request. The loop only creates it;
/// the flusher runs it, encoding the response there and posting the
/// bytes back to the loop.
struct NetServer::Reply {
  NetServer* net;
  std::uint64_t conn_id;
  std::uint64_t request_id;

  void operator()(const EmbeddingResponse& r) const {
    net->Post(conn_id, EncodeEmbeddingResponse(request_id, r));
  }
  void operator()(const ScoreResponse& r) const {
    net->Post(conn_id, EncodeScoreResponse(request_id, r));
  }
  void operator()(const TopKResponse& r) const {
    net->Post(conn_id, EncodeTopKResponse(request_id, r));
  }
};

// ---------------------------------------------------------------------
// Lifecycle.

NetServer::NetServer(EmbeddingServer* server, const NetServerOptions& options)
    : server_(server), options_(options) {}

std::unique_ptr<NetServer> NetServer::Start(EmbeddingServer* server,
                                            const NetServerOptions& options,
                                            std::string* error) {
  E2GCL_CHECK(server != nullptr);
  // e2gcl-lint: allow(naked-new-delete): private ctor; owned by the
  // unique_ptr on this line
  std::unique_ptr<NetServer> net(new NetServer(server, options));
  if (!net->Init(error)) return nullptr;
  return net;
}

bool NetServer::Init(std::string* error) {
  if (options_.max_conns < 1 || options_.rate_limit_qps < 0.0 ||
      options_.idle_timeout_ms < 0 || options_.port < 0 ||
      options_.port > 65535) {
    *error = "invalid NetServerOptions";
    return false;
  }

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    *error = "bad bind address '" + options_.bind_address + "'";
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
  if (::listen(listen_fd_, 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  SetNonBlocking(listen_fd_);

  loop_ = std::thread([this] { EventLoop(); });
  return true;
}

NetServer::~NetServer() {
  BeginShutdown();
  if (loop_.joinable()) loop_.join();
  {
    // Requests still in the serving queue call back into this object;
    // wait until the last one has posted.
    MutexLock lock(mu_);
    while (pending_ > 0) idle_cv_.Wait(lock);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void NetServer::BeginShutdown() {
  shutdown_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    (void)::write(wake_write_fd_, &byte, 1);
  }
}

std::int64_t NetServer::num_connections() const {
  return live_conns_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------
// Event loop.

void NetServer::EventLoop() E2GCL_LOOP_BODY {
  NetCounters& counters = CountersOf();
  // The poll set is rebuilt every iteration from the loop's own state:
  // the listener (until shutdown closes it), the wake pipe, then every
  // connection, which asks for POLLOUT only while it has output parked.
  // conn_ids[i] is the connection behind fds[i] (0 for the listener and
  // the wake pipe).
  std::vector<struct pollfd> fds;
  std::vector<std::uint64_t> conn_ids;
  Clock::time_point drain_deadline = Clock::time_point::max();
  for (;;) {
    const bool shutting_down = shutdown_.load(std::memory_order_acquire);
    if (shutting_down && listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      drain_deadline = Clock::now() + kDrainGrace;
    }
    if (shutting_down && conns_.empty()) break;

    fds.clear();
    conn_ids.clear();
    const auto watch = [&](int fd, bool want_write, std::uint64_t conn_id) {
      struct pollfd p = {};
      p.fd = fd;
      p.events = static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
      fds.push_back(p);
      conn_ids.push_back(conn_id);
    };
    if (listen_fd_ >= 0) watch(listen_fd_, false, 0);
    watch(wake_read_fd_, false, 0);
    for (const auto& [id, conn] : conns_) watch(conn->fd, conn->want_write, id);

    // The loop's one sanctioned block, bounded at 50 ms so shutdown and
    // housekeeping always make progress.
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/50);
    if (ready < 0 && errno != EINTR) break;  // nothing recoverable

    for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      if (fds[i].fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      if (fds[i].fd == wake_read_fd_) {
        char buf[256];
        // e2gcl-lint: allow(blocking-in-event-loop): self-pipe read end
        // is O_NONBLOCK; the drain loop ends at EAGAIN, never blocks.
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(conn_ids[i]);
      if (it == conns_.end()) continue;  // closed earlier in this pass
      Conn* conn = it->second.get();
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (revents & POLLIN) == 0) {
        CloseConn(conn->id);
        continue;
      }
      bool alive = true;
      if ((revents & POLLIN) != 0) alive = ReadConn(conn);
      if (alive && (revents & POLLOUT) != 0) FlushConn(conn);
    }

    // Route posted completions to their connections.
    std::vector<std::pair<std::uint64_t, std::string>> done;
    {
      MutexLock lock(mu_);
      done.swap(completions_);
    }
    for (auto& [conn_id, bytes] : done) {
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;  // client left; drop the answer
      it->second->in_flight -= 1;
      counters.responses.Increment();
      QueueOutput(it->second.get(), bytes);
    }

    // Housekeeping: idle timeouts and shutdown draining.
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> to_close;
    for (auto& [id, conn] : conns_) {
      if (options_.idle_timeout_ms > 0 && conn->in_flight == 0 &&
          conn->outbuf.empty() &&
          now - conn->last_activity >
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        counters.idle_closed.Increment();
        to_close.push_back(id);
        continue;
      }
      if (shutting_down) {
        const bool drained = conn->in_flight == 0 && conn->outbuf.empty();
        if (drained || now > drain_deadline) to_close.push_back(id);
      }
    }
    for (std::uint64_t id : to_close) CloseConn(id);
  }
  // Force-close whatever is left (poll error path).
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
}

void NetServer::AcceptNew() {
  NetCounters& counters = CountersOf();
  for (;;) {
    // e2gcl-lint: allow(blocking-in-event-loop): the listener is
    // O_NONBLOCK (SetNonBlocking in Init); accept returns EAGAIN
    // instead of blocking when the backlog is empty.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: retry on the next
               // readiness notification
    }
    if (static_cast<std::int64_t>(conns_.size()) >= options_.max_conns ||
        shutdown_.load(std::memory_order_acquire)) {
      // Over the cap (or racing shutdown): one best-effort typed error
      // frame, then close. The socket was just accepted, so the small
      // write almost always fits the kernel buffer; if not, the close
      // alone is still a clean, protocol-visible rejection. Counted
      // first, so a client that reads the frame sees the counter moved.
      counters.conn_rejected.Increment();
      const std::string frame =
          EncodeError(0, WireError::kConnectionLimit,
                      shutdown_.load(std::memory_order_acquire)
                          ? "server is shutting down"
                          : "connection limit reached");
      // e2gcl-lint: allow(blocking-in-event-loop): best-effort one-shot
      // write on a freshly accepted socket whose send buffer is empty;
      // a short write is acceptable (the close is the real rejection).
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->tokens = BurstOf(options_.rate_limit_qps);  // starts full
    conn->last_refill = Clock::now();
    conn->last_activity = conn->last_refill;
    counters.accepted.Increment();
    const std::uint64_t id = conn->id;
    conns_.emplace(id, std::move(conn));
    live_conns_.store(static_cast<std::int64_t>(conns_.size()),
                      std::memory_order_release);
    counters.connections.Set(static_cast<std::int64_t>(conns_.size()));
  }
}

bool NetServer::ReadConn(Conn* conn) {
  const std::uint64_t conn_id = conn->id;
  char buf[4096];
  for (;;) {
    // e2gcl-lint: allow(blocking-in-event-loop): conn fds are O_NONBLOCK
    // (SetNonBlocking at accept); the read loop ends at EAGAIN, so recv
    // is bounded by what the kernel already buffered.
    const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn->inbuf.append(buf, static_cast<std::size_t>(r));
      conn->last_activity = Clock::now();
      // A hostile peer could stream garbage forever; cap the buffered
      // unparsed bytes at one max frame plus header slack.
      if (conn->inbuf.size() > kMaxPayload + 4096) {
        CountersOf().frames_bad.Increment();
        CloseConn(conn_id);
        return false;
      }
      continue;
    }
    if (r == 0) {  // peer closed; drop the connection (mid-request
                   // disconnects included — pending answers are dropped
                   // when the completion finds no connection)
      CloseConn(conn_id);
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn_id);
    return false;
  }
  ProcessInbuf(conn);
  return conns_.count(conn_id) != 0;
}

void NetServer::ProcessInbuf(Conn* conn) {
  // A connection set to close (a poisoned stream, or an HTTP request
  // already answered) decodes nothing more.
  if (conn->close_after_flush) {
    conn->inbuf.clear();
    return;
  }
  if (!conn->probed) {
    if (conn->inbuf.size() < 4) return;
    conn->probed = true;
    const std::string head = conn->inbuf.substr(0, 4);
    conn->http = head == "GET " || head == "HEAD" || head == "POST";
  }
  if (conn->http) {
    ProcessHttp(conn);
  } else {
    ProcessBinary(conn);
  }
}

void NetServer::ProcessBinary(Conn* conn) {
  NetCounters& counters = CountersOf();
  const std::uint64_t conn_id = conn->id;
  for (;;) {
    FrameHeader header;
    WireError wire_error = WireError::kBadRequest;
    const HeaderStatus hs = TryDecodeHeader(conn->inbuf, &header, &wire_error);
    if (hs == HeaderStatus::kNeedMore) return;
    if (hs == HeaderStatus::kError) {
      // Framing is poisoned: typed error, then close. The request id
      // is only echoed when the header parsed far enough to carry one.
      counters.frames_bad.Increment();
      const std::uint64_t echo_id =
          wire_error == WireError::kBadMagic ? 0 : header.request_id;
      conn->inbuf.clear();
      conn->close_after_flush = true;
      QueueOutput(conn, EncodeError(echo_id, wire_error,
                                    WireErrorName(wire_error)));
      return;  // conn may be gone (flushed + closed) — do not touch it
    }
    if (conn->inbuf.size() < kFrameHeaderSize + header.payload_len) {
      return;  // wait for the rest of the payload
    }
    const std::string payload =
        conn->inbuf.substr(kFrameHeaderSize, header.payload_len);
    conn->inbuf.erase(0, kFrameHeaderSize + header.payload_len);
    if (!VerifyPayload(header, payload)) {
      counters.frames_bad.Increment();
      conn->inbuf.clear();
      conn->close_after_flush = true;
      QueueOutput(conn, EncodeError(header.request_id, WireError::kBadCrc,
                                    "payload crc mismatch"));
      return;
    }
    Request request;
    if (!DecodeRequest(header, payload, &request)) {
      // Framing held, the payload did not: answer in-band and keep the
      // connection — the stream is still aligned on frame boundaries.
      counters.frames_bad.Increment();
      QueueOutput(conn,
                  EncodeError(header.request_id, WireError::kBadRequest,
                              "undecodable request payload"));
      if (conns_.count(conn_id) == 0) return;
      continue;
    }
    counters.frames_ok.Increment();
    DispatchRequest(conn, request);
    if (conns_.count(conn_id) == 0) return;  // closed while dispatching
  }
}

void NetServer::DispatchRequest(Conn* conn, const Request& request) {
  NetCounters& counters = CountersOf();
  counters.requests.Increment();
  if (shutdown_.load(std::memory_order_acquire)) {
    counters.rejected_shutdown.Increment();
    QueueOutput(conn, EncodeRejection(request, ServeStatus::kShutdown));
    return;
  }
  if (!TakeToken(conn)) {
    counters.rate_limited.Increment();
    QueueOutput(conn, EncodeRejection(request, ServeStatus::kOverloaded));
    return;
  }
  // Only the wire's own bounds are checked here; node ids are checked
  // by the EmbeddingServer, which rejects them kInvalidArgument.
  bool valid = true;
  switch (request.type) {
    case FrameType::kGetEmbedding:
    case FrameType::kScoreLink:
    case FrameType::kStats:
      break;
    case FrameType::kTopKSimilar:
      valid = request.topk.k >= 0 && request.topk.k <= kMaxTopK;
      break;
    default:
      valid = false;
      break;
  }
  if (!valid) {
    counters.rejected_invalid.Increment();
    QueueOutput(conn, EncodeRejection(request, ServeStatus::kInvalidArgument));
    return;
  }
  if (request.type == FrameType::kStats) {
    // Cheap and queue-free on the serving side: answered inline.
    StatsResponse stats;
    stats.status = ServeStatus::kOk;
    stats.json = StatsJson();
    QueueOutput(conn, EncodeStatsResponse(request.request_id, stats));
    return;
  }
  {
    MutexLock lock(mu_);
    ++pending_;
  }
  const Reply reply{this, conn->id, request.request_id};
  ServeStatus admitted = ServeStatus::kOk;
  switch (request.type) {
    case FrameType::kGetEmbedding:
      admitted = server_->GetEmbedding(request.embed.node,
                                       request.embed.options, reply);
      break;
    case FrameType::kScoreLink:
      admitted = server_->ScoreLink(request.score.u, request.score.v,
                                    request.score.options, reply);
      break;
    default:  // kTopKSimilar: validation let no other type through
      admitted = server_->TopKSimilar(request.topk.node, request.topk.k,
                                      request.topk.options, reply);
      break;
  }
  if (admitted != ServeStatus::kOk) {
    // Refused at the serving queue's door: no completion will post.
    if (admitted == ServeStatus::kInvalidArgument) {
      counters.rejected_invalid.Increment();
    }
    {
      MutexLock lock(mu_);
      --pending_;
    }
    QueueOutput(conn, EncodeRejection(request, admitted));
    return;
  }
  conn->in_flight += 1;
}

void NetServer::Post(std::uint64_t conn_id, std::string bytes) {
  MutexLock lock(mu_);
  completions_.emplace_back(conn_id, std::move(bytes));
  // The wake byte goes out before pending_ drops, under the same lock:
  // once the destructor sees zero, no completion touches the pipe or
  // this object again.
  const char byte = 1;
  (void)::write(wake_write_fd_, &byte, 1);
  if (--pending_ == 0) idle_cv_.NotifyAll();
}

void NetServer::ProcessHttp(Conn* conn) {
  NetCounters& counters = CountersOf();
  const std::size_t end = conn->inbuf.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (conn->inbuf.size() > kMaxHttpHeaderBytes) {
      conn->inbuf.clear();
      conn->close_after_flush = true;
      QueueOutput(conn,
                  "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n"
                  "Connection: close\r\n\r\n");
    }
    return;
  }
  counters.http_requests.Increment();
  const std::string request_line =
      conn->inbuf.substr(0, conn->inbuf.find("\r\n"));
  conn->inbuf.clear();  // one request per connection
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : request_line.find(' ', sp1 + 1);
  std::string method;
  std::string path;
  if (sp1 != std::string::npos && sp2 != std::string::npos) {
    method = request_line.substr(0, sp1);
    path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  // Split the query string off the path so /metrics?format=prom routes
  // to the /metrics handler with the format as a parameter.
  std::string query;
  const std::size_t qmark = path.find('?');
  if (qmark != std::string::npos) {
    query = path.substr(qmark + 1);
    path.resize(qmark);
  }
  std::string status = "404 Not Found";
  std::string content_type = "text/plain";
  std::string body = "not found\n";
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "only GET is supported\n";
  } else if (path == "/healthz") {
    status = "200 OK";
    body = shutdown_.load(std::memory_order_acquire) ? "shutting down\n"
                                                     : "ok\n";
  } else if (path == "/metrics") {
    status = "200 OK";
    if (HasQueryParam(query, "format", "prom")) {
      content_type = "text/plain; version=0.0.4";
      body = MetricsProm();
    } else {
      content_type = "application/json";
      body = MetricsJson();
    }
  }
  std::string response = "HTTP/1.1 " + status + "\r\n";
  response += "Content-Type: " + content_type + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  conn->close_after_flush = true;
  QueueOutput(conn, response);
}

void NetServer::QueueOutput(Conn* conn, const std::string& bytes) {
  conn->outbuf.append(bytes);
  FlushConn(conn);
}

bool NetServer::FlushConn(Conn* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    // e2gcl-lint: allow(blocking-in-event-loop): conn fds are O_NONBLOCK;
    // a full send buffer returns EAGAIN and the next poll(2) asks for
    // POLLOUT instead of waiting.
    const ssize_t w = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                             conn->outbuf.size() - conn->out_off,
                             MSG_NOSIGNAL);
    if (w > 0) {
      conn->out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->want_write = true;
      return true;
    }
    CloseConn(conn->id);  // EPIPE/ECONNRESET: peer is gone
    return false;
  }
  conn->outbuf.clear();
  conn->out_off = 0;
  conn->want_write = false;
  if (conn->close_after_flush && conn->in_flight == 0) {
    CloseConn(conn->id);
    return false;
  }
  return true;
}

void NetServer::CloseConn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second->fd);
  conns_.erase(it);
  live_conns_.store(static_cast<std::int64_t>(conns_.size()),
                    std::memory_order_release);
  CountersOf().closed.Increment();
  CountersOf().connections.Set(static_cast<std::int64_t>(conns_.size()));
}

bool NetServer::TakeToken(Conn* conn) {
  if (options_.rate_limit_qps <= 0.0) return true;
  const Clock::time_point now = Clock::now();
  const double dt =
      std::chrono::duration<double>(now - conn->last_refill).count();
  conn->last_refill = now;
  conn->tokens = std::min(BurstOf(options_.rate_limit_qps),
                          conn->tokens + dt * options_.rate_limit_qps);
  if (conn->tokens < 1.0) return false;
  conn->tokens -= 1.0;
  return true;
}

std::string NetServer::EncodeRejection(const Request& request,
                                       ServeStatus status) {
  switch (request.type) {
    case FrameType::kScoreLink: {
      ScoreResponse r;
      r.status = status;
      return EncodeScoreResponse(request.request_id, r);
    }
    case FrameType::kTopKSimilar: {
      TopKResponse r;
      r.status = status;
      return EncodeTopKResponse(request.request_id, r);
    }
    case FrameType::kStats: {
      StatsResponse r;
      r.status = status;
      return EncodeStatsResponse(request.request_id, r);
    }
    case FrameType::kGetEmbedding:
    default: {
      EmbeddingResponse r;
      r.status = status;
      return EncodeEmbeddingResponse(request.request_id, r);
    }
  }
}

std::string NetServer::StatsJson() {
  JsonValue root = JsonValue::Object();
  root.Set("num_nodes", JsonValue::Int(server_->num_nodes()));
  root.Set("embed_dim", JsonValue::Int(server_->embed_dim()));
  const std::uint64_t gen = server_->generation();
  root.Set("generation", JsonValue::Int(static_cast<std::int64_t>(gen)));
  JsonValue counters = JsonValue::Object();
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("serve.", 0) == 0 || name.rfind("net.", 0) == 0) {
      counters.Set(name, JsonValue::Int(static_cast<std::int64_t>(value)));
    }
  }
  root.Set("counters", std::move(counters));
  return DumpJson(root, /*indent=*/false);
}

std::string NetServer::MetricsJson() {
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  JsonValue gauges = JsonValue::Object();
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  for (const auto& [name, value] : snap.counters) {
    counters.Set(name, JsonValue::Int(static_cast<std::int64_t>(value)));
  }
  for (const auto& [name, value] : snap.gauges) {
    gauges.Set(name, JsonValue::Int(value));
  }
  root.Set("counters", std::move(counters));
  root.Set("gauges", std::move(gauges));
  return DumpJson(root, /*indent=*/false);
}

std::string NetServer::MetricsProm() {
  // Prometheus text exposition format 0.0.4. Histograms emit the
  // cumulative `_bucket{le="..."}` series plus `_count`; the registry
  // tracks bucket counts only, so no `_sum` series is emitted.
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    const std::string prom = PromName(h.name);
    out += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      const std::string le =
          b < h.bounds.size() ? std::to_string(h.bounds[b]) : "+Inf";
      out += prom + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_count " + std::to_string(h.total) + "\n";
  }
  return out;
}

}  // namespace net
}  // namespace e2gcl
