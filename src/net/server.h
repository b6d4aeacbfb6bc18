#ifndef E2GCL_NET_SERVER_H_
#define E2GCL_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "net/protocol.h"
#include "serve/embedding_server.h"

namespace e2gcl {
namespace net {

/// Configuration of a NetServer instance.
struct NetServerOptions {
  /// Interface to bind. The default keeps the server loopback-only;
  /// bind 0.0.0.0 explicitly to serve remote clients.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read it back
  /// with port()).
  int port = 0;
  /// Accept at most this many simultaneous connections. A connection
  /// beyond the cap is answered with one kConnectionLimit error frame
  /// (best effort) and closed before it can submit anything.
  std::int64_t max_conns = 1024;
  /// Per-connection token bucket: sustained requests/second (0 = no
  /// limit). The bucket holds max(1, rate_limit_qps) tokens, one
  /// second's worth. A request arriving with an empty bucket is
  /// answered kOverloaded at the socket layer — it never reaches the
  /// serving queue, so the queue's own admission control stays the
  /// *second* line of defense.
  double rate_limit_qps = 0.0;
  /// Close a connection that has been completely silent (no readable
  /// bytes, no in-flight work) for this long. 0 = never. This is the
  /// slow-loris backstop: a half-sent frame cannot hold a connection
  /// slot forever.
  std::int64_t idle_timeout_ms = 0;
};

/// Dependency-free TCP front-end for an EmbeddingServer.
///
/// One event-loop thread multiplexes every connection through poll(2)
/// and never blocks on the serving queue: it submits decoded requests
/// through the asynchronous EmbeddingServer API, whose completions
/// encode each response on the flusher thread and post it back for the
/// loop to flush. Two protocols share the port, distinguished by the
/// first bytes of each connection:
///
///  * the length-prefixed binary protocol (net/protocol.h) mapping
///    GetEmbedding / ScoreLink / TopKSimilar / Stats onto the typed
///    ServeStatus API, deadlines propagated from the wire into
///    ServeRequestOptions;
///  * minimal HTTP/1.1 for GET /healthz and GET /metrics (the full
///    MetricsRegistry snapshot as JSON), one request per connection.
///
/// Load shedding happens in layers, cheapest first: the connection cap
/// at accept(2), the per-connection token bucket at frame decode
/// (kOverloaded before the request touches the queue), then the
/// serving queue's own max_queue_depth admission control. Shutdown is
/// deterministic: BeginShutdown() closes the listener, new requests on
/// live connections fail fast with kShutdown, admitted requests
/// complete and their responses flush (bounded by a 2 s grace period),
/// and the destructor joins the loop and waits until every submitted
/// request has called back. Destroy the NetServer before the
/// EmbeddingServer it fronts.
///
/// Emits net.* counters (accepted, rejected, frames, rate-limited,
/// http) and a net.connections gauge; see DESIGN.md "Network
/// protocol".
class NetServer {
 public:
  /// Binds, listens, and starts the event loop. Returns nullptr with
  /// `*error` set when the socket setup fails.
  static std::unique_ptr<NetServer> Start(EmbeddingServer* server,
                                          const NetServerOptions& options,
                                          std::string* error);

  /// BeginShutdown() + join the loop + wait for every submitted
  /// request's completion.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The port actually bound (resolves port 0).
  int port() const { return port_; }

  /// Stops accepting connections and drains: in-flight requests finish
  /// and flush, fresh requests are answered kShutdown, then
  /// connections close. Idempotent; the destructor calls it.
  void BeginShutdown();

  /// Live connection count (tests).
  std::int64_t num_connections() const;

 private:
  struct Conn;
  struct Reply;

  NetServer(EmbeddingServer* server, const NetServerOptions& options);
  bool Init(std::string* error);

  /// Event-loop body (blocking-in-event-loop lint root): everything
  /// reachable from here runs on the loop thread and must never block
  /// beyond its bounded poll(2) wait.
  void EventLoop() E2GCL_LOOP_BODY;

  void AcceptNew();
  /// Reads whatever is available; false = connection is gone.
  bool ReadConn(Conn* conn);
  /// Consumes complete frames/HTTP requests from conn->inbuf.
  void ProcessInbuf(Conn* conn);
  void ProcessBinary(Conn* conn);
  void ProcessHttp(Conn* conn);
  /// Decoded-request dispatch: shed (rate limit/shutdown), validate,
  /// answer inline (Stats) or submit to the serving queue.
  void DispatchRequest(Conn* conn, const Request& request);
  /// Hands an encoded response for `conn_id` to the loop. Runs on the
  /// flusher thread, as the last act of a submitted request.
  void Post(std::uint64_t conn_id, std::string bytes);
  /// Appends bytes to conn's output (loop thread only) and flushes.
  void QueueOutput(Conn* conn, const std::string& bytes);
  /// Flushes pending output; false = connection is gone.
  bool FlushConn(Conn* conn);
  void CloseConn(std::uint64_t conn_id);
  /// Token bucket refill + take. True when the request may proceed.
  bool TakeToken(Conn* conn);
  /// A typed response with `status` and no result, matching the
  /// request's type — how socket-layer rejections stay in-band.
  std::string EncodeRejection(const Request& request, ServeStatus status);
  /// {"num_nodes","embed_dim","generation","counters":{serve.*,net.*}}.
  std::string StatsJson();
  /// Full MetricsRegistry snapshot for GET /metrics.
  std::string MetricsJson();
  /// The same snapshot in Prometheus text exposition format (0.0.4)
  /// for GET /metrics?format=prom.
  std::string MetricsProm();

  EmbeddingServer* server_;
  NetServerOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  /// Loop-owned: connections keyed by id (ordered map: housekeeping
  /// iterates it and must be deterministic). Only the event loop
  /// creates/destroys entries; completions reach a Conn through
  /// completions_ below, never through this map.
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::atomic<std::int64_t> live_conns_{0};

  /// Completions, shared between the loop and the flusher.
  mutable Mutex mu_;
  /// Encoded responses posted by completions: (conn id, bytes). The loop
  /// drains this after every wakeup and routes bytes to live conns.
  std::vector<std::pair<std::uint64_t, std::string>> completions_
      E2GCL_GUARDED_BY(mu_);
  /// Submitted requests whose completion has not yet posted; the
  /// destructor waits on idle_cv_ for zero.
  std::int64_t pending_ E2GCL_GUARDED_BY(mu_) = 0;
  CondVar idle_cv_ E2GCL_GUARDED_BY(mu_);

  std::atomic<bool> shutdown_{false};
  std::thread loop_;
};

}  // namespace net
}  // namespace e2gcl

#endif  // E2GCL_NET_SERVER_H_
