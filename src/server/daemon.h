// The reoptd daemon: one poll(2) event loop serving the wire protocol
// (server/wire.h) over a Unix-domain or loopback TCP socket, backed by a
// ShardedService (server/sharded_service.h).
//
// ## Threading shape
//
// The event loop is ONE thread, and it never waits on a shard. It accepts
// connections, reassembles frames (FrameDecoder), and hands every request
// that reaches a shard (register, release, subscribe, flush, snapshot,
// metrics) to ShardedService::Submit, then moves on. The shard thread
// that completes the command appends the response frame to the
// connection's outbox and pokes the loop's wakeup pipe — the same path
// plan-change/quarantine events take. A flush's events are appended
// while it runs and its kOk after it returns, so the events are in the
// outbox before the response by construction. Mutation batches are
// validated and posted inline, and answered at once.
//
// The daemon itself is the event sink of every query it registers with
// events or subscribes: it outlives the service, so no shard thread can
// reach a freed sink. It routes each event by query id to the connection
// that owns the query — the last to register or subscribe it — and drops
// events of queries no open connection owns. A route is set or erased by
// the command's completion, on the shard thread right after the command,
// so a subscriber receives exactly the events raised after its subscribe
// ran.
//
// One request per connection is in flight: while one is, the loop arms
// no POLLIN on that connection and decodes none of its buffered frames,
// so the response to request n is queued before request n+1 is read, and
// responses never interleave. Different connections' requests run side
// by side on their worlds' shards.
//
// The only blocking calls are at shutdown, when the loop is exiting.
//
// ## Connection semantics
//
// * A frame that fails to decode (SerializeError) closes THAT connection
//   only; its queries survive with their events unrouted (the documented
//   reconnect path: kSubscribeQuery routes them to the new connection).
//   Application-level rejections (ServiceError) are answered with kError
//   frames and the connection lives on.
// * Closing a connection erases its routes at once. A request still in
//   flight holds the connection until its completion has run; a
//   registration or subscribe that completes after the close routes
//   nothing to it.
// * A connection whose first byte is 'G' is treated as an HTTP scrape
//   ("GET /metrics"): it gets a one-shot HTTP/1.0 200 text/plain response
//   carrying the service's metrics text and is closed — curl and a
//   Prometheus scraper work against the same port as the binary protocol.
// * Graceful shutdown (Stop(), SIGTERM via RequestShutdown(), or a
//   kShutdown frame): stop accepting, drain the shard queues (every
//   in-flight request is answered), run one final FlushAll (its events
//   still reach connected subscribers), save per-shard snapshots when a
//   snapshot_dir is configured, flush every outbox best-effort, exit the
//   loop.
#ifndef IQRO_SERVER_DAEMON_H_
#define IQRO_SERVER_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "server/sharded_service.h"

namespace iqro::server {

struct DaemonOptions {
  /// Unix-domain socket path (unlinked+bound on Start). Empty: TCP mode.
  std::string unix_path;
  /// TCP port on 127.0.0.1 (0 = ephemeral; read the bound port from
  /// port()). Used only when unix_path is empty.
  uint16_t tcp_port = 0;
  ShardedServiceOptions service;
  /// Start() warm-restarts the service from service.snapshot_dir before
  /// accepting connections (missing snapshots = cold start, not an error).
  bool load_snapshots = false;
  /// Milliseconds to spend draining outboxes at shutdown before closing
  /// connections anyway.
  int drain_timeout_ms = 2000;
};

class Daemon final : private EventSink {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, listens, (optionally) loads snapshots, and starts the event
  /// loop thread. Throws std::runtime_error on bind/listen failure.
  void Start();

  /// Requests graceful shutdown and joins the loop thread.
  void Stop();

  /// Async-signal-safe shutdown request (a signal handler may call it: it
  /// only write(2)s the wakeup pipe).
  void RequestShutdown();

  /// Blocks until the event loop exits (shutdown request or fatal error).
  void Wait();

  /// The bound TCP port (TCP mode, after Start()).
  uint16_t port() const { return bound_port_; }

  /// Queries restored by the Start()-time snapshot load.
  size_t restored_queries() const { return restored_queries_; }

  /// The backing service — in-process callers (tests, benches) may drive
  /// it directly alongside socket clients.
  ShardedService& service() { return *service_; }

  /// Queries whose events are routed to an open connection.
  size_t routed_queries() const;

 private:
  struct Conn;

  /// Routes a query's event to the connection that owns the query (shard
  /// threads).
  void OnServerEvent(const ServerEvent& event) override;
  /// `conn` owns `query_id`'s events from now on; a closed `conn` leaves
  /// them unrouted.
  void Route(uint64_t query_id, const std::shared_ptr<Conn>& conn);

  void EventLoop();
  void AcceptPending();
  /// Reads what the socket has into the connection's decoder (or HTTP
  /// buffer); false when the connection must close (EOF, read error).
  bool ReadInput(const std::shared_ptr<Conn>& conn);
  /// Collects the in-flight request's answer, then handles buffered
  /// frames until one is in flight or none is left; false on a decode
  /// error.
  bool ServeRequests(const std::shared_ptr<Conn>& conn);
  void HandleRequest(const std::shared_ptr<Conn>& conn, const std::string& payload);
  /// Hands a shard-bound request to the service; its completion answers.
  void SubmitRequest(const std::shared_ptr<Conn>& conn, Request req);
  /// Writes as much buffered outbox as the socket accepts; false = dead.
  bool HandleWritable(Conn* conn);
  void CloseConn(int fd);
  /// Pokes the loop out of poll(). A full pipe means a wakeup is already
  /// pending, so a dropped byte is fine.
  void Wake();
  void BeginShutdown();

  DaemonOptions options_;
  /// Declared before service_, whose shard threads route events through
  /// them until the service is gone.
  mutable std::mutex routes_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> routes_;
  std::unique_ptr<ShardedService> service_;
  std::thread loop_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] read, [1] write
  uint16_t bound_port_ = 0;
  size_t restored_queries_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
};

}  // namespace iqro::server

#endif  // IQRO_SERVER_DAEMON_H_
