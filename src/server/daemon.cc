#include "server/daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "server/wire.h"

namespace iqro::server {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string HttpMetricsResponse(const std::string& body) {
  std::string out = "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

struct Daemon::Conn {
  explicit Conn(int fd_in) : fd(fd_in) {}

  // ---- loop thread only ----
  int fd;
  FrameDecoder decoder;
  /// First-byte protocol sniff: 'G' = HTTP scrape, anything else = frames.
  bool sniffed = false;
  bool http = false;
  std::string http_buf;
  /// A shard-bound request is submitted and its answer not yet collected.
  bool in_flight = false;
  /// No more input: close once nothing is in flight and the outbox has
  /// drained (the HTTP scrape is submitted, or the peer shut its side).
  bool close_after_write = false;

  // ---- guarded by mu: shard threads append events and answers ----
  std::mutex mu;
  /// Bytes queued for the socket; the loop drains them to the fd.
  std::string outbox;
  /// The in-flight request's answer is in the outbox.
  bool answered = false;

  /// Guarded by the daemon's routes_mu_: set when the socket closes, so no
  /// route is made to it afterwards.
  bool closed = false;
};

void Daemon::OnServerEvent(const ServerEvent& event) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lk(routes_mu_);
    auto it = routes_.find(event.query_id);
    if (it == routes_.end()) return;  // no open connection owns the query
    conn = it->second;
  }
  std::string frame;
  if (event.kind == ServerEvent::Kind::kPlanChange) {
    PlanChangeEventMsg m;
    m.query_id = event.query_id;
    m.world_key = event.world_key;
    m.flush_epoch = event.flush_epoch;
    m.old_cost = event.old_cost;
    m.new_cost = event.new_cost;
    m.changed_operators = event.changed_operators;
    m.total_operators = event.total_operators;
    m.join_order_prefix = event.join_order_prefix;
    m.join_order_len = event.join_order_len;
    frame = EncodePlanChangeEvent(m);
  } else {
    QuarantineEventMsg m;
    m.query_id = event.query_id;
    m.world_key = event.world_key;
    m.reason = event.reason;
    m.strikes = event.strikes;
    m.parked = event.parked;
    m.message = event.message;
    frame = EncodeQuarantineEvent(m);
  }
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    conn->outbox += frame;
  }
  Wake();  // so the loop arms POLLOUT
}

void Daemon::Route(uint64_t query_id, const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lk(routes_mu_);
  if (conn->closed) {
    routes_.erase(query_id);
  } else {
    routes_[query_id] = conn;
  }
}

size_t Daemon::routed_queries() const {
  std::lock_guard<std::mutex> lk(routes_mu_);
  return routes_.size();
}

void Daemon::Wake() {
  const char b = 'w';
  [[maybe_unused]] ssize_t n = write(wake_fds_[1], &b, 1);
}

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  service_ = std::make_unique<ShardedService>(options_.service);
}

Daemon::~Daemon() {
  Stop();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
}

void Daemon::Start() {
  if (pipe(wake_fds_) != 0) {
    throw std::runtime_error("reoptd: pipe() failed: " + std::string(strerror(errno)));
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  if (!options_.unix_path.empty()) {
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("reoptd: socket() failed");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("reoptd: unix socket path too long: " + options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    unlink(options_.unix_path.c_str());
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("reoptd: bind(" + options_.unix_path +
                               ") failed: " + std::string(strerror(errno)));
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("reoptd: socket() failed");
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("reoptd: bind(127.0.0.1:" + std::to_string(options_.tcp_port) +
                               ") failed: " + std::string(strerror(errno)));
    }
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port_ = ntohs(addr.sin_port);
  }
  if (listen(listen_fd_, 128) != 0) {
    throw std::runtime_error("reoptd: listen() failed: " + std::string(strerror(errno)));
  }
  SetNonBlocking(listen_fd_);

  if (options_.load_snapshots && !options_.service.snapshot_dir.empty()) {
    restored_queries_ = service_->LoadSnapshots();
  }

  running_.store(true);
  loop_ = std::thread([this] { EventLoop(); });
}

void Daemon::RequestShutdown() {
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_fds_[1] >= 0) {
    const char b = 'q';
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &b, 1);
  }
}

void Daemon::Stop() {
  if (!loop_.joinable()) return;
  RequestShutdown();
  loop_.join();
}

void Daemon::Wait() {
  if (loop_.joinable()) loop_.join();
}

void Daemon::AcceptPending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    SetNonBlocking(fd);
    conns_.emplace(fd, std::make_shared<Conn>(fd));
  }
}

namespace {

/// The response frame for a shard-bound request's outcome.
std::string EncodeAnswer(MsgType type, uint64_t request_id, const ShardedService::Outcome& out) {
  if (out.error) {
    try {
      std::rethrow_exception(out.error);
    } catch (const ServiceError& e) {
      return EncodeError(request_id, e.code, e.what());
    } catch (const SerializeError& e) {
      // A snapshot write that failed on the filesystem.
      return EncodeError(request_id, WireErrorCode::kBadRequest, e.what());
    } catch (const std::exception& e) {
      return EncodeError(request_id, WireErrorCode::kInternal, e.what());
    } catch (...) {
      return EncodeError(request_id, WireErrorCode::kInternal, "unknown exception");
    }
  }
  switch (type) {
    case MsgType::kRegisterQuery: {
      RegisteredResp resp;
      resp.query_id = out.registered.query_id;
      resp.shard = out.registered.shard;
      resp.best_cost = out.registered.best_cost;
      return EncodeRegistered(request_id, resp);
    }
    case MsgType::kGetMetrics:
      return EncodeMetricsText(request_id, out.text);
    default:
      return EncodeOk(request_id, out.value);
  }
}

}  // namespace

void Daemon::SubmitRequest(const std::shared_ptr<Conn>& conn, Request req) {
  const MsgType type = req.type;
  const uint64_t request_id = req.request_id;
  const bool want_events = req.register_query.want_events;
  const uint64_t query_id =
      type == MsgType::kReleaseQuery ? req.release_query.query_id : req.subscribe_query.query_id;
  conn->in_flight = true;
  // The completion owns a reference: the Conn outlives its in-flight
  // request even when the socket closes first. It runs on the shard right
  // after the command, before any later event of the query is raised.
  service_->Submit(std::move(req), this,
                   [this, conn, type, request_id, want_events, query_id](
                       ShardedService::Outcome out) {
                     if (!out.error) {
                       if (type == MsgType::kRegisterQuery && want_events) {
                         Route(out.registered.query_id, conn);
                       } else if (type == MsgType::kSubscribeQuery) {
                         Route(query_id, conn);
                       } else if (type == MsgType::kReleaseQuery) {
                         std::lock_guard<std::mutex> lk(routes_mu_);
                         routes_.erase(query_id);
                       }
                     }
                     std::string frame = EncodeAnswer(type, request_id, out);
                     {
                       std::lock_guard<std::mutex> lk(conn->mu);
                       conn->outbox += frame;
                       conn->answered = true;
                     }
                     Wake();
                   });
}

void Daemon::HandleRequest(const std::shared_ptr<Conn>& conn, const std::string& payload) {
  Request req = DecodeRequest(payload);  // SerializeError -> caller closes
  std::string response;
  switch (req.type) {
    case MsgType::kRecordStatBatch:
      try {
        response = EncodeOk(req.request_id,
                            service_->RecordStatBatch(req.record_stat_batch.world_key,
                                                      req.record_stat_batch.mutations));
      } catch (const ServiceError& e) {
        response = EncodeError(req.request_id, e.code, e.what());
      }
      break;
    case MsgType::kShutdown:
      response = EncodeOk(req.request_id, 0);
      stop_requested_.store(true, std::memory_order_relaxed);
      break;
    case MsgType::kRegisterQuery:
      if (stop_requested_.load(std::memory_order_relaxed)) {
        response = EncodeError(req.request_id, WireErrorCode::kShuttingDown, "daemon is draining");
        break;
      }
      [[fallthrough]];
    default:
      SubmitRequest(conn, std::move(req));
      return;
  }
  std::lock_guard<std::mutex> lk(conn->mu);
  conn->outbox += response;
}

bool Daemon::ReadInput(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  for (;;) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n == 0) {
      // The peer shut its side; it may still read what it asked for.
      conn->close_after_write = true;
      return true;
    }
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    if (!conn->sniffed) {
      conn->sniffed = true;
      conn->http = buf[0] == 'G';
    }
    if (!conn->http) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    conn->http_buf.append(buf, static_cast<size_t>(n));
    if (conn->http_buf.find("\r\n\r\n") != std::string::npos || conn->http_buf.size() > 8192) {
      conn->close_after_write = true;
      conn->in_flight = true;
      Request req;
      req.type = MsgType::kGetMetrics;
      service_->Submit(std::move(req), nullptr, [this, conn](ShardedService::Outcome out) {
        {
          std::lock_guard<std::mutex> lk(conn->mu);
          conn->outbox += HttpMetricsResponse(out.text);
          conn->answered = true;
        }
        Wake();
      });
      return true;
    }
  }
}

bool Daemon::ServeRequests(const std::shared_ptr<Conn>& conn) {
  std::string payload;
  for (;;) {
    if (conn->in_flight) {
      std::lock_guard<std::mutex> lk(conn->mu);
      if (!conn->answered) return true;
      conn->answered = false;
      conn->in_flight = false;
    }
    if (conn->http) return true;
    try {
      if (!conn->decoder.Next(&payload)) return true;
      HandleRequest(conn, payload);
    } catch (const SerializeError&) {
      // Malformed frame: this connection dies; its peers and its queries
      // (unrouted at teardown) are untouched.
      return false;
    }
  }
}

bool Daemon::HandleWritable(Conn* conn) {
  std::string pending;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    pending.swap(conn->outbox);
  }
  size_t off = 0;
  while (off < pending.size()) {
    const ssize_t n = send(conn->fd, pending.data() + off, pending.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  if (off < pending.size()) {
    // Put the unwritten tail back in front of anything a shard thread
    // appended meanwhile.
    std::lock_guard<std::mutex> lk(conn->mu);
    conn->outbox.insert(0, pending, off, pending.size() - off);
  } else if (conn->close_after_write && !conn->in_flight) {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->outbox.empty()) return false;
  }
  return true;
}

void Daemon::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = std::move(it->second);
  conns_.erase(it);
  close(fd);
  std::lock_guard<std::mutex> lk(routes_mu_);
  conn->closed = true;
  std::erase_if(routes_, [&conn](const auto& route) { return route.second == conn; });
}

void Daemon::BeginShutdown() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  service_->Drain();     // every in-flight request is answered
  service_->FlushAll();  // final events still reach connected subscribers
  if (!options_.service.snapshot_dir.empty()) service_->SaveSnapshots();
}

void Daemon::EventLoop() {
  bool shutting_down = false;
  std::chrono::steady_clock::time_point drain_deadline;
  std::vector<pollfd> fds;
  std::vector<int> dead;
  for (;;) {
    fds.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      // One request in flight: the next one stays in the socket buffer.
      short events = conn->in_flight || conn->close_after_write ? 0 : POLLIN;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        if (!conn->outbox.empty()) events |= POLLOUT;
      }
      fds.push_back({fd, events, 0});
    }
    poll(fds.data(), fds.size(), shutting_down ? 20 : 200);

    if (fds[0].revents & POLLIN) {
      char drainbuf[256];
      while (read(wake_fds_[0], drainbuf, sizeof(drainbuf)) > 0) {
      }
    }

    if (!shutting_down && stop_requested_.load(std::memory_order_relaxed)) {
      shutting_down = true;
      BeginShutdown();
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
    }

    size_t idx = 1;
    if (listen_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) AcceptPending();
      ++idx;
    }
    dead.clear();
    for (; idx < fds.size(); ++idx) {
      auto it = conns_.find(fds[idx].fd);
      if (it == conns_.end()) continue;
      const std::shared_ptr<Conn>& conn = it->second;
      bool alive = true;
      if (fds[idx].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Flush what we can, then drop.
        alive = HandleWritable(conn.get()) && !(fds[idx].revents & (POLLERR | POLLNVAL));
        if (fds[idx].revents & POLLHUP) alive = false;
      } else {
        if (fds[idx].revents & POLLIN) alive = ReadInput(conn);
        // Every connection, every round: a completion may have answered
        // since the last one, and its response should not wait for the
        // next poll.
        if (alive) alive = ServeRequests(conn);
        if (alive) alive = HandleWritable(conn.get());
      }
      if (!alive) dead.push_back(fds[idx].fd);
    }
    for (const int fd : dead) CloseConn(fd);

    if (shutting_down) {
      bool settled = true;
      for (auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lk(conn->mu);
        if (conn->in_flight || !conn->outbox.empty()) settled = false;
      }
      if (settled || std::chrono::steady_clock::now() >= drain_deadline) break;
    }
  }
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
  // Every in-flight request answers: afterwards no shard thread holds a
  // Conn, and no route is left to poke the wakeup pipe.
  service_->Drain();
  if (!options_.unix_path.empty()) unlink(options_.unix_path.c_str());
  running_.store(false);
}

}  // namespace iqro::server
