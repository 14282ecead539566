// ShardedService: the daemon's shard layer — N worker threads, each owning
// a disjoint set of "worlds" (one StatsRegistry partition + one
// ReoptSession per world), routed by a deterministic scope-mask hash.
//
// ## The world model
//
// A *world* is one (CatalogSpec, QuerySpec) pair: one statistics namespace
// (StatsRegistry slots are the query's relation slots — see
// query/bind_stats.h), one join graph/plan space, one ReoptSession. A
// *query* within a world is one DeclarativeOptimizer configuration (a
// named OptimizerOptions set from the testing::ScenarioOptionSets
// vocabulary) registered in that world's session — the scope-overlap storm
// idiom (src/testing/scenario_class.cc): many optimizer configs sharing
// one registry, each with its own SummaryCalculator/CostModel so the
// session's SharedSummaryCache stays the only cross-query sharing edge.
//
// Worlds are assigned to shards by ShardOfWorld(world_key, scope_mask):
// FNV-1a64 over the key and the query's relation mask, mod num_shards —
// deterministic across runs, restarts, and shard counts' routing inputs,
// so a 1-shard and a 4-shard service route the same stream to the same
// per-world command order. Everything that touches a world (Register,
// mutations, Flush, snapshot) executes on its shard's thread through a
// FIFO command queue; per-world operation order therefore equals arrival
// order, which is what makes the sharded service byte-equivalent to a
// single in-process ReoptSession oracle per world (the shard-routing
// differential test's contract). Worlds are independent by construction —
// cross-world ordering is unconstrained and unobservable.
//
// ## Usable without sockets
//
// This layer has no I/O: the daemon (server/daemon.h) drives it from
// decoded wire frames, tests and benches drive it directly. Plan-change /
// quarantine notifications are delivered through a per-query EventSink on
// the shard thread (the daemon routes each one into the outbox of the
// connection that owns the query; tests record them).
#ifndef IQRO_SERVER_SHARDED_SERVICE_H_
#define IQRO_SERVER_SHARDED_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/relset.h"
#include "query/query_spec.h"
#include "server/wire.h"
#include "testing/scenario.h"

namespace iqro::server {

/// Application-level rejection, carrying the wire error code the daemon
/// answers with (in-process callers catch it directly).
class ServiceError : public std::runtime_error {
 public:
  ServiceError(WireErrorCode code_in, const std::string& what)
      : std::runtime_error(what), code(code_in) {}
  WireErrorCode code;
};

/// One notification out of a world's session, flattened for delivery
/// (plan-change or quarantine; see server/wire.h for the frame shape).
struct ServerEvent {
  enum class Kind : uint8_t { kPlanChange, kQuarantine };
  Kind kind = Kind::kPlanChange;
  uint64_t query_id = 0;
  uint64_t world_key = 0;
  // kPlanChange
  uint64_t flush_epoch = 0;
  double old_cost = 0;
  double new_cost = 0;
  int changed_operators = 0;
  int total_operators = 0;
  int join_order_prefix = 0;
  int join_order_len = 0;
  // kQuarantine
  uint8_t reason = 0;
  int strikes = 0;
  bool parked = false;
  std::string message;
};

/// Where a query's events go. Called on the owning SHARD thread, during a
/// flush — implementations must be quick, must not call back into the
/// service, and must synchronize their own state (the daemon locks its
/// route map and a connection outbox; test sinks lock a vector).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnServerEvent(const ServerEvent& event) = 0;
};

struct ShardedServiceOptions {
  int num_shards = 1;
  /// > 0: every world's session auto-flushes after this many mutations
  /// (CountPolicy). 0: manual Flush()/FlushAll() only.
  int auto_flush_count = 0;
  /// > 0: every world's session bounds mutation staleness by wall clock
  /// (DeadlinePolicy); shard threads then poll idle sessions at
  /// `poll_granularity`. Ignored when auto_flush_count > 0.
  std::chrono::milliseconds flush_deadline{0};
  std::chrono::milliseconds poll_granularity{2};
  /// Per-session failure-domain / lifecycle knobs (see ReoptSessionOptions).
  int64_t per_query_work_budget = 0;
  size_t memo_byte_budget = 0;
  /// Directory for SaveSnapshots()/LoadSnapshots() (per-shard manifests +
  /// per-world session snapshots). Empty: snapshots disabled.
  std::string snapshot_dir;
};

/// Aggregate counters across every shard's sessions (quiesced reads: the
/// collecting command runs on each shard thread, so no flush is in flight
/// on that shard while its sessions are read).
struct ShardedServiceStats {
  int64_t worlds = 0;
  int64_t queries = 0;
  int64_t flushes = 0;
  int64_t changes_flushed = 0;
  int64_t plan_changes = 0;
  int64_t mutations_observed = 0;
  int64_t quarantines = 0;
  int64_t mutations_rejected = 0;  // invalid mutations dropped at the door
};

class ShardedService {
 public:
  struct RegisterResult {
    uint64_t query_id = 0;
    uint32_t shard = 0;
    double best_cost = 0;
  };

  /// What a shard-bound request produced: `error`, or the result field
  /// its request type fills.
  struct Outcome {
    /// The request failed: a ServiceError (carrying the wire code), or a
    /// SerializeError{kIo} when a kSnapshot write failed.
    std::exception_ptr error;
    /// kFlush: dispatched StatChanges; kSnapshot: queries persisted.
    uint64_t value = 0;
    RegisterResult registered;  // kRegisterQuery
    std::string text;           // kGetMetrics
  };
  using Completion = std::function<void(Outcome)>;

  explicit ShardedService(ShardedServiceOptions options = {});
  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// The deterministic routing hash: FNV-1a64(world_key || scope_mask) mod
  /// num_shards. The key salts the hash so services whose worlds share a
  /// relation-mask alphabet (every 4-relation query masks 0b1111) still
  /// spread.
  static uint32_t ShardOfWorld(uint64_t world_key, RelSet scope_mask, int num_shards);

  /// The one entry point of every request that reaches a shard:
  /// kRegisterQuery, kReleaseQuery, kSubscribeQuery, kFlush (one world or
  /// all), kSnapshot and kGetMetrics; any other type is rejected with
  /// kBadRequest. Returns without waiting. `done` runs exactly once: on
  /// the shard thread that ran the command (for kFlush-all, kSnapshot and
  /// kGetMetrics, which run on every shard, the last one to finish), or
  /// on the calling thread when the request is rejected before it reaches
  /// a shard. It must be quick and must not wait on this service. `sink`
  /// is the event sink of kRegisterQuery (when want_events) and
  /// kSubscribeQuery (null detaches). A shard runs its commands in
  /// submission order, so the events a flush delivers precede its `done`.
  /// The blocking calls below are waits on this path. Thread-safe.
  void Submit(Request request, EventSink* sink, Completion done);

  /// Registers one optimizer configuration. The first registration under
  /// `world_key` builds the world on its shard (catalog, statistics, join
  /// graph, session); later ones must present byte-identical specs
  /// (WorldFingerprint-checked -> ServiceError{kSpecMismatch}) and join
  /// the existing session. The first registration reserves the world's
  /// shard before it is posted, so concurrent first registrations of one
  /// key meet on one shard, where one wins and the others get
  /// kSpecMismatch. `options_name` must name a testing::ScenarioOptionSets
  /// entry (-> kUnknownOptions). `sink` (may be null) receives the query's
  /// events on the shard thread until SetSink replaces it. Thread-safe.
  RegisterResult RegisterQuery(uint64_t world_key, const testing::CatalogSpec& catalog,
                               const QuerySpec& query, const std::string& options_name,
                               EventSink* sink);

  /// Unregisters a query (its session handle is released on the shard
  /// thread). Returns false for an unknown id. The world stays resident —
  /// worlds die with the service, not with their last query.
  bool ReleaseQuery(uint64_t query_id);

  /// Replaces a query's event sink (null detaches) — the reconnect path.
  /// After it returns, the old sink is guaranteed to receive no further
  /// calls. Returns false for an unknown id.
  bool SetSink(uint64_t query_id, EventSink* sink);

  /// Validates and applies a mutation batch to a world's registry, in
  /// arrival order on its shard thread (asynchronously — a following
  /// Flush() on the same world is ordered after it by the FIFO queue).
  /// Returns the number of mutations accepted; out-of-range targets,
  /// non-finite or non-positive values are dropped and counted
  /// (Stats().mutations_rejected). ServiceError{kUnknownWorld} for a key
  /// with no built world, including one whose first registration is
  /// still in flight.
  size_t RecordStatBatch(uint64_t world_key, const std::vector<testing::StatMutation>& mutations);

  /// Flushes one world's session and returns the dispatched StatChanges.
  /// ServiceError{kUnknownWorld} as for RecordStatBatch.
  size_t Flush(uint64_t world_key);

  /// Flushes every world on every shard (shards in parallel); returns the
  /// summed dispatched change count.
  size_t FlushAll();

  /// Barrier: returns after every command queued before it has executed
  /// on every shard.
  void Drain();

  /// The query's optimizer state, canonically rendered
  /// (DeclarativeOptimizer::CanonicalDumpState) — the differential
  /// harness's comparison key. ServiceError{kUnknownQuery} on a bad id.
  std::string QueryCanonicalDump(uint64_t query_id);

  /// The query's current best plan cost. ServiceError{kUnknownQuery}.
  double QueryBestCost(uint64_t query_id);

  /// Persists every world: per shard, one manifest (world specs + query
  /// configurations, snapshot.h container) plus one ReoptSession snapshot
  /// per world, all under options.snapshot_dir. Flushes first (session
  /// SaveSnapshot semantics). Returns the number of queries persisted.
  /// Throws ServiceError{kBadRequest} without a snapshot_dir;
  /// SerializeError{kIo} on filesystem failure.
  size_t SaveSnapshots();

  /// Warm-restarts an EMPTY service from SaveSnapshots() output: rebuilds
  /// each world from its manifest record, then LoadSnapshot()s its
  /// session, preserving query ids. Event sinks come back null — clients
  /// re-attach with SetSink (kSubscribeQuery on the wire). Missing
  /// manifests are treated as empty shards. Returns the number of queries
  /// restored. Throws SerializeError on corrupt files.
  size_t LoadSnapshots();

  /// Prometheus text exposition: the summed session counters of every
  /// world (service/metrics_exporter.h PrometheusSessionText) plus
  /// service-level gauges (worlds, queries, per-shard query counts).
  std::string MetricsText();

  ShardedServiceStats Stats();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t num_queries() const;
  size_t num_worlds() const;

 private:
  struct Shard;
  struct Group;
  struct GroupQuery;
  struct WorldInfo {
    uint32_t shard = 0;
    /// False while the world's first registration is in flight: its shard
    /// is reserved, but the world it names does not exist yet.
    bool built = false;
    int num_relations = 0;
    int num_edges = 0;
  };
  struct QueryLoc {
    uint32_t shard = 0;
    uint64_t world_key = 0;
  };

  void ShardLoop(Shard* shard);
  void Post(uint32_t shard, std::function<void()> fn);
  /// Runs `body` on `shard`, then `done` with its result or exception.
  void PostCompletion(uint32_t shard, std::function<Outcome()> body, Completion done);
  /// Runs `body(i)` on every shard i in parallel. The last shard to finish
  /// hands `done` the first exception a body threw, or `finish()`.
  void PostToAll(std::function<void(uint32_t)> body, std::function<Outcome()> finish,
                 Completion done);
  /// Starts a command with a completion and waits for it; rethrows its error.
  static Outcome Wait(const std::function<void(Completion)>& start);
  /// Submit's kSnapshot and kGetMetrics bodies (fan-outs to every shard).
  void SubmitSnapshot(Completion done);
  void SubmitMetrics(Completion done);
  Outcome Await(Request request, EventSink* sink);
  /// Await for the requests whose only failure is an unknown query id:
  /// false for that one.
  bool AwaitKnownQuery(Request request, EventSink* sink);
  /// Runs `fn` on `shard` and returns its result; exceptions propagate.
  template <typename F>
  auto Call(uint32_t shard, F&& fn) -> decltype(fn());

  /// The routing entry of a built world; ServiceError{kUnknownWorld}
  /// otherwise.
  WorldInfo BuiltWorld(uint64_t world_key) const;
  /// The location of a registered query; ServiceError{kUnknownQuery}
  /// otherwise.
  QueryLoc LocateQuery(uint64_t query_id) const;
  /// Shard-thread lookup of a registered query; null when it is gone.
  GroupQuery* FindQuery(const QueryLoc& loc, uint64_t query_id);

  /// Shard-thread body of a registration (group lookup/create + session
  /// registration).
  RegisterResult RegisterOnShard(uint32_t shard_idx, const RegisterQueryReq& req,
                                 EventSink* sink);

  ShardedServiceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex index_mu_;
  std::unordered_map<uint64_t, WorldInfo> worlds_;
  std::unordered_map<uint64_t, QueryLoc> queries_;
  uint64_t next_query_id_ = 1;
  int64_t mutations_rejected_ = 0;
};

}  // namespace iqro::server

#endif  // IQRO_SERVER_SHARDED_SERVICE_H_
