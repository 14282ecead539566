#include "server/sharded_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <utility>

#include "core/declarative_optimizer.h"
#include "cost/cost_model.h"
#include "service/flush_policy.h"
#include "service/metrics_exporter.h"
#include "service/plan_subscriber.h"
#include "service/reopt_session.h"
#include "service/snapshot.h"
#include "stats/summary.h"
#include "testing/scenario.h"

namespace iqro::server {

namespace {

/// Manifest section type: one serialized world record (specs + query
/// configurations) per section.
constexpr uint32_t kManifestWorldSection = 1;

const OptimizerOptions* FindOptionSet(const std::string& name) {
  for (const auto& [set_name, options] : testing::ScenarioOptionSets()) {
    if (set_name == name) return &options;
  }
  return nullptr;
}

/// Structural validation of a registration's specs — the wire codec caps
/// sizes, but cross-references (relation slots, table ids, column ranges)
/// are the service's to check before a world is built from them.
void ValidateSpecs(const testing::CatalogSpec& catalog, const QuerySpec& query) {
  const int nrel = query.num_relations();
  if (nrel < 1 || nrel > kMaxRelations) {
    throw ServiceError(WireErrorCode::kBadRequest, "query must have 1.." +
                                                       std::to_string(kMaxRelations) +
                                                       " relations, has " + std::to_string(nrel));
  }
  if (!catalog.use_tpch && catalog.tables.empty()) {
    throw ServiceError(WireErrorCode::kBadRequest, "synthetic catalog has no tables");
  }
  for (const testing::SyntheticTableSpec& t : catalog.tables) {
    if (t.clustered_on >= static_cast<int>(t.cols.size())) {
      throw ServiceError(WireErrorCode::kBadRequest,
                         "table " + t.name + " is clustered on column " +
                             std::to_string(t.clustered_on) + " of " +
                             std::to_string(t.cols.size()));
    }
    for (const testing::SyntheticColumnSpec& c : t.cols) {
      // The histogram sampler draws from [min, max]: the span must be a
      // non-negative int64 (unsigned difference is exact once min <= max).
      if (c.min > c.max || static_cast<uint64_t>(c.max) - static_cast<uint64_t>(c.min) >
                               static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
        throw ServiceError(WireErrorCode::kBadRequest,
                           "table " + t.name + " has a column range [" + std::to_string(c.min) +
                               ", " + std::to_string(c.max) + "] that is empty or too wide");
      }
    }
  }
  const int ntables = catalog.use_tpch ? testing::SharedTpchFixture().catalog.num_tables()
                                       : static_cast<int>(catalog.tables.size());
  for (const QueryRelation& rel : query.relations) {
    if (rel.table < 0 || rel.table >= ntables) {
      throw ServiceError(WireErrorCode::kBadRequest,
                         "relation references table " + std::to_string(rel.table) + " of " +
                             std::to_string(ntables));
    }
  }
  auto check_rel = [nrel](int rel, const char* what) {
    if (rel < 0 || rel >= nrel) {
      throw ServiceError(WireErrorCode::kBadRequest,
                         std::string(what) + " references relation " + std::to_string(rel));
    }
  };
  // Column indices past a table's width fall back to default estimates;
  // negative ones would index before the column array.
  auto check_col = [](int col, const char* what) {
    if (col < 0) {
      throw ServiceError(WireErrorCode::kBadRequest,
                         std::string(what) + " references column " + std::to_string(col));
    }
  };
  for (const JoinPredicate& j : query.joins) {
    check_rel(j.left_rel, "join");
    check_rel(j.right_rel, "join");
    check_col(j.left_col, "join");
    check_col(j.right_col, "join");
    if (j.left_rel == j.right_rel) {
      throw ServiceError(WireErrorCode::kBadRequest,
                         "join joins relation " + std::to_string(j.left_rel) + " to itself");
    }
  }
  // The enumerator plans no cross products: every relation must be
  // reachable from relation 0 over the join edges, or the root has no plan.
  const RelSet all = (RelSet{1} << nrel) - 1;
  RelSet reached = RelSingleton(0);
  for (bool grew = true; grew;) {
    grew = false;
    for (const JoinPredicate& j : query.joins) {
      const RelSet e = j.Endpoints();
      if ((e & reached) != 0 && (e & ~reached) != 0) {
        reached |= e;
        grew = true;
      }
    }
  }
  if (reached != all) {
    throw ServiceError(WireErrorCode::kBadRequest, "join graph is not connected");
  }
  for (const LocalPredicate& l : query.locals) {
    check_rel(l.rel, "local predicate");
    check_col(l.col, "local predicate");
  }
  for (const ColRef& c : query.projections) check_rel(c.rel, "projection");
  for (const ColRef& c : query.group_by) check_rel(c.rel, "group-by");
}

/// A mutation the registry would reject or that targets state outside the
/// world is dropped at the door — a hostile client must not be able to
/// crash a shard or poison a world it shares.
bool ValidMutation(const testing::StatMutation& m, int num_relations, int num_edges) {
  if (!std::isfinite(m.value) || m.value <= 0) return false;
  const RelSet all = num_relations >= 32 ? ~RelSet{0} : (RelSet{1} << num_relations) - 1;
  switch (m.kind) {
    case testing::StatMutation::Kind::kBaseRows:
    case testing::StatMutation::Kind::kLocalSelectivity:
    case testing::StatMutation::Kind::kRowWidth:
    case testing::StatMutation::Kind::kScanCost:
      return m.target >= 0 && m.target < num_relations;
    case testing::StatMutation::Kind::kJoinSelectivity:
      return m.target >= 0 && m.target < num_edges;
    case testing::StatMutation::Kind::kCardMultiplier:
      return m.scope != 0 && (m.scope & ~all) == 0;
  }
  return false;
}

ServiceError UnknownQuery(uint64_t query_id) {
  return ServiceError(WireErrorCode::kUnknownQuery, "unknown query " + std::to_string(query_id));
}

}  // namespace

/// Relays one session's notifications for one query to its current
/// EventSink (shard-thread calls only; the sink pointer is owned by the
/// GroupQuery and mutated only via shard commands, so no lock is needed).
struct ShardedService::GroupQuery final : public PlanSubscriber {
  uint64_t id = 0;
  uint64_t world_key = 0;
  std::string options_name;
  std::unique_ptr<SummaryCalculator> summaries;
  std::unique_ptr<CostModel> cost_model;
  std::unique_ptr<DeclarativeOptimizer> optimizer;
  EventSink* sink = nullptr;
  /// Declared after the optimizer: released (unregistering from the
  /// session) before the optimizer dies.
  QueryHandle handle;

  void OnPlanChange(const PlanChangeEvent& event) override {
    if (sink == nullptr) return;
    ServerEvent e;
    e.kind = ServerEvent::Kind::kPlanChange;
    e.query_id = id;
    e.world_key = world_key;
    e.flush_epoch = event.flush_epoch;
    e.old_cost = event.old_cost;
    e.new_cost = event.new_cost;
    e.changed_operators = event.diff.changed_operators;
    e.total_operators = event.diff.total_operators;
    e.join_order_prefix = event.diff.join_order_prefix;
    e.join_order_len = event.diff.join_order_len;
    sink->OnServerEvent(e);
  }

  void OnQueryQuarantined(const QueryQuarantinedEvent& event) override {
    if (sink == nullptr) return;
    ServerEvent e;
    e.kind = ServerEvent::Kind::kQuarantine;
    e.query_id = id;
    e.world_key = world_key;
    e.flush_epoch = event.flush_epoch;
    e.reason = static_cast<uint8_t>(event.reason);
    e.strikes = event.strikes;
    e.parked = event.parked;
    e.message = event.message;
    sink->OnServerEvent(e);
  }
};

/// One world: the spec-owned scenario (the enumerator borrows its query),
/// the wired optimization world, the session, and the registered
/// configurations. Destruction order matters: queries release their
/// handles first, then the session unsubscribes from the registry, then
/// the world dies.
struct ShardedService::Group {
  uint64_t world_key = 0;
  uint64_t fingerprint = 0;
  RelSet scope_mask = 0;
  /// Owns catalog + query for the world's lifetime (BuildScenarioWorld's
  /// enumerator keeps a pointer to scenario.query).
  testing::Scenario scenario;
  std::unique_ptr<testing::ScenarioWorld> world;
  std::unique_ptr<ReoptSession> session;
  std::vector<std::unique_ptr<GroupQuery>> queries;  // registration order
};

struct ShardedService::Shard {
  uint32_t index = 0;
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  bool stop = false;
  /// Shard-thread-only: never touched off-thread.
  std::unordered_map<uint64_t, std::unique_ptr<Group>> groups;
};

ShardedService::ShardedService(ShardedServiceOptions options) : options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<uint32_t>(i);
    Shard* raw = shard.get();
    shard->thread = std::thread([this, raw] { ShardLoop(raw); });
    shards_.push_back(std::move(shard));
  }
}

ShardedService::~ShardedService() {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lk(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Groups die on this thread after every shard thread joined — session
  // destructors unsubscribe from their registries with no flush possible.
}

uint32_t ShardedService::ShardOfWorld(uint64_t world_key, RelSet scope_mask, int num_shards) {
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutU64(world_key);
  w.PutU32(scope_mask);
  const uint64_t h = Fnv1a64(bytes.data(), bytes.size());
  return static_cast<uint32_t>(h % static_cast<uint64_t>(num_shards < 1 ? 1 : num_shards));
}

void ShardedService::ShardLoop(Shard* shard) {
  const bool poll_idle = options_.flush_deadline.count() > 0 && options_.auto_flush_count <= 0;
  for (;;) {
    std::function<void()> cmd;
    {
      std::unique_lock<std::mutex> lk(shard->mu);
      if (poll_idle) {
        shard->cv.wait_for(lk, options_.poll_granularity,
                           [shard] { return shard->stop || !shard->queue.empty(); });
      } else {
        shard->cv.wait(lk, [shard] { return shard->stop || !shard->queue.empty(); });
      }
      if (!shard->queue.empty()) {
        cmd = std::move(shard->queue.front());
        shard->queue.pop_front();
      } else if (shard->stop) {
        return;
      }
    }
    if (cmd) {
      cmd();
    } else if (poll_idle) {
      // Idle tick: let deadline policies and quarantine backoffs fire.
      for (auto& [key, group] : shard->groups) group->session->Poll();
    }
  }
}

void ShardedService::Post(uint32_t shard, std::function<void()> fn) {
  Shard* s = shards_[shard].get();
  {
    std::lock_guard<std::mutex> lk(s->mu);
    s->queue.push_back(std::move(fn));
  }
  s->cv.notify_all();
}

void ShardedService::PostCompletion(uint32_t shard, std::function<Outcome()> body,
                                    Completion done) {
  Post(shard, [body = std::move(body), done = std::move(done)] {
    Outcome out;
    try {
      out = body();
    } catch (...) {
      out.error = std::current_exception();
    }
    done(std::move(out));
  });
}

void ShardedService::PostToAll(std::function<void(uint32_t)> body,
                               std::function<Outcome()> finish, Completion done) {
  struct Join {
    std::function<void(uint32_t)> body;
    std::function<Outcome()> finish;
    Completion done;
    std::atomic<size_t> remaining{0};
    std::mutex mu;
    std::exception_ptr error;  // the first body's exception
  };
  auto join = std::make_shared<Join>();
  join->body = std::move(body);
  join->finish = std::move(finish);
  join->done = std::move(done);
  join->remaining.store(shards_.size());
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    Post(i, [join, i] {
      try {
        join->body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(join->mu);
        if (!join->error) join->error = std::current_exception();
      }
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      Outcome out;
      {
        std::lock_guard<std::mutex> lk(join->mu);
        out.error = join->error;
      }
      if (!out.error) {
        try {
          out = join->finish();
        } catch (...) {
          out.error = std::current_exception();
        }
      }
      join->done(std::move(out));
    });
  }
}

ShardedService::Outcome ShardedService::Wait(const std::function<void(Completion)>& start) {
  // Shared with the completion: the waiter may return while the completing
  // thread is still inside set_value.
  auto promise = std::make_shared<std::promise<Outcome>>();
  std::future<Outcome> future = promise->get_future();
  start([promise](Outcome out) { promise->set_value(std::move(out)); });
  Outcome out = future.get();
  if (out.error) std::rethrow_exception(out.error);
  return out;
}

ShardedService::Outcome ShardedService::Await(Request request, EventSink* sink) {
  return Wait([&](Completion done) { Submit(std::move(request), sink, std::move(done)); });
}

bool ShardedService::AwaitKnownQuery(Request request, EventSink* sink) {
  try {
    Await(std::move(request), sink);
    return true;
  } catch (const ServiceError& e) {
    if (e.code == WireErrorCode::kUnknownQuery) return false;
    throw;
  }
}

template <typename F>
auto ShardedService::Call(uint32_t shard, F&& fn) -> decltype(fn()) {
  decltype(fn()) result{};
  Wait([&](Completion done) {
    PostCompletion(
        shard,
        [&] {
          result = fn();
          return Outcome{};
        },
        std::move(done));
  });
  return result;
}

ShardedService::WorldInfo ShardedService::BuiltWorld(uint64_t world_key) const {
  std::lock_guard<std::mutex> lk(index_mu_);
  auto it = worlds_.find(world_key);
  if (it == worlds_.end() || !it->second.built) {
    throw ServiceError(WireErrorCode::kUnknownWorld,
                       "no world registered under key " + std::to_string(world_key));
  }
  return it->second;
}

ShardedService::QueryLoc ShardedService::LocateQuery(uint64_t query_id) const {
  std::lock_guard<std::mutex> lk(index_mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    throw UnknownQuery(query_id);
  }
  return it->second;
}

ShardedService::GroupQuery* ShardedService::FindQuery(const QueryLoc& loc, uint64_t query_id) {
  Shard* shard = shards_[loc.shard].get();
  auto git = shard->groups.find(loc.world_key);
  if (git == shard->groups.end()) return nullptr;
  for (auto& q : git->second->queries) {
    if (q->id == query_id) return q.get();
  }
  return nullptr;
}

ShardedService::RegisterResult ShardedService::RegisterOnShard(uint32_t shard_idx,
                                                               const RegisterQueryReq& req,
                                                               EventSink* sink) {
  const OptimizerOptions* options = FindOptionSet(req.options_name);
  Shard* shard = shards_[shard_idx].get();
  const uint64_t fingerprint = WorldFingerprint(req.catalog, req.query);
  Group* group = nullptr;
  auto it = shard->groups.find(req.world_key);
  if (it != shard->groups.end()) {
    group = it->second.get();
    if (group->fingerprint != fingerprint) {
      throw ServiceError(WireErrorCode::kSpecMismatch,
                         "world key reused with different catalog/query specs");
    }
  } else {
    auto fresh = std::make_unique<Group>();
    fresh->world_key = req.world_key;
    fresh->fingerprint = fingerprint;
    fresh->scope_mask = req.query.AllRelations();
    fresh->scenario.catalog = req.catalog;
    fresh->scenario.query = req.query;
    fresh->world = testing::BuildScenarioWorld(fresh->scenario);
    ReoptSessionOptions so;
    so.per_query_work_budget = options_.per_query_work_budget;
    so.memo_byte_budget = options_.memo_byte_budget;
    if (options_.auto_flush_count > 0) {
      so.flush_policy = std::make_shared<CountPolicy>(options_.auto_flush_count);
    } else if (options_.flush_deadline.count() > 0) {
      so.flush_policy = std::make_shared<DeadlinePolicy>(options_.flush_deadline);
    }
    fresh->session = std::make_unique<ReoptSession>(&fresh->world->registry, so);
    group = fresh.get();
    shard->groups.emplace(req.world_key, std::move(fresh));
    std::lock_guard<std::mutex> lk(index_mu_);
    // Validation dims come from the BUILT world's registry, not the spec:
    // the join graph may merge parallel join predicates into one edge.
    worlds_[req.world_key] = WorldInfo{shard_idx, true, group->world->registry.num_relations(),
                                       group->world->registry.num_edges()};
  }

  auto q = std::make_unique<GroupQuery>();
  q->world_key = req.world_key;
  q->options_name = req.options_name;
  q->summaries = std::make_unique<SummaryCalculator>(&group->world->registry);
  q->cost_model = std::make_unique<CostModel>(q->summaries.get());
  q->optimizer = std::make_unique<DeclarativeOptimizer>(
      group->world->enumerator.get(), q->cost_model.get(), &group->world->registry, *options);
  q->optimizer->Optimize();
  q->sink = sink;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    q->id = next_query_id_++;
    queries_[q->id] = QueryLoc{shard_idx, req.world_key};
  }
  try {
    q->handle = group->session->Register(*q->optimizer, q.get());
  } catch (const SessionOverloaded& e) {
    std::lock_guard<std::mutex> lk(index_mu_);
    queries_.erase(q->id);
    throw ServiceError(WireErrorCode::kOverloaded, e.what());
  }
  RegisterResult result;
  result.query_id = q->id;
  result.shard = shard_idx;
  result.best_cost = q->optimizer->BestCost();
  group->queries.push_back(std::move(q));
  return result;
}

void ShardedService::Submit(Request request, EventSink* sink, Completion done) {
  try {
    switch (request.type) {
      case MsgType::kRegisterQuery: {
        const RegisterQueryReq& r = request.register_query;
        if (FindOptionSet(r.options_name) == nullptr) {
          throw ServiceError(WireErrorCode::kUnknownOptions,
                             "unknown option set " + r.options_name);
        }
        ValidateSpecs(r.catalog, r.query);
        uint32_t shard;
        {
          std::lock_guard<std::mutex> lk(index_mu_);
          // Reserve the route before posting: a concurrent first
          // registration under this key with other specs hashes another
          // relation mask, but must meet this one on the same shard to be
          // refused there.
          auto [it, fresh] = worlds_.try_emplace(r.world_key);
          if (fresh) {
            it->second.shard = ShardOfWorld(r.world_key, r.query.AllRelations(), num_shards());
          }
          shard = it->second.shard;
        }
        if (!r.want_events) sink = nullptr;
        PostCompletion(
            shard,
            [this, shard, sink, req = std::move(request.register_query)] {
              Outcome out;
              out.registered = RegisterOnShard(shard, req, sink);
              return out;
            },
            std::move(done));
        return;
      }
      case MsgType::kReleaseQuery: {
        const uint64_t id = request.release_query.query_id;
        QueryLoc loc;
        {
          std::lock_guard<std::mutex> lk(index_mu_);
          auto it = queries_.find(id);
          if (it == queries_.end()) {
            throw UnknownQuery(id);
          }
          loc = it->second;
          queries_.erase(it);
        }
        PostCompletion(
            loc.shard,
            [this, loc, id] {
              auto& groups = shards_[loc.shard]->groups;
              auto git = groups.find(loc.world_key);
              auto is_id = [id](const auto& q) { return q->id == id; };
              if (git == groups.end() || std::erase_if(git->second->queries, is_id) == 0) {
                throw UnknownQuery(id);
              }
              return Outcome{};
            },
            std::move(done));
        return;
      }
      case MsgType::kSubscribeQuery: {
        const uint64_t id = request.subscribe_query.query_id;
        const QueryLoc loc = LocateQuery(id);
        PostCompletion(
            loc.shard,
            [this, loc, id, sink] {
              GroupQuery* q = FindQuery(loc, id);
              if (q == nullptr) {
                throw UnknownQuery(id);
              }
              q->sink = sink;
              return Outcome{};
            },
            std::move(done));
        return;
      }
      case MsgType::kFlush: {
        if (request.flush.all) {
          auto totals = std::make_shared<std::vector<uint64_t>>(shards_.size(), 0);
          PostToAll(
              [this, totals](uint32_t i) {
                for (auto& [key, group] : shards_[i]->groups) {
                  (*totals)[i] += group->session->Flush();
                }
              },
              [totals] {
                Outcome out;
                for (const uint64_t n : *totals) out.value += n;
                return out;
              },
              std::move(done));
          return;
        }
        const uint64_t world_key = request.flush.world_key;
        const uint32_t shard = BuiltWorld(world_key).shard;
        PostCompletion(
            shard,
            [this, shard, world_key] {
              Outcome out;
              auto it = shards_[shard]->groups.find(world_key);
              if (it != shards_[shard]->groups.end()) out.value = it->second->session->Flush();
              return out;
            },
            std::move(done));
        return;
      }
      case MsgType::kSnapshot:
        SubmitSnapshot(std::move(done));
        return;
      case MsgType::kGetMetrics:
        SubmitMetrics(std::move(done));
        return;
      default:
        throw ServiceError(WireErrorCode::kBadRequest,
                           std::string("unexpected message type ") + MsgTypeName(request.type));
    }
  } catch (const ServiceError&) {
    // Rejected at the door: nothing was posted, `done` is still ours.
    Outcome out;
    out.error = std::current_exception();
    done(std::move(out));
  }
}

ShardedService::RegisterResult ShardedService::RegisterQuery(uint64_t world_key,
                                                             const testing::CatalogSpec& catalog,
                                                             const QuerySpec& query,
                                                             const std::string& options_name,
                                                             EventSink* sink) {
  Request req;
  req.type = MsgType::kRegisterQuery;
  req.register_query.world_key = world_key;
  req.register_query.want_events = sink != nullptr;
  req.register_query.catalog = catalog;
  req.register_query.query = query;
  req.register_query.options_name = options_name;
  return Await(std::move(req), sink).registered;
}

bool ShardedService::ReleaseQuery(uint64_t query_id) {
  Request req;
  req.type = MsgType::kReleaseQuery;
  req.release_query.query_id = query_id;
  return AwaitKnownQuery(std::move(req), nullptr);
}

bool ShardedService::SetSink(uint64_t query_id, EventSink* sink) {
  Request req;
  req.type = MsgType::kSubscribeQuery;
  req.subscribe_query.query_id = query_id;
  return AwaitKnownQuery(std::move(req), sink);
}

size_t ShardedService::RecordStatBatch(uint64_t world_key,
                                       const std::vector<testing::StatMutation>& mutations) {
  const WorldInfo info = BuiltWorld(world_key);
  std::vector<testing::StatMutation> accepted;
  accepted.reserve(mutations.size());
  size_t rejected = 0;
  for (const testing::StatMutation& m : mutations) {
    if (ValidMutation(m, info.num_relations, info.num_edges)) {
      accepted.push_back(m);
    } else {
      ++rejected;
    }
  }
  if (rejected > 0) {
    std::lock_guard<std::mutex> lk(index_mu_);
    mutations_rejected_ += static_cast<int64_t>(rejected);
  }
  const size_t count = accepted.size();
  if (count == 0) return 0;
  Post(info.shard, [this, shard_idx = info.shard, world_key,
                    muts = std::move(accepted)] {
    Shard* shard = shards_[shard_idx].get();
    auto it = shard->groups.find(world_key);
    if (it == shard->groups.end()) return;  // released between post and run
    for (const testing::StatMutation& m : muts) {
      testing::ApplyMutation(&it->second->world->registry, m);
    }
  });
  return count;
}

size_t ShardedService::Flush(uint64_t world_key) {
  Request req;
  req.type = MsgType::kFlush;
  req.flush.world_key = world_key;
  return Await(std::move(req), nullptr).value;
}

size_t ShardedService::FlushAll() {
  Request req;
  req.type = MsgType::kFlush;
  req.flush.all = true;
  return Await(std::move(req), nullptr).value;
}

void ShardedService::Drain() {
  Wait([this](Completion done) {
    PostToAll([](uint32_t) {}, [] { return Outcome{}; }, std::move(done));
  });
}

std::string ShardedService::QueryCanonicalDump(uint64_t query_id) {
  const QueryLoc loc = LocateQuery(query_id);
  return Call(loc.shard, [this, loc, query_id]() -> std::string {
    GroupQuery* q = FindQuery(loc, query_id);
    if (q == nullptr) {
      throw UnknownQuery(query_id);
    }
    return q->optimizer->CanonicalDumpState();
  });
}

double ShardedService::QueryBestCost(uint64_t query_id) {
  const QueryLoc loc = LocateQuery(query_id);
  return Call(loc.shard, [this, loc, query_id]() -> double {
    GroupQuery* q = FindQuery(loc, query_id);
    if (q == nullptr) {
      throw UnknownQuery(query_id);
    }
    return q->optimizer->BestCost();
  });
}

namespace {

std::string SnapshotPath(const std::string& dir, uint32_t shard, uint64_t world_key) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/shard%u_world_%016llx.snap", shard,
                static_cast<unsigned long long>(world_key));
  return dir + buf;
}

std::string ManifestPath(const std::string& dir, uint32_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard%u.manifest", shard);
  return dir + buf;
}

}  // namespace

void ShardedService::SubmitSnapshot(Completion done) {
  if (options_.snapshot_dir.empty()) {
    throw ServiceError(WireErrorCode::kBadRequest, "service has no snapshot_dir configured");
  }
  auto persisted = std::make_shared<std::vector<uint64_t>>(shards_.size(), 0);
  PostToAll(
      [this, persisted](uint32_t i) {
        service::SnapshotWriter manifest;
        for (auto& [key, group] : shards_[i]->groups) {
          std::string record;
          ByteWriter w(&record);
          w.PutU64(group->world_key);
          w.PutU64(group->fingerprint);
          w.PutU32(group->scope_mask);
          EncodeCatalogSpec(&w, group->scenario.catalog);
          EncodeQuerySpec(&w, group->scenario.query);
          w.PutU32(static_cast<uint32_t>(group->queries.size()));
          for (const auto& q : group->queries) {
            w.PutU64(q->id);
            std::string name;
            ByteWriter nw(&name);
            nw.PutU32(static_cast<uint32_t>(q->options_name.size()));
            nw.PutBytes(q->options_name.data(), q->options_name.size());
            w.PutBytes(name.data(), name.size());
          }
          manifest.AddSection(kManifestWorldSection, std::move(record));
          group->session->SaveSnapshot(SnapshotPath(options_.snapshot_dir, i, key));
          (*persisted)[i] += group->queries.size();
        }
        manifest.WriteAtomic(ManifestPath(options_.snapshot_dir, i));
      },
      [persisted] {
        Outcome out;
        for (const uint64_t n : *persisted) out.value += n;
        return out;
      },
      std::move(done));
}

size_t ShardedService::SaveSnapshots() {
  Request req;
  req.type = MsgType::kSnapshot;
  return Await(std::move(req), nullptr).value;
}

size_t ShardedService::LoadSnapshots() {
  if (options_.snapshot_dir.empty()) {
    throw ServiceError(WireErrorCode::kBadRequest, "service has no snapshot_dir configured");
  }
  if (num_queries() != 0 || num_worlds() != 0) {
    throw ServiceError(WireErrorCode::kBadRequest, "LoadSnapshots requires an empty service");
  }
  size_t total = 0;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    total += Call(i, [this, i]() -> size_t {
      Shard* shard = shards_[i].get();
      std::unique_ptr<service::SnapshotReader> manifest;
      try {
        manifest = std::make_unique<service::SnapshotReader>(ManifestPath(options_.snapshot_dir, i));
      } catch (const SerializeError& e) {
        if (e.code == SerializeError::Code::kIo) return 0;  // empty shard
        throw;
      }
      size_t restored = 0;
      for (const auto& section : manifest->sections()) {
        if (section.type != kManifestWorldSection) {
          throw SerializeError(SerializeError::Code::kBadSection,
                               "unknown manifest section type " + std::to_string(section.type));
        }
        ByteReader r(section.payload);
        auto group = std::make_unique<Group>();
        group->world_key = r.GetU64();
        group->fingerprint = r.GetU64();
        group->scope_mask = r.GetU32();
        group->scenario.catalog = DecodeCatalogSpec(&r);
        group->scenario.query = DecodeQuerySpec(&r);
        if (WorldFingerprint(group->scenario.catalog, group->scenario.query) !=
            group->fingerprint) {
          throw SerializeError(SerializeError::Code::kMismatch,
                               "manifest world fingerprint disagrees with its specs");
        }
        const uint32_t nqueries = r.GetU32();
        group->world = testing::BuildScenarioWorld(group->scenario);
        ReoptSessionOptions so;
        so.per_query_work_budget = options_.per_query_work_budget;
        so.memo_byte_budget = options_.memo_byte_budget;
        if (options_.auto_flush_count > 0) {
          so.flush_policy = std::make_shared<CountPolicy>(options_.auto_flush_count);
        } else if (options_.flush_deadline.count() > 0) {
          so.flush_policy = std::make_shared<DeadlinePolicy>(options_.flush_deadline);
        }
        group->session = std::make_unique<ReoptSession>(&group->world->registry, so);
        std::vector<DeclarativeOptimizer*> optimizers;
        optimizers.reserve(nqueries);
        for (uint32_t qi = 0; qi < nqueries; ++qi) {
          auto q = std::make_unique<GroupQuery>();
          q->id = r.GetU64();
          const uint32_t name_len = r.GetU32();
          const unsigned char* name = r.GetBytes(name_len);
          q->options_name.assign(reinterpret_cast<const char*>(name), name_len);
          const OptimizerOptions* options = FindOptionSet(q->options_name);
          if (options == nullptr) {
            throw SerializeError(SerializeError::Code::kBadSection,
                                 "manifest names unknown option set " + q->options_name);
          }
          q->world_key = group->world_key;
          q->summaries = std::make_unique<SummaryCalculator>(&group->world->registry);
          q->cost_model = std::make_unique<CostModel>(q->summaries.get());
          q->optimizer = std::make_unique<DeclarativeOptimizer>(group->world->enumerator.get(),
                                                                q->cost_model.get(),
                                                                &group->world->registry, *options);
          optimizers.push_back(q->optimizer.get());
          group->queries.push_back(std::move(q));
        }
        if (!r.AtEnd()) {
          throw SerializeError(SerializeError::Code::kBadSection,
                               "trailing bytes in manifest world record");
        }
        std::vector<QueryHandle> handles = group->session->LoadSnapshot(
            SnapshotPath(options_.snapshot_dir, i, group->world_key), optimizers);
        for (size_t qi = 0; qi < group->queries.size(); ++qi) {
          group->queries[qi]->handle = std::move(handles[qi]);
          // LoadSnapshot attaches no subscribers; re-wire plan-change
          // delivery so kSubscribeQuery (SetSink) works after a warm
          // restart. The sink is still null until a client re-attaches.
          group->queries[qi]->handle.Subscribe(group->queries[qi].get());
        }
        {
          std::lock_guard<std::mutex> lk(index_mu_);
          worlds_[group->world_key] = WorldInfo{i, true, group->world->registry.num_relations(),
                                                group->world->registry.num_edges()};
          for (const auto& q : group->queries) {
            queries_[q->id] = QueryLoc{i, group->world_key};
            if (q->id >= next_query_id_) next_query_id_ = q->id + 1;
          }
        }
        restored += group->queries.size();
        shard->groups.emplace(group->world_key, std::move(group));
      }
      return restored;
    });
  }
  return total;
}

namespace {

void AddSessionMetrics(ReoptSessionMetrics* sum, const ReoptSessionMetrics& m) {
  sum->mutations_observed += m.mutations_observed;
  sum->flushes += m.flushes;
  sum->empty_flushes += m.empty_flushes;
  sum->changes_flushed += m.changes_flushed;
  sum->reopt_passes += m.reopt_passes;
  sum->queries_skipped += m.queries_skipped;
  sum->eps_seeded += m.eps_seeded;
  sum->plan_changes += m.plan_changes;
  sum->quarantines += m.quarantines;
  sum->rehabilitations += m.rehabilitations;
  sum->queries_parked += m.queries_parked;
  sum->watermark_flushes += m.watermark_flushes;
  sum->evictions += m.evictions;
  sum->rehydrations += m.rehydrations;
  sum->resident_memo_bytes += m.resident_memo_bytes;
}

}  // namespace

void ShardedService::SubmitMetrics(Completion done) {
  struct ShardMetrics {
    ReoptSessionMetrics sum;
    size_t worlds = 0;
    size_t queries = 0;
  };
  auto per_shard = std::make_shared<std::vector<ShardMetrics>>(shards_.size());
  PostToAll(
      [this, per_shard](uint32_t i) {
        ShardMetrics& slot = (*per_shard)[i];
        for (auto& [key, group] : shards_[i]->groups) {
          AddSessionMetrics(&slot.sum, group->session->metrics());
          slot.queries += group->queries.size();
          ++slot.worlds;
        }
      },
      [this, per_shard] {
        ReoptSessionMetrics sum;
        size_t worlds = 0;
        for (const ShardMetrics& slot : *per_shard) {
          AddSessionMetrics(&sum, slot.sum);
          worlds += slot.worlds;
        }
        Outcome out;
        out.text = PrometheusSessionText(sum, "");
        char buf[96];
        out.text += "# TYPE iqro_service_shards gauge\n";
        std::snprintf(buf, sizeof(buf), "iqro_service_shards %zu\n", per_shard->size());
        out.text += buf;
        out.text += "# TYPE iqro_service_worlds gauge\n";
        std::snprintf(buf, sizeof(buf), "iqro_service_worlds %zu\n", worlds);
        out.text += buf;
        out.text += "# TYPE iqro_service_queries gauge\n";
        std::snprintf(buf, sizeof(buf), "iqro_service_queries %zu\n", num_queries());
        out.text += buf;
        out.text += "# TYPE iqro_shard_queries gauge\n";
        for (size_t i = 0; i < per_shard->size(); ++i) {
          std::snprintf(buf, sizeof(buf), "iqro_shard_queries{shard=\"%zu\"} %zu\n", i,
                        (*per_shard)[i].queries);
          out.text += buf;
        }
        return out;
      },
      std::move(done));
}

std::string ShardedService::MetricsText() {
  Request req;
  req.type = MsgType::kGetMetrics;
  return Await(std::move(req), nullptr).text;
}

ShardedServiceStats ShardedService::Stats() {
  std::vector<ShardedServiceStats> per_shard(shards_.size());
  Wait([this, &per_shard](Completion done) {
    PostToAll(
        [this, &per_shard](uint32_t i) {
          ShardedServiceStats& slot = per_shard[i];
          for (auto& [key, group] : shards_[i]->groups) {
            const ReoptSessionMetrics& m = group->session->metrics();
            ++slot.worlds;
            slot.queries += static_cast<int64_t>(group->queries.size());
            slot.flushes += m.flushes;
            slot.changes_flushed += m.changes_flushed;
            slot.plan_changes += m.plan_changes;
            slot.mutations_observed += m.mutations_observed;
            slot.quarantines += m.quarantines;
          }
        },
        [] { return Outcome{}; }, std::move(done));
  });
  ShardedServiceStats stats;
  for (const ShardedServiceStats& slot : per_shard) {
    stats.worlds += slot.worlds;
    stats.queries += slot.queries;
    stats.flushes += slot.flushes;
    stats.changes_flushed += slot.changes_flushed;
    stats.plan_changes += slot.plan_changes;
    stats.mutations_observed += slot.mutations_observed;
    stats.quarantines += slot.quarantines;
  }
  std::lock_guard<std::mutex> lk(index_mu_);
  stats.mutations_rejected = mutations_rejected_;
  return stats;
}

size_t ShardedService::num_queries() const {
  std::lock_guard<std::mutex> lk(index_mu_);
  return queries_.size();
}

size_t ShardedService::num_worlds() const {
  std::lock_guard<std::mutex> lk(index_mu_);
  return static_cast<size_t>(
      std::count_if(worlds_.begin(), worlds_.end(), [](const auto& w) { return w.second.built; }));
}

}  // namespace iqro::server
