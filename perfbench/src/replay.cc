#include "replay.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "common/str_util.h"
#include "core/declarative_optimizer.h"
#include "cost/cost_model.h"
#include "server/sharded_service.h"
#include "service/plan_subscriber.h"
#include "service/reopt_session.h"
#include "service/shared_summary_cache.h"
#include "stats/summary.h"
#include "testing/differential.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
double Us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

/// A world built exactly as ShardedService builds one: the scenario owns
/// the specs the enumerator points into, so it lives on the heap with it.
struct Built {
  iqro::testing::Scenario scenario;
  std::unique_ptr<iqro::testing::ScenarioWorld> world;
};

std::unique_ptr<Built> Build(const World& w) {
  auto b = std::make_unique<Built>();
  b->scenario.catalog = w.catalog;
  b->scenario.query = w.query;
  b->world = iqro::testing::BuildScenarioWorld(b->scenario);
  return b;
}

const iqro::OptimizerOptions& OptionSet(const std::string& name) {
  for (const auto& [set_name, options] : iqro::testing::ScenarioOptionSets()) {
    if (set_name == name) return options;
  }
  throw std::runtime_error("unknown option set " + name);
}

/// One optimizer configuration with its own summaries and cost model, as
/// the shard layer registers it.
struct Query {
  std::unique_ptr<iqro::SummaryCalculator> summaries;
  std::unique_ptr<iqro::CostModel> cost_model;
  std::unique_ptr<iqro::DeclarativeOptimizer> optimizer;
};

Query MakeQuery(Built& b, const std::string& options_name) {
  Query q;
  q.summaries = std::make_unique<iqro::SummaryCalculator>(&b.world->registry);
  q.cost_model = std::make_unique<iqro::CostModel>(q.summaries.get());
  q.optimizer = std::make_unique<iqro::DeclarativeOptimizer>(
      b.world->enumerator.get(), q.cost_model.get(), &b.world->registry, OptionSet(options_name));
  return q;
}

/// Plan-change events fire when a query's canonical plan rendering
/// changes, and that rendering prints costs to six significant digits
/// (DeclarativeOptimizer::CanonicalDumpState). A cost that moved by less
/// than that raises no event, so the reported cost matches the fresh one
/// exactly in that rendering.
bool SameCost(double a, double b) { return iqro::DoubleToString(a) == iqro::DoubleToString(b); }

/// Runs fn(w) for every world, worlds partitioned across `threads`.
template <typename F>
void ForWorlds(int num_worlds, int threads, F&& fn) {
  threads = std::max(1, std::min(threads, num_worlds));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int w = t; w < num_worlds; w += threads) fn(w);
    });
  }
  for (std::thread& th : pool) th.join();
}

struct CountingSubscriber final : iqro::PlanSubscriber {
  int64_t events = 0;
  void OnPlanChange(const iqro::PlanChangeEvent&) override { ++events; }
};

}  // namespace

OracleResult CheckFinalCosts(const Workload& workload, const std::vector<const Update*>& order,
                             const std::vector<std::vector<double>>& last_cost, int threads) {
  const auto& worlds = workload.worlds();
  const int n = static_cast<int>(worlds.size());
  std::vector<OracleResult> per_world(worlds.size());
  std::vector<std::vector<const Update*>> mine(worlds.size());
  for (const Update* u : order) mine[static_cast<size_t>(u->world)].push_back(u);
  ForWorlds(n, threads, [&](int w) {
    const World& world = worlds[static_cast<size_t>(w)];
    OracleResult& out = per_world[static_cast<size_t>(w)];
    auto built = Build(world);
    for (const Update* u : mine[static_cast<size_t>(w)]) {
      for (const StatMutation& m : u->batch) iqro::testing::ApplyMutation(&built->world->registry, m);
    }
    std::map<std::string, std::pair<double, int64_t>> fresh;  // options -> (cost, memo EPs)
    for (size_t k = 0; k < world.options.size(); ++k) {
      auto it = fresh.find(world.options[k]);
      if (it == fresh.end()) {
        Query q = MakeQuery(*built, world.options[k]);
        q.optimizer->Optimize();
        it = fresh.emplace(world.options[k], std::make_pair(q.optimizer->BestCost(),
                                                             q.optimizer->metrics().eps_enumerated))
                 .first;
      }
      ++out.checked;
      out.memo_eps_per_query += static_cast<double>(it->second.second);
      const double reported = last_cost[static_cast<size_t>(w)][k];
      if (!SameCost(reported, it->second.first)) {
        ++out.mismatches;
        if (out.errors.size() < 3) {
          char buf[256];
          std::snprintf(buf, sizeof(buf), "world %d config %zu (%s): reported cost %.17g, fresh %.17g",
                        w, k, world.options[k].c_str(), reported, it->second.first);
          out.errors.push_back(buf);
        }
      }
    }
  });
  OracleResult total;
  for (const OracleResult& r : per_world) {
    total.checked += r.checked;
    total.mismatches += r.mismatches;
    total.memo_eps_per_query += r.memo_eps_per_query;
    for (const std::string& e : r.errors) {
      if (total.errors.size() < 5) total.errors.push_back(e);
    }
  }
  if (total.checked > 0) total.memo_eps_per_query /= static_cast<double>(total.checked);
  return total;
}

SessionReplay ReplaySessions(const Workload& workload, const std::vector<const Update*>& order,
                             int threads) {
  const auto& worlds = workload.worlds();
  SessionReplay out;
  out.event_count.resize(worlds.size());
  out.apply_us.assign(order.size(), 0);
  out.flush_us.assign(order.size(), 0);
  out.passes.assign(order.size(), 0);
  out.plan_changes.assign(order.size(), 0);
  std::vector<std::vector<size_t>> mine(worlds.size());
  for (size_t i = 0; i < order.size(); ++i) mine[static_cast<size_t>(order[i]->world)].push_back(i);

  // Worlds are independent, so each thread replays whole worlds; with one
  // thread the replay runs in global send order, as the daemon saw it.
  struct State {
    std::unique_ptr<Built> built;
    std::vector<Query> queries;
    std::vector<CountingSubscriber> subscribers;
    std::unique_ptr<iqro::ReoptSession> session;
    std::vector<iqro::QueryHandle> handles;
  };
  std::vector<State> states(worlds.size());
  auto setup = [&](int w) {
    const World& world = worlds[static_cast<size_t>(w)];
    State& s = states[static_cast<size_t>(w)];
    s.built = Build(world);
    s.subscribers.resize(world.options.size());
    s.session = std::make_unique<iqro::ReoptSession>(&s.built->world->registry);
    for (size_t k = 0; k < world.options.size(); ++k) {
      s.queries.push_back(MakeQuery(*s.built, world.options[k]));
      s.queries.back().optimizer->Optimize();
      s.handles.push_back(s.session->Register(*s.queries.back().optimizer, &s.subscribers[k]));
    }
  };
  auto step = [&](size_t i) {
    const Update* u = order[i];
    State& s = states[static_cast<size_t>(u->world)];
    const auto t0 = Clock::now();
    for (const StatMutation& m : u->batch) iqro::testing::ApplyMutation(&s.built->world->registry, m);
    const auto t1 = Clock::now();
    out.apply_us[i] = Us(t1 - t0);
    if (!u->flushed) return;
    const iqro::ReoptSessionMetrics before = s.session->metrics();
    s.session->Flush();
    out.flush_us[i] = Us(Clock::now() - t1);
    out.passes[i] = s.session->metrics().reopt_passes - before.reopt_passes;
    out.plan_changes[i] = s.session->metrics().plan_changes - before.plan_changes;
  };
  auto finish = [&](int w) {
    State& s = states[static_cast<size_t>(w)];
    s.session->Flush();
    for (const CountingSubscriber& c : s.subscribers) {
      out.event_count[static_cast<size_t>(w)].push_back(c.events);
    }
    s.handles.clear();
    s.session.reset();
    s.queries.clear();
    s.built.reset();
  };
  const int n = static_cast<int>(worlds.size());
  if (threads <= 1) {
    for (int w = 0; w < n; ++w) setup(w);
    for (size_t i = 0; i < order.size(); ++i) step(i);
    for (int w = 0; w < n; ++w) finish(w);
  } else {
    ForWorlds(n, threads, [&](int w) {
      setup(w);
      for (size_t i : mine[static_cast<size_t>(w)]) step(i);
      finish(w);
    });
  }
  return out;
}

ShardReplay ReplayShards(const Workload& workload, const std::vector<const Update*>& order,
                         int phase) {
  iqro::server::ShardedServiceOptions options;
  options.num_shards = workload.shape().shards;
  iqro::server::ShardedService service(options);
  for (const World& world : workload.worlds()) {
    for (const std::string& opt : world.options) {
      service.RegisterQuery(world.key, world.catalog, world.query, opt, nullptr);
    }
  }
  ShardReplay out;
  for (const Update* u : order) {
    if (u->phase != phase) continue;
    const uint64_t key = workload.worlds()[static_cast<size_t>(u->world)].key;
    const auto t0 = Clock::now();
    service.RecordStatBatch(key, u->batch);
    const auto t1 = Clock::now();
    if (u->flushed) service.Flush(key);
    const auto t2 = Clock::now();
    out.record_us.push_back(Us(t1 - t0));
    out.flush_us.push_back(Us(t2 - t1));
  }
  return out;
}

CoreReplay ReplayCore(const Workload& workload, const std::vector<const Update*>& order,
                      int phase) {
  const auto& worlds = workload.worlds();
  struct State {
    std::unique_ptr<Built> built;
    iqro::SharedSummaryCache cache;
    std::vector<Query> queries;
  };
  std::vector<std::unique_ptr<State>> states;
  CoreReplay out;
  for (const World& world : worlds) {
    auto s = std::make_unique<State>();
    s->built = Build(world);
    for (const std::string& opt : world.options) {
      s->queries.push_back(MakeQuery(*s->built, opt));
      const auto t0 = Clock::now();
      s->queries.back().optimizer->Optimize();
      out.optimize_us.push_back(Us(Clock::now() - t0));
    }
    // A ReoptSession shares one summary cache among two or more queries.
    if (s->queries.size() >= 2) {
      for (Query& q : s->queries) q.optimizer->AttachSharedSummaryCache(&s->cache);
    }
    states.push_back(std::move(s));
  }
  for (const Update* u : order) {
    if (u->phase != phase) continue;
    State& s = *states[static_cast<size_t>(u->world)];
    iqro::StatsRegistry& registry = s.built->world->registry;
    const auto t0 = Clock::now();
    for (const StatMutation& m : u->batch) iqro::testing::ApplyMutation(&registry, m);
    const auto t1 = Clock::now();
    out.record_us.push_back(Us(t1 - t0));
    out.mutations += static_cast<int64_t>(u->batch.size());
    double passes_us = 0;
    double digests_us = 0;
    double drain_us = 0;
    if (u->flushed) {
      const iqro::StatsRegistry::DrainedBatch batch = registry.TakePendingBatch();
      const auto t2 = Clock::now();
      drain_us = Us(t2 - t1);
      out.changes += static_cast<int64_t>(batch.changes.size());
      if (!batch.changes.empty()) {
        for (Query& q : s.queries) {
          const auto p0 = Clock::now();
          const int64_t seeded = q.optimizer->ReoptimizeBatch(batch.changes, batch.epoch);
          const auto p1 = Clock::now();
          q.optimizer->ComputePlanDigest();
          const auto p2 = Clock::now();
          const iqro::OptMetrics& m = q.optimizer->metrics();
          out.pass_us.push_back(Us(p1 - p0));
          passes_us += Us(p1 - p0);
          digests_us += Us(p2 - p1);
          ++out.passes;
          out.steps += m.round_steps;
          out.eps_seeded += seeded;
          if (m.eps_enumerated > 0) {
            out.touched_fraction_sum +=
                static_cast<double>(m.round_touched_eps) / static_cast<double>(m.eps_enumerated);
          }
        }
      }
    }
    out.drain_us.push_back(drain_us);
    out.passes_us.push_back(passes_us);
    out.digests_us.push_back(digests_us);
  }
  return out;
}

WireReplay ReplayWire(const Workload& workload, const std::vector<const Update*>& order,
                      int phase) {
  namespace srv = iqro::server;
  WireReplay out;
  srv::FrameDecoder server_side;
  srv::FrameDecoder client_side;
  std::string payload;
  uint64_t request_id = 1;
  for (const Update* u : order) {
    if (u->phase != phase) continue;
    const uint64_t key = workload.worlds()[static_cast<size_t>(u->world)].key;
    std::vector<std::string> requests;
    std::vector<std::string> replies;
    const auto e0 = Clock::now();
    requests.push_back(srv::EncodeRecordStatBatch(request_id, srv::RecordStatBatchReq{key, u->batch}));
    replies.push_back(srv::EncodeOk(request_id++, u->record_ack));
    if (u->flushed) {
      for (const srv::PlanChangeEventMsg& ev : u->events) {
        replies.push_back(srv::EncodePlanChangeEvent(ev));
      }
      requests.push_back(srv::EncodeFlush(request_id, srv::FlushReq{false, key}));
      replies.push_back(srv::EncodeOk(request_id++, u->flush_ack));
    }
    const auto e1 = Clock::now();
    double bytes = 0;
    for (const std::string& f : requests) {
      server_side.Feed(f.data(), f.size());
      while (server_side.Next(&payload)) srv::DecodeRequest(payload);
      bytes += static_cast<double>(f.size());
    }
    for (const std::string& f : replies) {
      client_side.Feed(f.data(), f.size());
      while (client_side.Next(&payload)) srv::DecodeServerMessage(payload);
      bytes += static_cast<double>(f.size());
    }
    const auto e2 = Clock::now();
    out.encode_us.push_back(Us(e1 - e0));
    out.decode_us.push_back(Us(e2 - e1));
    out.bytes.push_back(bytes);
  }
  // The no-op probe's frames: an empty stat batch and its ack.
  constexpr int kNoopReps = 1000;
  const uint64_t key = workload.worlds()[0].key;
  const auto n0 = Clock::now();
  for (int i = 0; i < kNoopReps; ++i) {
    const std::string req = srv::EncodeRecordStatBatch(request_id, srv::RecordStatBatchReq{key, {}});
    const std::string ack = srv::EncodeOk(request_id++, 0);
    server_side.Feed(req.data(), req.size());
    while (server_side.Next(&payload)) srv::DecodeRequest(payload);
    client_side.Feed(ack.data(), ack.size());
    while (client_side.Next(&payload)) srv::DecodeServerMessage(payload);
  }
  out.noop_codec_us = Us(Clock::now() - n0) / kNoopReps;
  return out;
}

}  // namespace perfbench
