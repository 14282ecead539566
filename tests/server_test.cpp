// Server-layer tests: wire codec round-trips and the corrupt-frame corpus
// (tools/make_wire_corpus.py), shard-routing determinism — the same stream
// through a 1-shard service, a 4-shard service, and a single in-process
// ReoptSession oracle must land every query in byte-identical
// CanonicalDumpState — snapshot fan-out across a service restart, and the
// daemon end-to-end over a Unix socket (register, churn, events, metrics
// scrape, snapshot, warm-restart, malformed-frame isolation).
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/declarative_optimizer.h"
#include "cost/cost_model.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/sharded_service.h"
#include "server/wire.h"
#include "service/metrics_exporter.h"
#include "service/reopt_session.h"
#include "stats/summary.h"
#include "testing/differential.h"
#include "testing/scenario.h"

namespace iqro {
namespace {

using server::Client;
using server::ClientError;
using server::Daemon;
using server::DaemonOptions;
using server::EventSink;
using server::MsgType;
using server::ServerEvent;
using server::ServiceError;
using server::ShardedService;
using server::ShardedServiceOptions;
using server::WireErrorCode;

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path << " (regenerate: tools/make_wire_corpus.py)";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Thread-safe test sink recording per-query event counts (shard-thread
/// delivery contract).
class CountingSink final : public EventSink {
 public:
  void OnServerEvent(const ServerEvent& event) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (event.kind == ServerEvent::Kind::kPlanChange) {
      ++plan_changes_[event.query_id];
    } else {
      ++quarantines_;
    }
  }
  int plan_changes(uint64_t query_id) {
    std::lock_guard<std::mutex> lk(mu_);
    return plan_changes_[query_id];
  }
  int total_plan_changes() {
    std::lock_guard<std::mutex> lk(mu_);
    int total = 0;
    for (const auto& [id, n] : plan_changes_) total += n;
    return total;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, int> plan_changes_;
  int quarantines_ = 0;
};

/// Oracle-side plan-change counter.
class CountingSubscriber final : public PlanSubscriber {
 public:
  void OnPlanChange(const PlanChangeEvent&) override { ++plan_changes; }
  int plan_changes = 0;
};

const OptimizerOptions& NamedOptions(const std::string& name) {
  for (const auto& [set_name, options] : testing::ScenarioOptionSets()) {
    if (set_name == name) return options;
  }
  ADD_FAILURE() << "unknown option set " << name;
  static OptimizerOptions fallback;
  return fallback;
}

/// A small synthetic 3-relation chain world whose plan flips when base
/// rows move by orders of magnitude — the hand-built daemon test spec.
testing::CatalogSpec SmallCatalog() {
  testing::CatalogSpec catalog;
  for (int i = 0; i < 3; ++i) {
    testing::SyntheticTableSpec t;
    t.name = "t" + std::to_string(i);
    t.rows = 1000.0 * (i + 1);
    t.width = 8;
    t.cols.push_back({0, 999, 500});
    t.hist_seed = 7 + static_cast<uint64_t>(i);
    catalog.tables.push_back(std::move(t));
  }
  return catalog;
}

QuerySpec SmallChainQuery() {
  QuerySpec q;
  q.name = "chain3";
  for (int i = 0; i < 3; ++i) {
    QueryRelation rel;
    rel.table = i;
    rel.alias = "r" + std::to_string(i);
    q.relations.push_back(std::move(rel));
  }
  JoinPredicate j01;
  j01.left_rel = 0;
  j01.right_rel = 1;
  q.joins.push_back(j01);
  JoinPredicate j12;
  j12.left_rel = 1;
  j12.right_rel = 2;
  q.joins.push_back(j12);
  return q;
}

/// A batch that flips the chain's join order when applied to a fresh world
/// (even rounds) and flips it back (odd rounds).
std::vector<testing::StatMutation> FlipBatch(int round) {
  std::vector<testing::StatMutation> batch;
  batch.push_back({testing::StatMutation::Kind::kBaseRows, 0, 0, round % 2 == 0 ? 5e6 : 20.0});
  batch.push_back({testing::StatMutation::Kind::kJoinSelectivity, 0, 0,
                   round % 2 == 0 ? 1e-4 : 0.5});
  return batch;
}

/// The first world key at or after `from` that a `num_shards` service
/// routes to `shard` for a query over `mask`.
uint64_t KeyOnShard(uint32_t shard, int num_shards, RelSet mask, uint64_t from) {
  uint64_t key = from;
  while (ShardedService::ShardOfWorld(key, mask, num_shards) != shard) ++key;
  return key;
}

constexpr std::chrono::seconds kBoundedWait{10};

/// Holds the shard thread that delivers its first event until Release():
/// the in-process way to keep one shard busy for as long as a test needs.
/// Later events pass through.
class LatchSink final : public EventSink {
 public:
  ~LatchSink() override { Release(); }
  void OnServerEvent(const ServerEvent&) override {
    std::unique_lock<std::mutex> lk(mu_);
    if (released_) return;
    held_ = true;
    cv_.notify_all();
    cv_.wait(lk, [this] { return released_; });
  }
  /// False when no shard thread arrived within the bounded wait.
  bool WaitHeld() {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, kBoundedWait, [this] { return held_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool released_ = false;
};

// ---- wire codec ------------------------------------------------------------

TEST(WireTest, RegisterQueryRoundTrips) {
  server::RegisterQueryReq req;
  req.world_key = 0xFEEDFACE12345678ull;
  req.want_events = true;
  req.catalog = SmallCatalog();
  req.query = SmallChainQuery();
  req.query.locals.push_back({0, 0, PredOp::kLt, 500, 0});
  req.query.projections.push_back({1, 0});
  req.query.group_by.push_back({2, 0});
  req.query.aggregates.push_back({AggFn::kSum, {0, 0}});
  req.query.relations[1].window.kind = WindowSpec::Kind::kTuples;
  req.query.relations[1].window.size = 64;
  req.options_name = "aggsel";

  const std::string image = EncodeRegisterQuery(41, req);
  const std::vector<std::string> payloads = server::DecodeFrames(image);
  ASSERT_EQ(payloads.size(), 1u);
  const server::Request out = server::DecodeRequest(payloads[0]);
  EXPECT_EQ(out.type, MsgType::kRegisterQuery);
  EXPECT_EQ(out.request_id, 41u);
  EXPECT_EQ(out.register_query.world_key, req.world_key);
  EXPECT_TRUE(out.register_query.want_events);
  EXPECT_EQ(out.register_query.options_name, "aggsel");
  EXPECT_EQ(out.register_query.catalog.tables.size(), 3u);
  EXPECT_EQ(out.register_query.catalog.tables[2].name, "t2");
  EXPECT_DOUBLE_EQ(out.register_query.catalog.tables[1].rows, 2000.0);
  EXPECT_EQ(out.register_query.query.relations.size(), 3u);
  EXPECT_EQ(out.register_query.query.relations[1].window.kind, WindowSpec::Kind::kTuples);
  EXPECT_EQ(out.register_query.query.joins.size(), 2u);
  EXPECT_EQ(out.register_query.query.locals.size(), 1u);
  EXPECT_EQ(out.register_query.query.aggregates.size(), 1u);
  // The fingerprint is a pure function of the specs: identical through the
  // codec, different once the query changes.
  EXPECT_EQ(server::WorldFingerprint(req.catalog, req.query),
            server::WorldFingerprint(out.register_query.catalog, out.register_query.query));
  QuerySpec changed = req.query;
  changed.joins[0].op = PredOp::kLt;
  EXPECT_NE(server::WorldFingerprint(req.catalog, changed),
            server::WorldFingerprint(req.catalog, req.query));
}

TEST(WireTest, MutationBatchAndControlRequestsRoundTrip) {
  server::RecordStatBatchReq batch;
  batch.world_key = 99;
  batch.mutations.push_back({testing::StatMutation::Kind::kBaseRows, 2, 0, 5e6});
  batch.mutations.push_back({testing::StatMutation::Kind::kJoinSelectivity, 1, 0, 0.25});
  batch.mutations.push_back({testing::StatMutation::Kind::kCardMultiplier, 0, 0x5, 3.5});

  std::string image = server::EncodeRecordStatBatch(1, batch);
  image += server::EncodeFlush(2, {true, 0});
  image += server::EncodeFlush(3, {false, 99});
  image += server::EncodeReleaseQuery(4, 12);
  image += server::EncodeSubscribeQuery(5, 12);
  image += server::EncodeSimpleRequest(MsgType::kSnapshot, 6);
  image += server::EncodeSimpleRequest(MsgType::kGetMetrics, 7);
  image += server::EncodeSimpleRequest(MsgType::kShutdown, 8);

  const std::vector<std::string> payloads = server::DecodeFrames(image);
  ASSERT_EQ(payloads.size(), 8u);
  const server::Request b = server::DecodeRequest(payloads[0]);
  ASSERT_EQ(b.type, MsgType::kRecordStatBatch);
  ASSERT_EQ(b.record_stat_batch.mutations.size(), 3u);
  EXPECT_EQ(b.record_stat_batch.mutations[0].kind, testing::StatMutation::Kind::kBaseRows);
  EXPECT_DOUBLE_EQ(b.record_stat_batch.mutations[0].value, 5e6);
  EXPECT_EQ(b.record_stat_batch.mutations[2].scope, 0x5u);
  EXPECT_TRUE(server::DecodeRequest(payloads[1]).flush.all);
  const server::Request f = server::DecodeRequest(payloads[2]);
  EXPECT_FALSE(f.flush.all);
  EXPECT_EQ(f.flush.world_key, 99u);
  EXPECT_EQ(server::DecodeRequest(payloads[3]).release_query.query_id, 12u);
  EXPECT_EQ(server::DecodeRequest(payloads[4]).subscribe_query.query_id, 12u);
  EXPECT_EQ(server::DecodeRequest(payloads[5]).type, MsgType::kSnapshot);
  EXPECT_EQ(server::DecodeRequest(payloads[6]).type, MsgType::kGetMetrics);
  EXPECT_EQ(server::DecodeRequest(payloads[7]).type, MsgType::kShutdown);
}

TEST(WireTest, ServerMessagesRoundTrip) {
  std::string image = server::EncodeRegistered(11, {42, 3, 123.5});
  image += server::EncodeOk(12, 77);
  image += server::EncodeError(13, WireErrorCode::kSpecMismatch, "specs differ");
  image += server::EncodeMetricsText(14, "# TYPE x counter\nx 1\n");
  server::PlanChangeEventMsg pc;
  pc.query_id = 42;
  pc.world_key = 9;
  pc.flush_epoch = 5;
  pc.old_cost = 10.0;
  pc.new_cost = 4.0;
  pc.changed_operators = 2;
  pc.total_operators = 5;
  pc.join_order_prefix = 1;
  pc.join_order_len = 3;
  image += server::EncodePlanChangeEvent(pc);
  server::QuarantineEventMsg qe;
  qe.query_id = 42;
  qe.world_key = 9;
  qe.reason = 1;
  qe.strikes = 2;
  qe.parked = true;
  qe.message = "work budget exceeded";
  image += server::EncodeQuarantineEvent(qe);

  const std::vector<std::string> payloads = server::DecodeFrames(image);
  ASSERT_EQ(payloads.size(), 6u);
  const server::ServerMessage reg = server::DecodeServerMessage(payloads[0]);
  EXPECT_EQ(reg.type, MsgType::kRegistered);
  EXPECT_EQ(reg.request_id, 11u);
  EXPECT_EQ(reg.registered.query_id, 42u);
  EXPECT_EQ(reg.registered.shard, 3u);
  EXPECT_DOUBLE_EQ(reg.registered.best_cost, 123.5);
  EXPECT_EQ(server::DecodeServerMessage(payloads[1]).ok.value, 77u);
  const server::ServerMessage err = server::DecodeServerMessage(payloads[2]);
  EXPECT_EQ(err.error.code, WireErrorCode::kSpecMismatch);
  EXPECT_EQ(err.error.message, "specs differ");
  EXPECT_EQ(server::DecodeServerMessage(payloads[3]).metrics.text, "# TYPE x counter\nx 1\n");
  const server::ServerMessage ev = server::DecodeServerMessage(payloads[4]);
  EXPECT_EQ(ev.type, MsgType::kPlanChange);
  EXPECT_EQ(ev.request_id, 0u) << "events carry request id 0";
  EXPECT_EQ(ev.plan_change.query_id, 42u);
  EXPECT_DOUBLE_EQ(ev.plan_change.new_cost, 4.0);
  EXPECT_EQ(ev.plan_change.join_order_len, 3);
  const server::ServerMessage qv = server::DecodeServerMessage(payloads[5]);
  EXPECT_EQ(qv.type, MsgType::kQuarantine);
  EXPECT_TRUE(qv.quarantine.parked);
  EXPECT_EQ(qv.quarantine.message, "work budget exceeded");
}

// Every error code survives the round trip; the first value past the last
// code is a malformed frame.
TEST(WireTest, ErrorCodesRoundTrip) {
  const auto last = static_cast<uint8_t>(WireErrorCode::kInternal);
  for (uint8_t code = 1; code <= last; ++code) {
    const std::vector<std::string> payloads = server::DecodeFrames(
        server::EncodeError(5, static_cast<WireErrorCode>(code), "why"));
    ASSERT_EQ(payloads.size(), 1u);
    const server::ServerMessage err = server::DecodeServerMessage(payloads[0]);
    EXPECT_EQ(static_cast<uint8_t>(err.error.code), code);
    EXPECT_STRNE(server::WireErrorCodeName(err.error.code), "unknown");
  }
  const std::vector<std::string> past = server::DecodeFrames(
      server::EncodeError(5, static_cast<WireErrorCode>(last + 1), "why"));
  ASSERT_EQ(past.size(), 1u);
  EXPECT_THROW(server::DecodeServerMessage(past[0]), SerializeError);
}

TEST(WireTest, FrameDecoderReassemblesSplitFeeds) {
  std::string image = server::EncodeFlush(1, {false, 5});
  image += server::EncodeFlush(2, {true, 0});
  image += server::EncodeReleaseQuery(3, 9);

  server::FrameDecoder dec;
  std::vector<std::string> payloads;
  std::string payload;
  // One byte at a time: reassembly must be position-independent.
  for (const char c : image) {
    dec.Feed(&c, 1);
    while (dec.Next(&payload)) payloads.push_back(payload);
  }
  dec.Finish();
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(server::DecodeRequest(payloads[0]).flush.world_key, 5u);
  EXPECT_TRUE(server::DecodeRequest(payloads[1]).flush.all);
  EXPECT_EQ(server::DecodeRequest(payloads[2]).release_query.query_id, 9u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireTest, CorruptCorpusIsRejectedWithTypedErrors) {
  enum class Stage { kFrame, kRequest };
  const struct {
    const char* file;
    Stage stage;
    SerializeError::Code code;
  } corpus[] = {
      {"short_magic.bin", Stage::kFrame, SerializeError::Code::kTruncated},
      {"bad_magic.bin", Stage::kFrame, SerializeError::Code::kBadMagic},
      {"bad_version.bin", Stage::kFrame, SerializeError::Code::kBadVersion},
      {"oversize_len.bin", Stage::kFrame, SerializeError::Code::kBadSection},
      {"truncated_payload.bin", Stage::kFrame, SerializeError::Code::kTruncated},
      {"bad_checksum.bin", Stage::kFrame, SerializeError::Code::kChecksum},
      {"trailing_junk.bin", Stage::kFrame, SerializeError::Code::kBadMagic},
      {"unknown_type.bin", Stage::kRequest, SerializeError::Code::kBadSection},
      {"truncated_body.bin", Stage::kRequest, SerializeError::Code::kTruncated},
      {"trailing_body.bin", Stage::kRequest, SerializeError::Code::kBadSection},
      {"bad_flag.bin", Stage::kRequest, SerializeError::Code::kBadSection},
      {"relations_overflow.bin", Stage::kRequest, SerializeError::Code::kBadSection},
      {"bad_mutation_kind.bin", Stage::kRequest, SerializeError::Code::kBadSection},
  };
  for (const auto& entry : corpus) {
    const std::string image =
        ReadFileOrDie(std::string(IQRO_TEST_DATA_DIR) + "/wire/" + entry.file);
    try {
      const std::vector<std::string> payloads = server::DecodeFrames(image);
      if (entry.stage == Stage::kFrame) {
        FAIL() << entry.file << " framed cleanly; expected " << SerializeErrorCodeName(entry.code);
      }
      ASSERT_EQ(payloads.size(), 1u) << entry.file;
      server::DecodeRequest(payloads[0]);
      FAIL() << entry.file << " decoded cleanly; expected " << SerializeErrorCodeName(entry.code);
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code, entry.code)
          << entry.file << ": rejected as " << SerializeErrorCodeName(e.code) << ", expected "
          << SerializeErrorCodeName(entry.code);
    }
  }
}

// ---- shard routing ---------------------------------------------------------

TEST(ShardRoutingTest, ShardOfWorldIsPinned) {
  // Pinned values: the routing hash is part of the persistence/restart
  // contract (snapshot manifests name shards), so an accidental change to
  // the hash input layout must fail loudly.
  EXPECT_EQ(ShardedService::ShardOfWorld(1, 0xF, 4), 3u);
  EXPECT_EQ(ShardedService::ShardOfWorld(2, 0xF, 4), 0u);
  EXPECT_EQ(ShardedService::ShardOfWorld(0xDEADBEEF, 0x7, 4), 0u);
  EXPECT_EQ(ShardedService::ShardOfWorld(42, 0x3FF, 4), 1u);
  // Everything maps to shard 0 of a 1-shard service.
  for (uint64_t key = 0; key < 32; ++key) {
    EXPECT_EQ(ShardedService::ShardOfWorld(key, 0xF, 1), 0u);
  }
  // The key salts the hash: worlds sharing one scope-mask alphabet still
  // spread across shards.
  bool hit[4] = {false, false, false, false};
  for (uint64_t key = 0; key < 64; ++key) hit[ShardedService::ShardOfWorld(key, 0xF, 4)] = true;
  EXPECT_TRUE(hit[0] && hit[1] && hit[2] && hit[3]);
}

// The tentpole differential: the same (register, mutate, flush) stream
// through a 1-shard service, a 4-shard service, and a per-world in-process
// ReoptSession oracle must produce byte-identical per-query
// CanonicalDumpState after every flush, and the same plan-change counts.
TEST(ShardedServiceTest, RoutingDifferentialMatchesSingleSessionOracle) {
  const char* env = std::getenv("IQRO_SERVER_DIFF_ITERS");
  const int iters = env != nullptr ? std::atoi(env) : 200;

  struct Oracle {
    testing::Scenario scenario;
    std::unique_ptr<testing::ScenarioWorld> world;
    std::unique_ptr<DeclarativeOptimizer> opt;
    std::unique_ptr<DeclarativeOptimizer> opt_all;  // even seeds: 2nd config
    std::unique_ptr<ReoptSession> session;
    CountingSubscriber sub;
    CountingSubscriber sub_all;
    QueryHandle handle;
    QueryHandle handle_all;
  };

  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = 0x5EED0000u + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Oracle oracle;
    oracle.scenario = testing::GenerateScenario(seed);
    const bool two_configs = i % 2 == 0 && oracle.scenario.options_name != "all";
    oracle.world = testing::BuildScenarioWorld(oracle.scenario);
    oracle.session = std::make_unique<ReoptSession>(&oracle.world->registry);
    oracle.opt = std::make_unique<DeclarativeOptimizer>(
        oracle.world->enumerator.get(), oracle.world->cost_model.get(), &oracle.world->registry,
        oracle.scenario.options);
    oracle.opt->Optimize();
    oracle.handle = oracle.session->Register(*oracle.opt, &oracle.sub);
    if (two_configs) {
      oracle.opt_all = std::make_unique<DeclarativeOptimizer>(
          oracle.world->enumerator.get(), oracle.world->cost_model.get(), &oracle.world->registry,
          NamedOptions("all"));
      oracle.opt_all->Optimize();
      oracle.handle_all = oracle.session->Register(*oracle.opt_all, &oracle.sub_all);
    }

    ShardedService svc1(ShardedServiceOptions{});
    ShardedServiceOptions opts4;
    opts4.num_shards = 4;
    ShardedService svc4(opts4);
    CountingSink sink1;
    CountingSink sink4;
    const uint64_t world_key = seed;

    const auto r1 = svc1.RegisterQuery(world_key, oracle.scenario.catalog, oracle.scenario.query,
                                       oracle.scenario.options_name, &sink1);
    const auto r4 = svc4.RegisterQuery(world_key, oracle.scenario.catalog, oracle.scenario.query,
                                       oracle.scenario.options_name, &sink4);
    EXPECT_DOUBLE_EQ(r1.best_cost, oracle.opt->BestCost());
    EXPECT_DOUBLE_EQ(r4.best_cost, oracle.opt->BestCost());
    EXPECT_EQ(r4.shard,
              ShardedService::ShardOfWorld(world_key, oracle.scenario.query.AllRelations(), 4));
    uint64_t q1_all = 0;
    uint64_t q4_all = 0;
    if (two_configs) {
      q1_all = svc1.RegisterQuery(world_key, oracle.scenario.catalog, oracle.scenario.query,
                                  "all", &sink1)
                   .query_id;
      q4_all = svc4.RegisterQuery(world_key, oracle.scenario.catalog, oracle.scenario.query,
                                  "all", &sink4)
                   .query_id;
    }

    for (size_t step = 0; step < oracle.scenario.churn.size(); ++step) {
      const auto& mutations = oracle.scenario.churn[step].mutations;
      for (const testing::StatMutation& m : mutations) {
        testing::ApplyMutation(&oracle.world->registry, m);
      }
      oracle.session->Flush();
      ASSERT_EQ(svc1.RecordStatBatch(world_key, mutations), mutations.size());
      ASSERT_EQ(svc4.RecordStatBatch(world_key, mutations), mutations.size());
      svc1.Flush(world_key);
      svc4.Flush(world_key);

      const std::string want = oracle.opt->CanonicalDumpState();
      ASSERT_EQ(svc1.QueryCanonicalDump(r1.query_id), want)
          << "1-shard diverged from oracle at churn step " << step;
      ASSERT_EQ(svc4.QueryCanonicalDump(r4.query_id), want)
          << "4-shard diverged from oracle at churn step " << step;
      if (two_configs) {
        const std::string want_all = oracle.opt_all->CanonicalDumpState();
        ASSERT_EQ(svc1.QueryCanonicalDump(q1_all), want_all) << "churn step " << step;
        ASSERT_EQ(svc4.QueryCanonicalDump(q4_all), want_all) << "churn step " << step;
      }
    }

    // Notification parity: the sharded services must deliver exactly the
    // oracle's plan-change stream, query by query.
    svc1.Drain();
    svc4.Drain();
    EXPECT_EQ(sink1.plan_changes(r1.query_id), oracle.sub.plan_changes);
    EXPECT_EQ(sink4.plan_changes(r4.query_id), oracle.sub.plan_changes);
    if (two_configs) {
      EXPECT_EQ(sink1.plan_changes(q1_all), oracle.sub_all.plan_changes);
      EXPECT_EQ(sink4.plan_changes(q4_all), oracle.sub_all.plan_changes);
    }
  }
}

TEST(ShardedServiceTest, RejectsBadRegistrationsAndMutations) {
  ShardedService svc(ShardedServiceOptions{});
  const testing::CatalogSpec catalog = SmallCatalog();
  const QuerySpec query = SmallChainQuery();

  // Unknown option set / structurally bad specs.
  EXPECT_THROW(svc.RegisterQuery(1, catalog, query, "no-such-set", nullptr), ServiceError);
  QuerySpec bad = query;
  bad.joins[0].right_rel = 7;  // out of range
  try {
    svc.RegisterQuery(1, catalog, bad, "all", nullptr);
    FAIL() << "out-of-range join relation accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code, WireErrorCode::kBadRequest);
  }

  const auto reg = svc.RegisterQuery(1, catalog, query, "all", nullptr);
  EXPECT_EQ(svc.num_worlds(), 1u);
  // Same key, different specs: fingerprint mismatch.
  QuerySpec other = query;
  LocalPredicate extra;
  extra.rel = 0;
  extra.op = PredOp::kLt;
  extra.value = 500;
  other.locals.push_back(extra);
  try {
    svc.RegisterQuery(1, catalog, other, "all", nullptr);
    FAIL() << "world key reuse with different specs accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code, WireErrorCode::kSpecMismatch);
  }

  // Mutations against an unknown world throw; invalid mutations against a
  // known world are dropped and counted, valid ones accepted.
  EXPECT_THROW(svc.RecordStatBatch(99, {}), ServiceError);
  std::vector<testing::StatMutation> batch;
  batch.push_back({testing::StatMutation::Kind::kBaseRows, 0, 0, 5e5});     // valid
  batch.push_back({testing::StatMutation::Kind::kBaseRows, 9, 0, 1e3});    // bad slot
  batch.push_back({testing::StatMutation::Kind::kBaseRows, 1, 0, -4.0});   // bad value
  batch.push_back({testing::StatMutation::Kind::kCardMultiplier, 0, 0, 2.0});  // empty scope
  EXPECT_EQ(svc.RecordStatBatch(1, batch), 1u);
  EXPECT_GT(svc.Flush(1), 0u);
  EXPECT_EQ(svc.Stats().mutations_rejected, 3);

  EXPECT_TRUE(svc.ReleaseQuery(reg.query_id));
  EXPECT_FALSE(svc.ReleaseQuery(reg.query_id));
  EXPECT_THROW(svc.QueryCanonicalDump(reg.query_id), ServiceError);
  // The world survives its last query; new registrations join it.
  EXPECT_EQ(svc.num_worlds(), 1u);
  EXPECT_EQ(svc.RegisterQuery(1, catalog, query, "all", nullptr).shard, reg.shard);
}

// Hostile registrations that passed the slot checks but crashed the shard
// while the world was built: a negative local or join column indexed before
// the column-stats array, a full-int64 column range overflowed the
// histogram sampler's span, and a clustering column or TPC-H table id out
// of range, a self-join edge or a disconnected join graph failed a CHECK.
// Each is a kBadRequest, and the service keeps serving a valid world
// afterwards.
TEST(ShardedServiceTest, RejectsHostileColumnSpecs) {
  ShardedService svc(ShardedServiceOptions{});
  const testing::CatalogSpec catalog = SmallCatalog();
  const QuerySpec query = SmallChainQuery();
  auto expect_bad_request = [&](const testing::CatalogSpec& c, const QuerySpec& q,
                                const char* what) {
    try {
      svc.RegisterQuery(1, c, q, "all", nullptr);
      ADD_FAILURE() << what << " accepted";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code, WireErrorCode::kBadRequest) << what;
    }
  };

  QuerySpec negative_local = query;
  LocalPredicate local;
  local.rel = 0;
  local.col = -1;
  local.op = PredOp::kLt;
  local.value = 100;
  negative_local.locals.push_back(local);
  expect_bad_request(catalog, negative_local, "negative local-predicate column");

  QuerySpec negative_join = query;
  negative_join.joins[0].left_col = -100000;
  expect_bad_request(catalog, negative_join, "negative join column");

  testing::CatalogSpec full_range = catalog;
  full_range.tables[1].cols[0] = {std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(), 500};
  expect_bad_request(full_range, query, "full-int64 column range");

  testing::CatalogSpec inverted = catalog;
  inverted.tables[2].cols[0] = {10, 9, 1};
  expect_bad_request(inverted, query, "inverted column range");

  testing::CatalogSpec clustered_past_width = catalog;
  clustered_past_width.tables[0].clustered_on = 1;
  expect_bad_request(clustered_past_width, query, "clustered on a missing column");

  QuerySpec self_edge = query;
  self_edge.joins[0].right_rel = 0;
  expect_bad_request(catalog, self_edge, "join of a relation to itself");

  QuerySpec disconnected = query;
  disconnected.joins.pop_back();
  expect_bad_request(catalog, disconnected, "disconnected join graph");

  testing::CatalogSpec tpch;
  tpch.use_tpch = true;
  QuerySpec tpch_query = query;
  tpch_query.relations[2].table = 99;
  expect_bad_request(tpch, tpch_query, "TPC-H table id out of range");

  EXPECT_EQ(svc.num_worlds(), 0u);
  const auto reg = svc.RegisterQuery(1, catalog, query, "all", nullptr);
  std::vector<testing::StatMutation> batch;
  batch.push_back({testing::StatMutation::Kind::kBaseRows, 0, 0, 5e5});
  EXPECT_EQ(svc.RecordStatBatch(1, batch), 1u);
  EXPECT_GT(svc.Flush(1), 0u);
  EXPECT_FALSE(svc.QueryCanonicalDump(reg.query_id).empty());
}

// Two first registrations of one world key with different relation
// masks hash to different shards. The first to route must reserve its
// shard, so both meet there: one builds the world and the other gets
// kSpecMismatch. Without the reservation each built its own world, the
// index kept only the later one, and mutations never reached the other.
TEST(ShardedServiceTest, ConcurrentFirstRegistrationsOfOneKeyBuildOneWorld) {
  // 8 shards: routing mod 2^k sees only the low k bits of each hashed
  // byte, and the masks 0b11 and 0b111 differ only above bit 1.
  constexpr int kShards = 8;
  ShardedServiceOptions opts;
  opts.num_shards = kShards;
  ShardedService svc(opts);
  const testing::CatalogSpec catalog = SmallCatalog();
  const QuerySpec chain3 = SmallChainQuery();
  QuerySpec chain2 = chain3;
  chain2.relations.pop_back();
  chain2.joins.pop_back();
  uint64_t key = 100;
  while (ShardedService::ShardOfWorld(key, chain3.AllRelations(), kShards) ==
         ShardedService::ShardOfWorld(key, chain2.AllRelations(), kShards)) {
    ASSERT_LT(++key, 1100u);
  }
  const uint32_t routes[2] = {ShardedService::ShardOfWorld(key, chain3.AllRelations(), kShards),
                              ShardedService::ShardOfWorld(key, chain2.AllRelations(), kShards)};

  // Hold both routes' shards, so both registrations route before either
  // runs.
  LatchSink latches[2];
  std::vector<std::thread> holders;
  for (int i = 0; i < 2; ++i) {
    const uint64_t holder = KeyOnShard(routes[i], kShards, chain3.AllRelations(), key + 1);
    svc.RegisterQuery(holder, catalog, chain3, "all", &latches[i]);
    ASSERT_EQ(svc.RecordStatBatch(holder, FlipBatch(0)), 2u);
    holders.emplace_back([&svc, holder] { svc.Flush(holder); });
    ASSERT_TRUE(latches[i].WaitHeld()) << "the flip batch raised no event";
  }
  auto register_as = [&](const QuerySpec& query) {
    return std::async(std::launch::async, [&svc, &catalog, &query, key]() -> WireErrorCode {
      try {
        svc.RegisterQuery(key, catalog, query, "all", nullptr);
        return WireErrorCode{};
      } catch (const ServiceError& e) {
        return e.code;
      }
    });
  };
  auto first = register_as(chain3);
  auto second = register_as(chain2);
  // Give both registering threads time to route and post; the outcome
  // below does not depend on how they interleave.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // A world whose first registration is still in flight takes no mutations.
  try {
    svc.RecordStatBatch(key, FlipBatch(0));
    ADD_FAILURE() << "mutations accepted before the world was built";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code, WireErrorCode::kUnknownWorld);
  }
  for (LatchSink& latch : latches) latch.Release();
  for (std::thread& t : holders) t.join();

  const WireErrorCode a = first.get();
  const WireErrorCode b = second.get();
  EXPECT_EQ((a == WireErrorCode{}) + (b == WireErrorCode{}), 1)
      << "exactly one must build the world";
  EXPECT_EQ((a == WireErrorCode::kSpecMismatch) + (b == WireErrorCode::kSpecMismatch), 1);
  EXPECT_EQ(svc.num_worlds(), 3u);
  EXPECT_EQ(svc.num_queries(), 3u);
}

TEST(ShardedServiceTest, SnapshotFanOutSurvivesRestart) {
  char dir_template[] = "/tmp/iqro_server_snap_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  ShardedServiceOptions opts;
  opts.num_shards = 3;
  opts.snapshot_dir = dir;

  std::vector<uint64_t> query_ids;
  std::vector<std::string> dumps;
  std::vector<uint64_t> world_keys;
  {
    ShardedService svc(opts);
    for (int i = 0; i < 4; ++i) {
      const uint64_t seed = 0xABC00 + static_cast<uint64_t>(i);
      testing::Scenario scenario = testing::GenerateScenario(seed);
      const auto reg = svc.RegisterQuery(seed, scenario.catalog, scenario.query,
                                         scenario.options_name, nullptr);
      world_keys.push_back(seed);
      query_ids.push_back(reg.query_id);
      if (!scenario.churn.empty()) {
        svc.RecordStatBatch(seed, scenario.churn[0].mutations);
        svc.Flush(seed);
      }
    }
    for (const uint64_t id : query_ids) dumps.push_back(svc.QueryCanonicalDump(id));
    EXPECT_EQ(svc.SaveSnapshots(), 4u);
  }

  ShardedService restored(opts);
  ASSERT_EQ(restored.LoadSnapshots(), 4u);
  EXPECT_EQ(restored.num_worlds(), 4u);
  EXPECT_EQ(restored.num_queries(), 4u);
  for (size_t i = 0; i < query_ids.size(); ++i) {
    // Ids are preserved and every restored memo is byte-identical.
    EXPECT_EQ(restored.QueryCanonicalDump(query_ids[i]), dumps[i]) << "query " << query_ids[i];
  }
  // The restored service keeps working: post-restore churn flushes, and a
  // re-attached sink observes events again (the kSubscribeQuery path).
  CountingSink sink;
  EXPECT_TRUE(restored.SetSink(query_ids[0], &sink));
  std::vector<testing::StatMutation> batch;
  batch.push_back({testing::StatMutation::Kind::kBaseRows, 0, 0, 7e6});
  EXPECT_EQ(restored.RecordStatBatch(world_keys[0], batch), 1u);
  restored.Flush(world_keys[0]);

  // LoadSnapshots only warm-starts an empty service.
  EXPECT_THROW(restored.LoadSnapshots(), ServiceError);
}

// ---- daemon end-to-end -----------------------------------------------------

std::string TestSocketPath(const char* tag) {
  return "/tmp/iqro_srvtest_" + std::string(tag) + "_" + std::to_string(getpid()) + ".sock";
}

TEST(DaemonTest, EndToEndRegisterChurnEventsMetrics) {
  const std::string sock = TestSocketPath("e2e");
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 2;
  Daemon daemon(options);
  daemon.Start();

  // In-process mirror of the exact same stream: socket-delivered events
  // must match in-process delivery count for count.
  ShardedServiceOptions mirror_opts;
  mirror_opts.num_shards = 2;
  ShardedService mirror(mirror_opts);
  CountingSink mirror_sink;

  Client client;
  client.ConnectUnix(sock);
  const testing::CatalogSpec catalog = SmallCatalog();
  const QuerySpec query = SmallChainQuery();
  const server::RegisteredResp reg = client.RegisterQuery(7, catalog, query, "all");
  const auto mirror_reg = mirror.RegisterQuery(7, catalog, query, "all", &mirror_sink);
  EXPECT_DOUBLE_EQ(reg.best_cost, mirror_reg.best_cost);
  EXPECT_EQ(reg.shard, mirror_reg.shard);

  // Application-level rejection leaves the connection usable.
  EXPECT_THROW(client.RegisterQuery(7, catalog, query, "bogus-options"), ClientError);

  int socket_plan_changes = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<testing::StatMutation> batch;
    // Swing base rows by orders of magnitude so join orders actually flip.
    const double rows = round % 2 == 0 ? 5e6 : 20.0;
    batch.push_back({testing::StatMutation::Kind::kBaseRows, 0, 0, rows});
    batch.push_back({testing::StatMutation::Kind::kJoinSelectivity, 0, 0,
                     round % 2 == 0 ? 1e-4 : 0.5});
    ASSERT_EQ(client.RecordStatBatch(7, batch), batch.size());
    mirror.RecordStatBatch(7, batch);
    const uint64_t changes = client.Flush(7);
    EXPECT_EQ(changes, mirror.Flush(7));
    // Events of this flush were queued into the outbox before the flush
    // response, so they are already here — no extra wait needed.
    for (const auto& ev : client.TakeEvents()) {
      EXPECT_EQ(ev.msg.type, MsgType::kPlanChange);
      EXPECT_EQ(ev.msg.plan_change.query_id, reg.query_id);
      EXPECT_EQ(ev.msg.plan_change.world_key, 7u);
      ++socket_plan_changes;
    }
  }
  mirror.Drain();
  EXPECT_GT(socket_plan_changes, 0) << "mutation swings never flipped a plan";
  EXPECT_EQ(socket_plan_changes, mirror_sink.plan_changes(mirror_reg.query_id));

  // Metrics over the binary protocol and sanity of the text exposition.
  const std::string metrics = client.Metrics();
  EXPECT_NE(metrics.find("iqro_session_flushes_total"), std::string::npos);
  EXPECT_NE(metrics.find("iqro_service_queries 1"), std::string::npos);
  EXPECT_NE(metrics.find("iqro_shard_queries{shard=\"0\"}"), std::string::npos);

  client.ReleaseQuery(reg.query_id);
  EXPECT_THROW(client.Flush(99), ClientError);  // unknown world -> kError, conn lives
  EXPECT_NE(client.Metrics().find("iqro_service_queries 0"), std::string::npos);
  daemon.Stop();
  EXPECT_FALSE(access(sock.c_str(), F_OK) == 0) << "socket not unlinked on shutdown";
}

TEST(DaemonTest, MalformedFrameClosesOnlyThatConnection) {
  const std::string sock = TestSocketPath("mal");
  DaemonOptions options;
  options.unix_path = sock;
  Daemon daemon(options);
  daemon.Start();

  Client good;
  good.ConnectUnix(sock);
  const server::RegisteredResp reg =
      good.RegisterQuery(1, SmallCatalog(), SmallChainQuery(), "all");

  // A raw connection spewing garbage gets closed by the daemon...
  int bad_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(bad_fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(connect(bad_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[] = "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX";
  ASSERT_GT(write(bad_fd, garbage, sizeof(garbage)), 0);
  char buf[16];
  EXPECT_EQ(read(bad_fd, buf, sizeof(buf)), 0) << "daemon should close on bad magic";
  close(bad_fd);

  // ...while the well-behaved peer and its registered query are untouched.
  std::vector<testing::StatMutation> batch;
  batch.push_back({testing::StatMutation::Kind::kBaseRows, 0, 0, 9e6});
  EXPECT_EQ(good.RecordStatBatch(1, batch), 1u);
  EXPECT_GT(good.Flush(1), 0u);
  EXPECT_EQ(daemon.service().num_queries(), 1u);
  EXPECT_GT(daemon.service().QueryBestCost(reg.query_id), 0.0);
  daemon.Stop();
}

TEST(DaemonTest, SnapshotShutdownWarmRestartResubscribe) {
  const std::string sock = TestSocketPath("warm");
  char dir_template[] = "/tmp/iqro_daemon_snap_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 2;
  options.service.snapshot_dir = dir;

  uint64_t query_id = 0;
  std::string dump_before;
  {
    Daemon daemon(options);
    daemon.Start();
    Client client;
    client.ConnectUnix(sock);
    query_id = client.RegisterQuery(5, SmallCatalog(), SmallChainQuery(), "all").query_id;
    std::vector<testing::StatMutation> batch;
    batch.push_back({testing::StatMutation::Kind::kBaseRows, 1, 0, 3e6});
    client.RecordStatBatch(5, batch);
    client.Flush(5);
    EXPECT_EQ(client.Snapshot(), 1u);  // explicit kSnapshot
    dump_before = daemon.service().QueryCanonicalDump(query_id);
    // kShutdown over the wire answers, then drains + re-snapshots.
    client.Shutdown();
    daemon.Wait();
  }

  DaemonOptions warm = options;
  warm.load_snapshots = true;
  Daemon daemon2(warm);
  daemon2.Start();
  EXPECT_EQ(daemon2.restored_queries(), 1u);
  EXPECT_EQ(daemon2.service().QueryCanonicalDump(query_id), dump_before)
      << "warm restart must restore the exact memo state";

  // Reconnect and re-attach event delivery to the NEW connection.
  Client client2;
  client2.ConnectUnix(sock);
  client2.SubscribeQuery(query_id);
  EXPECT_THROW(client2.SubscribeQuery(query_id + 999), ClientError);
  int plan_changes = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<testing::StatMutation> batch;
    batch.push_back(
        {testing::StatMutation::Kind::kBaseRows, 0, 0, round % 2 == 0 ? 8e6 : 12.0});
    batch.push_back({testing::StatMutation::Kind::kJoinSelectivity, 0, 0,
                     round % 2 == 0 ? 1e-4 : 0.5});
    client2.RecordStatBatch(5, batch);
    client2.Flush(5);
    plan_changes += static_cast<int>(client2.TakeEvents().size());
  }
  EXPECT_GT(plan_changes, 0) << "re-subscribed connection received no events";
  daemon2.Stop();
}

/// A bare protocol connection: sends frames as given, and reads frames in
/// the order their bytes arrive.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConn() { Close(); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void Send(const std::string& frame) {
    ASSERT_EQ(write(fd_, frame.data(), frame.size()), static_cast<ssize_t>(frame.size()));
  }
  /// Every frame up to and including the next response (events carry
  /// request id 0); empty when none arrives within the bounded wait.
  std::vector<server::ServerMessage> ReadThroughResponse() {
    std::vector<server::ServerMessage> out;
    const auto deadline = std::chrono::steady_clock::now() + kBoundedWait;
    std::string payload;
    for (;;) {
      while (decoder_.Next(&payload)) {
        out.push_back(server::DecodeServerMessage(payload));
        if (out.back().request_id != 0) return out;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd p{fd_, POLLIN, 0};
      if (left.count() <= 0 || poll(&p, 1, static_cast<int>(left.count())) <= 0) return {};
      char buf[4096];
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) return {};
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }
  /// The next response's type; MsgType{} when none arrives.
  MsgType ResponseType() {
    const std::vector<server::ServerMessage> frames = ReadThroughResponse();
    return frames.empty() ? MsgType{} : frames.back().type;
  }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  server::FrameDecoder decoder_;
};

server::RegisterQueryReq SmallRegistration(uint64_t world_key) {
  server::RegisterQueryReq req;
  req.world_key = world_key;
  req.catalog = SmallCatalog();
  req.query = SmallChainQuery();
  req.options_name = "all";
  return req;
}

/// Waits (bounded) until exactly `n` queries' events are routed to an open
/// connection: the loop has handled every close and completion before.
bool WaitRouted(const Daemon& daemon, size_t n) {
  const auto deadline = std::chrono::steady_clock::now() + kBoundedWait;
  while (daemon.routed_queries() != n) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

int CountPlanChanges(const std::vector<server::ServerMessage>& frames) {
  int n = 0;
  for (const auto& f : frames) n += f.type == MsgType::kPlanChange;
  return n;
}

// A flush held on one shard must not delay a connection whose worlds live
// on another: the poll loop hands the held flush to its shard and serves
// the second connection's register, mutations and flush meanwhile.
TEST(DaemonTest, HeldShardDoesNotDelayAnotherShardsConnection) {
  const std::string sock = TestSocketPath("iso");
  LatchSink latch;  // outlives the daemon, whose query points at it
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 2;
  Daemon daemon(options);
  daemon.Start();
  const RelSet mask = SmallChainQuery().AllRelations();
  const uint64_t held_key = KeyOnShard(0, 2, mask, 1);
  const uint64_t free_key = KeyOnShard(1, 2, mask, 1);
  daemon.service().RegisterQuery(held_key, SmallCatalog(), SmallChainQuery(), "all", &latch);

  auto held = std::async(std::launch::async, [&] {
    Client a;
    a.ConnectUnix(sock);
    a.RecordStatBatch(held_key, FlipBatch(0));
    return a.Flush(held_key);
  });
  ASSERT_TRUE(latch.WaitHeld()) << "the held world's flush raised no event";

  auto other = std::async(std::launch::async, [&] {
    Client b;
    b.ConnectUnix(sock);
    b.RegisterQuery(free_key, SmallCatalog(), SmallChainQuery(), "all");
    b.RecordStatBatch(free_key, FlipBatch(0));
    const uint64_t changes = b.Flush(free_key);
    EXPECT_FALSE(b.TakeEvents().empty());
    return changes;
  });
  const bool served_while_held = other.wait_for(kBoundedWait) == std::future_status::ready;
  latch.Release();
  EXPECT_TRUE(served_while_held) << "a flush held on shard 0 blocked a connection on shard 1";
  EXPECT_GT(other.get(), 0u);
  EXPECT_GT(held.get(), 0u);
  daemon.Stop();
}

// A connection that closes while its flush is in flight: the close
// unroutes its query at once, the flush still runs and answers into the
// closed connection, the query's later events go nowhere, and a peer is
// unaffected. Under ASan an event reaching the freed connection shows as a
// use-after-free on the next flush.
TEST(DaemonTest, CloseWithFlushInFlightUnroutesItsQueries) {
  const std::string sock = TestSocketPath("teardown");
  LatchSink latch;
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 2;
  Daemon daemon(options);
  daemon.Start();
  const RelSet mask = SmallChainQuery().AllRelations();
  const uint64_t key = KeyOnShard(0, 2, mask, 1);
  const uint64_t peer_key = KeyOnShard(1, 2, mask, 1);
  daemon.service().RegisterQuery(key, SmallCatalog(), SmallChainQuery(), "all", &latch);

  Client peer;
  peer.ConnectUnix(sock);
  peer.RegisterQuery(peer_key, SmallCatalog(), SmallChainQuery(), "all");

  RawConn doomed(sock);
  doomed.Send(server::EncodeRegisterQuery(1, SmallRegistration(key)));
  ASSERT_EQ(doomed.ResponseType(), MsgType::kRegistered);
  EXPECT_EQ(daemon.routed_queries(), 2u);
  doomed.Send(server::EncodeRecordStatBatch(2, {key, FlipBatch(0)}));
  ASSERT_EQ(doomed.ResponseType(), MsgType::kOk);
  doomed.Send(server::EncodeFlush(3, {false, key}));
  ASSERT_TRUE(latch.WaitHeld()) << "the flush raised no event";
  doomed.Close();
  // The loop handles the hang-up while the flush is still held.
  EXPECT_TRUE(WaitRouted(daemon, 1)) << "the closed connection's route stayed";
  latch.Release();
  daemon.service().Drain();
  EXPECT_EQ(daemon.routed_queries(), 1u) << "the answered flush routed to a closed connection";
  // The closed connection's query keeps re-optimizing with nowhere to send.
  daemon.service().RecordStatBatch(key, FlipBatch(1));
  EXPECT_GT(daemon.service().Flush(key), 0u);

  peer.RecordStatBatch(peer_key, FlipBatch(0));
  EXPECT_GT(peer.Flush(peer_key), 0u);
  EXPECT_FALSE(peer.TakeEvents().empty());
  EXPECT_EQ(daemon.service().num_queries(), 3u);
  daemon.Stop();
}

// A query re-subscribed by a second connection now sends its events
// there, so the first connection's teardown must leave it attached.
TEST(DaemonTest, TeardownLeavesQueriesSubscribedElsewhere) {
  const std::string sock = TestSocketPath("handoff");
  DaemonOptions options;
  options.unix_path = sock;
  Daemon daemon(options);
  daemon.Start();
  Client first;
  first.ConnectUnix(sock);
  const uint64_t query_id =
      first.RegisterQuery(3, SmallCatalog(), SmallChainQuery(), "all").query_id;
  Client second;
  second.ConnectUnix(sock);
  second.SubscribeQuery(query_id);
  first.Close();
  // The hang-up is visible to the poll that reads the next request, so
  // the teardown is handled before the flush below reaches the shard.
  for (int round = 0; round < 2; ++round) {
    second.RecordStatBatch(3, FlipBatch(round));
    EXPECT_GT(second.Flush(3), 0u);
    EXPECT_EQ(second.TakeEvents().size(), 1u) << "round " << round;
  }
  EXPECT_EQ(daemon.routed_queries(), 1u);
  daemon.Stop();
}

// A subscribe queued behind a held flush, and the query's first owner
// closing before the subscribe runs: the flush's remaining event for the
// query reaches neither connection, and after the subscribe the events go
// to the new owner. Under ASan a sink that died with the first connection
// shows as a use-after-free when the flush resumes.
TEST(DaemonTest, CloseBeforeQueuedSubscribeRuns) {
  const std::string sock = TestSocketPath("queued_sub");
  LatchSink latch;
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 1;
  Daemon daemon(options);
  daemon.Start();
  constexpr uint64_t kKey = 5;
  // Registered first, so the flush raises the latch query's event first.
  daemon.service().RegisterQuery(kKey, SmallCatalog(), SmallChainQuery(), "all", &latch);
  Client first;
  first.ConnectUnix(sock);
  const uint64_t query_id =
      first.RegisterQuery(kKey, SmallCatalog(), SmallChainQuery(), "all").query_id;

  daemon.service().RecordStatBatch(kKey, FlipBatch(0));
  std::thread flush([&] { daemon.service().Flush(kKey); });
  ASSERT_TRUE(latch.WaitHeld()) << "the flush raised no event";
  RawConn second(sock);
  second.Send(server::EncodeSubscribeQuery(1, query_id));
  // Let the loop queue the subscribe behind the held flush; the outcome
  // below is the same when the close is handled first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  first.Close();
  EXPECT_TRUE(WaitRouted(daemon, 0)) << "the closed connection's route stayed";
  latch.Release();
  flush.join();

  const std::vector<server::ServerMessage> subscribed = second.ReadThroughResponse();
  ASSERT_EQ(subscribed.size(), 1u) << "an event raised before the subscribe ran reached it";
  EXPECT_EQ(subscribed.back().type, MsgType::kOk);
  second.Send(server::EncodeRecordStatBatch(2, {kKey, FlipBatch(1)}));
  ASSERT_EQ(second.ResponseType(), MsgType::kOk);
  second.Send(server::EncodeFlush(3, {false, kKey}));
  const std::vector<server::ServerMessage> flushed = second.ReadThroughResponse();
  ASSERT_FALSE(flushed.empty());
  EXPECT_EQ(flushed.back().type, MsgType::kOk);
  EXPECT_EQ(CountPlanChanges(flushed), 1);
  EXPECT_EQ(daemon.routed_queries(), 1u);
  daemon.Stop();
}

// The byte order on the socket: a flush's plan-change frames arrive before
// its kOk, and none after it.
TEST(DaemonTest, FlushEventsPrecedeItsOkOnTheWire) {
  const std::string sock = TestSocketPath("order");
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 2;
  Daemon daemon(options);
  daemon.Start();

  RawConn conn(sock);
  conn.Send(server::EncodeRegisterQuery(1, SmallRegistration(7)));
  ASSERT_EQ(conn.ResponseType(), MsgType::kRegistered);
  for (int round = 0; round < 4; ++round) {
    const uint64_t id = 10 + 3 * static_cast<uint64_t>(round);
    conn.Send(server::EncodeRecordStatBatch(id, {7, FlipBatch(round)}));
    const std::vector<server::ServerMessage> record = conn.ReadThroughResponse();
    ASSERT_EQ(record.size(), 1u);
    conn.Send(server::EncodeFlush(id + 1, {false, 7}));
    const std::vector<server::ServerMessage> flush = conn.ReadThroughResponse();
    ASSERT_FALSE(flush.empty());
    EXPECT_EQ(flush.back().type, MsgType::kOk);
    EXPECT_EQ(flush.back().request_id, id + 1);
    EXPECT_EQ(CountPlanChanges(flush), 1) << "round " << round;
    conn.Send(server::EncodeSimpleRequest(MsgType::kGetMetrics, id + 2));
    const std::vector<server::ServerMessage> after = conn.ReadThroughResponse();
    ASSERT_EQ(after.size(), 1u) << "a frame arrived after the flush's kOk";
    EXPECT_EQ(after.back().type, MsgType::kMetricsText);
  }
  daemon.Stop();
}

// Shutdown (kShutdown, or the SIGTERM path) while two connections'
// flushes are held on their shards: both flushes are answered, the loop
// exits, the socket is unlinked, and no connection keeps a route.
TEST(DaemonTest, ShutdownWithFlushesInFlightIsClean) {
  for (const bool by_signal : {false, true}) {
    SCOPED_TRACE(by_signal ? "RequestShutdown" : "kShutdown");
    const std::string sock = TestSocketPath("drain");
    LatchSink latches[2];
    DaemonOptions options;
    options.unix_path = sock;
    options.service.num_shards = 2;
    Daemon daemon(options);
    daemon.Start();
    const RelSet mask = SmallChainQuery().AllRelations();
    std::vector<std::unique_ptr<RawConn>> conns;
    for (uint32_t shard = 0; shard < 2; ++shard) {
      const uint64_t key = KeyOnShard(shard, 2, mask, 1);
      daemon.service().RegisterQuery(key, SmallCatalog(), SmallChainQuery(), "all",
                                     &latches[shard]);
      conns.push_back(std::make_unique<RawConn>(sock));
      conns.back()->Send(server::EncodeRegisterQuery(1, SmallRegistration(key)));
      ASSERT_EQ(conns.back()->ResponseType(), MsgType::kRegistered);
      conns.back()->Send(server::EncodeRecordStatBatch(2, {key, FlipBatch(0)}));
      ASSERT_EQ(conns.back()->ResponseType(), MsgType::kOk);
      conns.back()->Send(server::EncodeFlush(3, {false, key}));
      ASSERT_TRUE(latches[shard].WaitHeld()) << "the flush raised no event";
    }
    RawConn control(sock);
    if (by_signal) {
      daemon.RequestShutdown();
    } else {
      control.Send(server::EncodeSimpleRequest(MsgType::kShutdown, 1));
      ASSERT_EQ(control.ResponseType(), MsgType::kOk);
    }
    for (LatchSink& latch : latches) latch.Release();

    for (auto& conn : conns) {
      const std::vector<server::ServerMessage> flush = conn->ReadThroughResponse();
      ASSERT_FALSE(flush.empty()) << "the in-flight flush was never answered";
      EXPECT_EQ(flush.back().type, MsgType::kOk);
      EXPECT_EQ(flush.back().request_id, 3u);
      EXPECT_EQ(CountPlanChanges(flush), 1);
    }
    auto exited = std::async(std::launch::async, [&] { daemon.Wait(); });
    ASSERT_EQ(exited.wait_for(kBoundedWait), std::future_status::ready) << "the loop did not exit";
    EXPECT_FALSE(access(sock.c_str(), F_OK) == 0) << "socket not unlinked on shutdown";
    EXPECT_EQ(daemon.routed_queries(), 0u) << "a route outlived its connection";
  }
}

// ---- Prometheus text rendering --------------------------------------------

TEST(PrometheusTest, SessionTextRendersAllCounters) {
  ReoptSessionMetrics m;
  m.mutations_observed = 10;
  m.flushes = 3;
  m.changes_flushed = 7;
  m.plan_changes = 2;
  m.resident_memo_bytes = 4096;
  const std::string text = PrometheusSessionText(m, "shard=\"1\"");
  EXPECT_NE(text.find("# TYPE iqro_session_mutations_observed_total counter"), std::string::npos);
  EXPECT_NE(text.find("iqro_session_mutations_observed_total{shard=\"1\"} 10"), std::string::npos);
  EXPECT_NE(text.find("iqro_session_flushes_total{shard=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("iqro_session_resident_memo_bytes{shard=\"1\"} 4096"), std::string::npos);
  // Unlabeled rendering drops the braces entirely.
  const std::string bare = PrometheusSessionText(m, "");
  EXPECT_NE(bare.find("iqro_session_flushes_total 3"), std::string::npos);
  EXPECT_EQ(bare.find("{"), std::string::npos);
}

TEST(PrometheusTest, ExporterTextModeReportsLastFlush) {
  JsonMetricsExporter exporter;
  EXPECT_NE(exporter.ToPrometheusText().find("# no flushes reported"), std::string::npos);
}

}  // namespace
}  // namespace iqro
