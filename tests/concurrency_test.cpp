// Concurrency contracts of a ReoptSession, which starts no threads of its
// own: every flush runs its per-query fixpoints serially on the flushing
// thread. What other threads may do is mutate statistics — and, through
// the flush policy, flush on their own thread. These tests pin:
//
//   * a multi-query flush drives every registered query to its
//     from-scratch oracle state;
//   * Record() racing Flush() from a second thread lands in the next
//     epoch's batch — no mutation is lost, none is applied twice;
//   * auto-flush firing on a mutator thread dispatches correctly;
//   * events fire exactly once per changed query, in registration order,
//     on the flushing thread.
//
// Cross-shard parallelism (one session per shard thread) is covered by
// server_test. The whole file is a primary target of the ThreadSanitizer
// CI job: its value is as much "TSan sees these interleavings race-free"
// as the assertions themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/declarative_optimizer.h"
#include "service/reopt_session.h"
#include "test_util.h"

namespace iqro::testing {
namespace {

// ---------------------------------------------------------------------------
// Session flush with concurrent mutators
// ---------------------------------------------------------------------------

std::unique_ptr<TestWorld> ChainWorld(int relations = 6, uint64_t seed = 17) {
  WorldOptions wo;
  wo.num_relations = relations;
  wo.shape = GraphShape::kChain;
  wo.seed = seed;
  return MakeWorld(wo);
}

std::string ScratchDump(TestWorld& world, OptimizerOptions options) {
  DeclarativeOptimizer scratch(world.enumerator.get(), world.cost_model.get(),
                               &world.registry, options);
  scratch.Optimize();
  return scratch.CanonicalDumpState();
}

const std::vector<OptimizerOptions>& QueryConfigs() {
  static const auto* configs = new std::vector<OptimizerOptions>{
      OptimizerOptions::Default(),        OptimizerOptions::UseAggSel(),
      OptimizerOptions::UseAggSelRefCount(), OptimizerOptions::UseAggSelBounding(),
      OptimizerOptions::UseNoPruning(),
  };
  return *configs;
}

/// Scripted churn round r: a mix of swings, an oscillation that nets to
/// zero, and a scan-cost change — deterministic, so every run sees the
/// identical stream.
void ApplyChurnRound(StatsRegistry& reg, int r) {
  const double rows1 = reg.base_rows(1);
  reg.SetBaseRows(1, std::max(1.0, rows1 * ((r % 2) != 0 ? 2.5 : 0.4)));
  reg.SetScanCostMultiplier(2, (r % 3) + 1.0);
  reg.SetScanCostMultiplier(2, 1.0);  // oscillates back
  reg.SetLocalSelectivity(3, (r % 2) != 0 ? 0.35 : 0.9);
  reg.SetJoinSelectivity(0, ((r % 4) + 1) * 0.125);
  if (r % 2 != 0) reg.SetCardMultiplier(0b11, 1.0 + 0.5 * (r % 3));
}

// An N-query session lands every registered query in its from-scratch
// oracle state after every flush.
TEST(SessionConcurrencyTest, MultiQueryFlushMatchesFreshOracles) {
  auto world = ChainWorld();
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  for (const OptimizerOptions& o : QueryConfigs()) {
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry, o));
    opts.back()->Optimize();
  }
  ReoptSession session(&world->registry);
  std::vector<QueryHandle> handles;
  for (auto& o : opts) handles.push_back(session.Register(*o));

  for (int r = 0; r < 6; ++r) {
    ApplyChurnRound(world->registry, r);
    session.Flush();
    for (auto& o : opts) {
      o->ValidateInvariants();
      EXPECT_EQ(o->CanonicalDumpState(), ScratchDump(*world, o->options()))
          << "config diverged from its from-scratch oracle at round " << r;
    }
  }
  EXPECT_GT(session.metrics().reopt_passes, 0);
  EXPECT_GT(session.last_flush().fixpoint_steps, 0);
}

// Record() racing Flush() from a second thread: every mutation either
// makes the batch a flush drains or stays pending for the next one —
// nothing is lost, nothing applies twice. After the mutator joins, one
// final flush must land every optimizer exactly in its oracle state.
TEST(SessionConcurrencyTest, RecordRacingFlushLandsInNextEpoch) {
  auto world = ChainWorld();
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  for (const OptimizerOptions& o : QueryConfigs()) {
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry, o));
    opts.back()->Optimize();
  }
  ReoptSessionOptions so;
  // Exporter attached: the flush epilogue's metrics snapshot must be
  // race-free against the concurrent mutator (TSan checks it here).
  JsonMetricsExporter exporter;
  so.metrics_exporter = &exporter;
  ReoptSession session(&world->registry, so);
  std::vector<QueryHandle> handles;
  for (auto& o : opts) handles.push_back(session.Register(*o));

  constexpr int kMutations = 200;
  const double rows0 = world->registry.base_rows(0);
  std::thread mutator([&world, rows0] {
    for (int i = 1; i <= kMutations; ++i) {
      // Strictly changing values: every call records (and bumps the epoch).
      world->registry.SetBaseRows(0, rows0 + i);
      if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  // Flush continuously while the mutator runs: each flush drains whatever
  // epoch-consistent batch exists at that instant.
  int flushed_batches = 0;
  for (int i = 0; i < 50; ++i) {
    if (session.Flush() > 0) ++flushed_batches;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  mutator.join();
  session.Flush();  // whatever raced past the last mid-stream flush
  EXPECT_FALSE(world->registry.HasPending());

  // No lost update: the registry's value is the mutator's last write, and
  // every optimizer is at the fixpoint of exactly that value.
  EXPECT_EQ(world->registry.base_rows(0), rows0 + kMutations);
  // No double-apply/over-count: every one of the 200 distinct writes was
  // observed exactly once.
  EXPECT_EQ(session.metrics().mutations_observed, kMutations);
  for (auto& o : opts) {
    o->ValidateInvariants();
    EXPECT_EQ(o->CanonicalDumpState(), ScratchDump(*world, o->options()));
  }
  // Sanity: the race was real — some batches were drained mid-stream.
  EXPECT_GE(flushed_batches, 1);
}

// Auto-flush: the threshold callback fires Flush() on the *mutator's*
// thread, which runs every pass of that flush there.
TEST(SessionConcurrencyTest, AutoFlushDispatchesFromMutatorThread) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSessionOptions so;
  so.flush_policy = std::make_shared<CountPolicy>(4);
  ReoptSession session(&world->registry, so);
  QueryHandle handle = session.Register(opt);

  std::thread mutator([&world] {
    for (int i = 1; i <= 40; ++i) {
      world->registry.SetBaseRows(1, 100.0 + i);
    }
  });
  mutator.join();
  session.Flush();  // tail below the last threshold
  EXPECT_GE(session.metrics().flushes, 1);
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// Notification semantics: per flush, every subscribed query fires at most
// once, events arrive on the flushing thread in registration order, and an
// event fires exactly when the query's canonical plan changed.
TEST(SessionConcurrencyTest, SubscriberEventsExactlyOnceInRegistrationOrder) {
  struct Recorded {
    int query_id;
    int64_t flush_index;
  };
  class Recorder final : public PlanSubscriber {
   public:
    Recorder(std::vector<Recorded>* out, std::thread::id home) : out_(out), home_(home) {}
    void OnPlanChange(const PlanChangeEvent& e) override {
      EXPECT_EQ(std::this_thread::get_id(), home_);  // delivered on the flushing thread
      out_->push_back({e.query_id, e.flush_index});
    }

   private:
    std::vector<Recorded>* out_;
    std::thread::id home_;
  };

  auto world = ChainWorld();
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  for (const OptimizerOptions& o : QueryConfigs()) {
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry, o));
    opts.back()->Optimize();
  }
  ReoptSession session(&world->registry);

  std::vector<Recorded> events;
  const std::thread::id home = std::this_thread::get_id();
  std::vector<std::unique_ptr<Recorder>> recorders;
  std::vector<QueryHandle> handles;
  for (auto& o : opts) {
    recorders.push_back(std::make_unique<Recorder>(&events, home));
    handles.push_back(session.Register(*o, recorders.back().get()));
  }

  int64_t total_events = 0;
  for (int r = 0; r < 6; ++r) {
    std::vector<std::string> before;
    for (auto& o : opts) before.push_back(o->CanonicalDumpState());
    events.clear();
    ApplyChurnRound(world->registry, r);
    session.Flush();

    // Exactly-once: no query id repeats within one flush; registration
    // order: ids are strictly increasing in the delivered sequence.
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_GT(events[i].query_id, events[i - 1].query_id)
          << "round " << r << ": duplicate or out-of-order event";
    }
    // An event fired iff that query's canonical plan changed.
    for (size_t q = 0; q < opts.size(); ++q) {
      const bool changed = opts[q]->CanonicalDumpState() != before[q];
      const bool fired =
          std::any_of(events.begin(), events.end(), [&](const Recorded& e) {
            return e.query_id == handles[q].id();
          });
      EXPECT_EQ(fired, changed) << "round " << r << " query " << q;
    }
    for (const Recorded& e : events) EXPECT_EQ(e.flush_index, session.metrics().flushes);
    total_events += static_cast<int64_t>(events.size());
  }
  EXPECT_GT(total_events, 0);  // the churn actually moved plans
  EXPECT_EQ(session.metrics().plan_changes, total_events);
}

// The session owns no threads: constructing one, registering queries and
// running policy flushes and polls leaves the process's thread count where
// it was.
TEST(SessionConcurrencyTest, SessionStartsNoThreads) {
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "no /proc/self/task";
  auto count_threads = [&tasks] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto threads_before = count_threads();
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSessionOptions so;
  so.flush_policy = std::make_shared<DeadlinePolicy>(std::chrono::milliseconds(0));
  ReoptSession session(&world->registry, so);
  QueryHandle handle = session.Register(opt);
  ApplyChurnRound(world->registry, 1);
  session.Poll();
  EXPECT_EQ(count_threads(), threads_before);
  EXPECT_GE(session.metrics().flushes, 1);
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

}  // namespace
}  // namespace iqro::testing
