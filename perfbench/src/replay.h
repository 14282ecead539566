// In-process replays of the inputs a run sent over the socket: the
// correctness oracle, the ReoptSession replay that pins event counts, and
// the traced per-layer replays (shard, session, stats + core, wire). Spans
// are taken around calls into each layer's public functions, from here;
// nothing inside the program is instrumented.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Every query's last reported cost against a from-scratch
/// DeclarativeOptimizer::Optimize() under its world's final statistics.
struct OracleResult {
  int64_t checked = 0;
  int64_t mismatches = 0;
  double memo_eps_per_query = 0;  // plan-table entries the fresh optimizers enumerated
  std::vector<std::string> errors;
};
OracleResult CheckFinalCosts(const Workload& workload, const std::vector<const Update*>& order,
                             const std::vector<std::vector<double>>& last_cost, int threads);

/// One bench-owned ReoptSession per world, fed every update in send order
/// (explicit flushes where the client flushed, one final flush per world).
/// Per update in `order`: the span of applying its mutations, the span of
/// its Flush(), and the passes and plan changes that flush produced.
struct SessionReplay {
  std::vector<std::vector<int64_t>> event_count;  // [world][config]
  std::vector<double> apply_us, flush_us;
  std::vector<int64_t> passes, plan_changes;
};
SessionReplay ReplaySessions(const Workload& workload, const std::vector<const Update*>& order,
                             int threads);

/// Per-update spans of an in-process ShardedService fed the updates of
/// `phase` (which must be the first updates after registration).
struct ShardReplay {
  std::vector<double> record_us, flush_us;  // per update of the phase
};
ShardReplay ReplayShards(const Workload& workload, const std::vector<const Update*>& order,
                         int phase);

/// Bare DeclarativeOptimizers over one StatsRegistry per world: mutations
/// applied, the batch drained with TakePendingBatch and fed to every
/// optimizer's ReoptimizeBatch, then each plan digest computed.
struct CoreReplay {
  std::vector<double> optimize_us;               // per query, at registration
  std::vector<double> record_us, drain_us;       // per update
  std::vector<double> passes_us, digests_us;     // per update, summed over passes
  std::vector<double> pass_us;                   // per pass
  int64_t mutations = 0, changes = 0, passes = 0;
  int64_t steps = 0, eps_seeded = 0;
  double touched_fraction_sum = 0;
};
CoreReplay ReplayCore(const Workload& workload, const std::vector<const Update*>& order,
                      int phase);

/// Encode and decode time of every frame one update put on the wire —
/// requests, acks and the plan-change events it carried — per update of
/// `phase`, plus the frames' bytes. Also times one empty-batch round trip's
/// frames (the no-op probe's codec share).
struct WireReplay {
  std::vector<double> encode_us, decode_us, bytes;
  double noop_codec_us = 0;
};
WireReplay ReplayWire(const Workload& workload, const std::vector<const Update*>& order,
                      int phase);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
