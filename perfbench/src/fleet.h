// The load generator's socket side: registration, the closed- and
// open-loop phases, and the per-query record of what reoptd reported.
// Every call into the daemon goes through the public server::Client.
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/client.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Operation accounting behind op_error_rate. Every ClientError (including
/// kOverloaded), every disconnect or protocol error, every rejected
/// mutation, every quarantine event, every open-loop batch never flushed
/// and every mismatch of the correctness check counts as failed.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t absorbed = 0;   // open loop: batches coalescing drops whole; not timed
  int64_t unchanged = 0;  // open loop: flushed without changing a plan; not timed
  std::vector<std::string> errors;  // first few, for the report

  void Fail(const std::string& what);
  void Merge(const Tally& o);
};

/// What one phase measured.
struct PhaseResult {
  double seconds = 0;               // wall time of the phase
  int64_t updates = 0;              // stat batches acknowledged
  std::vector<double> latency_ms;   // update -> plan, one per timed update
  std::vector<double> send_lag_ms;  // generator lateness (see DriveOpenLoop)
  std::vector<Update> log;          // what was sent, for the replays
};

class Fleet {
 public:
  /// Connects `connections` clients to `socket_path`, retrying while the
  /// daemon starts (up to `timeout`).
  Fleet(Workload* workload, const std::string& socket_path, int connections,
        std::chrono::milliseconds timeout);

  /// Registers every (world, config). World w is registered on connection
  /// w % connections (its events arrive there). Connections register in
  /// parallel. With `rtt_us`, each registration's round trip is recorded.
  void RegisterAll(Tally* tally, std::vector<double>* rtt_us);

  /// Closed loop: each connection cycles through its worlds sending a
  /// batch then a Flush, the next only after the Flush ack. Latency is
  /// batch send -> Flush ack (the events of the flush precede its ack).
  /// `traced` records client spans, acks and events into the log.
  PhaseResult DriveClosedLoop(int phase, double seconds, bool traced, Tally* tally);

  /// Open loop on connection 0: batch i is due at start + i / rate, for
  /// world i % worlds. Latency runs from the due time to the first
  /// plan-change event whose flush epoch covers the batch's last mutation;
  /// send lag is send time - due time. Returns when the phase ends; the
  /// batches whose events have not arrived yet wait for SettleOpenLoop.
  PhaseResult DriveOpenLoop(int phase, double seconds, Tally* tally);

  /// Ends an open-loop phase: waits up to `tail_seconds` for outstanding
  /// events, timing them into `phase`, then flushes every world. A batch
  /// still unreflected fails unless its deadline flush ran and changed no
  /// plan (counted as unchanged).
  void SettleOpenLoop(double tail_seconds, PhaseResult* phase, Tally* tally);

  /// Round trips of `n` empty stat batches on connection 0 — the daemon's
  /// request plane with no shard work behind it.
  std::vector<double> NoopRttUs(int n, Tally* tally);

  /// Last cost each query reported (last plan-change new_cost, else its
  /// registration best_cost) and its plan-change event count, [world][config].
  const std::vector<std::vector<double>>& last_cost() const { return last_cost_; }
  const std::vector<std::vector<int64_t>>& event_count() const { return event_count_; }

 private:
  struct QueryRef {
    int world = 0;
    int config = 0;
  };
  /// An open-loop batch whose plan-change event has not arrived yet.
  struct Pending {
    uint64_t epoch;  // registry epoch once the batch's last mutation applied
    Clock::time_point due;
  };
  /// Applies one received event to the per-query record; returns the
  /// world of a plan change (-1 otherwise).
  int Absorb(const iqro::server::ReceivedEvent& ev, Tally* tally);
  /// Open loop: absorbs the events received so far on connection 0 and
  /// times the pending batches they reflect into `out`.
  void TakeOpenLoopEvents(PhaseResult* out, Tally* tally);

  Workload* workload_;
  std::vector<std::unique_ptr<iqro::server::Client>> clients_;
  std::unordered_map<uint64_t, QueryRef> by_id_;  // written by RegisterAll only
  std::vector<std::vector<double>> last_cost_;
  std::vector<std::vector<int64_t>> event_count_;
  /// Per world: the registry epoch once every batch sent so far is applied.
  /// Every generated mutation changes its statistic, and each such change
  /// bumps the epoch by one.
  std::vector<uint64_t> epoch_;
  std::vector<std::deque<Pending>> outstanding_;  // open loop, per world
  std::atomic<uint64_t> next_seq_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
