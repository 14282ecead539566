// The benchmark's workloads: world shapes, the inputs generated from the
// workload seed, and the record of what was sent (the replay log the
// correctness check and the traced in-process replays consume).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/query_spec.h"
#include "server/wire.h"
#include "testing/scenario.h"

namespace perfbench {

using iqro::QuerySpec;
using iqro::testing::CatalogSpec;
using iqro::testing::StatMutation;
using Batch = std::vector<StatMutation>;

/// One workload's fixed shape. These values are part of the benchmark's
/// definition (BENCHMARK.json names them in each workload's `why`).
struct Shape {
  std::string name;
  int worlds = 0;
  int configs = 0;          // optimizer configurations registered per world
  bool tpch = false;        // TPC-H Q5 worlds; else a synthetic 4-relation chain
  bool open_loop = false;   // fixed-rate stat batches, timer-driven flushes
  int shards = 2;
  int connections = 1;
  double rate_per_s = 0;    // open loop: offered stat batches per second
  int deadline_ms = 0;      // > 0: reoptd --deadline-ms
};

/// Null for an unknown name.
const Shape* FindShape(const std::string& name);

/// One world as the load generator sees it: its wire specs, its registered
/// option sets, and the initial statistics the mutation generator walks
/// from.
struct World {
  uint64_t key = 0;
  CatalogSpec catalog;
  QuerySpec query;
  std::vector<std::string> options;  // one entry per registered config
  uint64_t initial_epoch = 0;        // registry epoch after binding stats
  int num_relations = 0;
  int num_edges = 0;
  std::vector<double> base_rows, local_sel, row_width, scan_mult, join_sel;
};

/// Everything one update did on the socket, kept for the replays and the
/// correctness check. Phases: 0 = measured (end-to-end), 1 = traced,
/// 2 = untraced twin of the traced phase, 3 = workload-shape lag probe,
/// 4 = warm-up before the measured phase.
struct Update {
  uint64_t seq = 0;        // global send order
  int world = 0;
  int phase = 0;
  Batch batch;
  bool flushed = false;    // an explicit Flush followed the batch
  // Traced phase only: client spans and what came back.
  double record_rtt_us = 0;
  double flush_rtt_us = 0;
  uint64_t record_ack = 0;
  uint64_t flush_ack = 0;
  std::vector<iqro::server::PlanChangeEventMsg> events;
};

class Workload {
 public:
  Workload(const Shape& shape, uint64_t seed);

  const Shape& shape() const { return shape_; }
  const std::vector<World>& worlds() const { return worlds_; }

  /// The next batch for world `w`. Each world draws from its own stream,
  /// so the sequence per world depends only on the seed, not on how
  /// connection threads interleave. Safe to call concurrently for
  /// different worlds. `*absorbed` is set when every statistic the batch
  /// touches ends at its value from before the batch (coalescing would
  /// drop the whole batch).
  Batch NextBatch(int w, bool* absorbed);

  /// Registrations whose (world, option set) pair repeats an earlier one.
  double DuplicateRegistrationShare() const;
  /// Share of the mutations drawn so far whose statistic the same batch
  /// returns to its pre-batch value (coalescing absorbs them).
  double NetZeroMutationShare() const;

 private:
  Batch SwingBatch(int w);
  Batch StreamBatch(int w);

  Shape shape_;
  std::vector<World> worlds_;
  std::vector<iqro::Rng> rngs_;
  std::vector<int64_t> batches_drawn_;
  /// Per world: current value of every statistic a batch has touched,
  /// keyed by (mutation kind, target).
  std::vector<std::map<std::pair<int, int>, double>> current_;
  std::vector<int64_t> mutations_drawn_;
  std::vector<int64_t> net_zero_drawn_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
