// perfbench_load: drives a reoptd child process over its Unix socket on one
// workload, checks every output, and prints one JSON result line.
//
//   perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                  --reoptd PATH --run-dir DIR
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 is
// the separate traced run: client spans on the socket, then in-process
// replays of the same inputs into each layer (see README.md).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/bench_util.h"
#include "fleet.h"
#include "proc.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string reoptd;
  std::string run_dir;
};

/// Largest share of the traced round trip by which the independently
/// measured layers may miss it before the run fails.
constexpr double kReconcileTolerance = 0.25;
/// Threads for the untimed replays of the correctness check, which run after
/// the daemon has exited.
constexpr int kReplayThreads = 4;
constexpr double kOpenLoopTailSeconds = 5;
constexpr double kWarmupSeconds = 1;
/// Fresh daemons set up per end-to-end run; setup_s is their median. The
/// set-ups are spaced by an idle gap, and split between before and after
/// the measured phase, so a slow spell of the host shorter than the phase
/// slows at most one side of them.
constexpr int kSetupReps = 15;
constexpr int kSetupRepsBefore = 8;
constexpr auto kSetupGap = std::chrono::milliseconds(500);

double Pct(const std::vector<double>& v, double p) { return iqro::bench::Percentile(v, p); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::string> DaemonArgs(const Shape& shape, const std::string& socket) {
  std::vector<std::string> args = {"--unix", socket, "--shards", std::to_string(shape.shards)};
  if (shape.deadline_ms > 0) {
    args.push_back("--deadline-ms");
    args.push_back(std::to_string(shape.deadline_ms));
  }
  return args;
}

std::string SocketPath(const Args& a, int rep) {
  const std::string path =
      a.run_dir + "/reoptd-" + std::to_string(getpid()) + "-" + std::to_string(rep) + ".sock";
  unlink(path.c_str());
  return path;
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintErrors(const char* what, const std::vector<std::string>& errors) {
  for (const std::string& e : errors) std::printf("error %s: %s\n", what, e.c_str());
}

/// The correctness check every run ends with: every query's last reported
/// cost against a from-scratch optimization, and on closed-loop phases the
/// event counts against an in-process ReoptSession replay. Each mismatch
/// is a failed operation.
void CheckOutputs(const Workload& wl, const std::vector<const Update*>& order, const Fleet& fleet,
                  bool check_event_counts, const SessionReplay* replay, Tally* tally,
                  double* memo_eps_per_query) {
  const OracleResult oracle = CheckFinalCosts(wl, order, fleet.last_cost(), kReplayThreads);
  tally->attempted += oracle.checked;
  for (int64_t i = 0; i < oracle.mismatches; ++i) tally->Fail("final cost differs from oracle");
  PrintErrors("oracle", oracle.errors);
  *memo_eps_per_query = oracle.memo_eps_per_query;
  int64_t count_mismatches = 0;
  if (check_event_counts) {
    const auto& got = fleet.event_count();
    for (size_t w = 0; w < got.size(); ++w) {
      for (size_t k = 0; k < got[w].size(); ++k) {
        ++tally->attempted;
        if (got[w][k] != replay->event_count[w][k]) {
          ++count_mismatches;
          tally->Fail("world " + std::to_string(w) + " config " + std::to_string(k) + ": " +
                      std::to_string(got[w][k]) + " events, in-process replay " +
                      std::to_string(replay->event_count[w][k]));
        }
      }
    }
  }
  std::printf("check oracle_queries=%lld cost_mismatches=%lld event_counts_checked=%s "
              "event_count_mismatches=%lld\n",
              static_cast<long long>(oracle.checked), static_cast<long long>(oracle.mismatches),
              check_event_counts ? "yes" : "no", static_cast<long long>(count_mismatches));
}

std::vector<const Update*> SendOrder(const std::vector<Update>& log) {
  std::vector<const Update*> order;
  for (const Update& u : log) order.push_back(&u);
  std::sort(order.begin(), order.end(),
            [](const Update* a, const Update* b) { return a->seq < b->seq; });
  return order;
}

void PrintHeader(const Args& a, const Shape& s) {
  std::printf("perfbench workload=%s seed=%llu trace=%d seconds=%g shards=%d connections=%d "
              "worlds=%d configs_per_world=%d loop=%s",
              s.name.c_str(), static_cast<unsigned long long>(a.seed), a.trace, a.seconds,
              s.shards, a.trace ? 1 : s.connections, s.worlds, s.configs,
              s.open_loop ? "open" : "closed");
  if (s.open_loop) std::printf(" rate_per_s=%g deadline_ms=%d", s.rate_per_s, s.deadline_ms);
  std::printf("\n");
}

void PrintProperties(const Workload& wl, double memo_eps_per_query) {
  std::printf("property duplicate_registration_share=%.4f net_zero_mutation_share=%.4f "
              "configs_per_world=%d memo_eps_per_query=%.1f\n",
              wl.DuplicateRegistrationShare(), wl.NetZeroMutationShare(), wl.shape().configs,
              memo_eps_per_query);
}

int RunEndToEnd(const Args& a, const Shape& shape) {
  Workload wl(shape, a.seed);
  Tally tally;
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProcess> daemon;
  std::unique_ptr<Fleet> fleet;
  auto set_up = [&](int rep) {
    if (rep > 0) std::this_thread::sleep_for(kSetupGap);
    const std::string socket = SocketPath(a, rep);
    const auto t0 = Clock::now();
    daemon = std::make_unique<DaemonProcess>(a.reoptd, DaemonArgs(shape, socket));
    fleet = std::make_unique<Fleet>(&wl, socket, shape.connections, std::chrono::seconds(30));
    fleet->RegisterAll(&tally, nullptr);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  };
  auto tear_down = [&] {
    fleet.reset();
    if (!daemon->Stop()) tally.Fail("reoptd did not shut down cleanly");
  };
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    if (rep > 0) tear_down();
    set_up(rep);
  }

  // The first flushes after registration grow every memo and warm the
  // caches; users pay that once per daemon, so it is kept out of the
  // measured phase.
  auto drive = [&](int phase, double seconds) {
    return shape.open_loop ? fleet->DriveOpenLoop(phase, seconds, &tally)
                           : fleet->DriveClosedLoop(phase, seconds, false, &tally);
  };
  auto settle = [&](PhaseResult* p) {
    if (shape.open_loop) fleet->SettleOpenLoop(kOpenLoopTailSeconds, p, &tally);
  };
  PhaseResult warmup = drive(4, kWarmupSeconds);
  settle(&warmup);
  const double cpu0 = daemon->CpuSeconds();
  PhaseResult run = drive(0, a.seconds);
  // Read as the phase ends: the open loop's tail and final flushes come
  // after the window the updates are counted in.
  const double cpu_s = daemon->CpuSeconds() - cpu0;
  const double rss_mb = daemon->PeakRssMb();
  settle(&run);
  // The correctness check reads the measured fleet's record.
  const std::unique_ptr<Fleet> measured = std::move(fleet);
  tear_down();
  for (int rep = kSetupRepsBefore; rep < kSetupReps; ++rep) {
    set_up(rep);
    tear_down();
  }

  for (Update& u : run.log) warmup.log.push_back(std::move(u));
  const std::vector<const Update*> order = SendOrder(warmup.log);
  SessionReplay replay;
  if (!shape.open_loop) replay = ReplaySessions(wl, order, kReplayThreads);
  double memo_eps = 0;
  CheckOutputs(wl, order, *measured, !shape.open_loop, &replay, &tally, &memo_eps);
  PrintProperties(wl, memo_eps);
  PrintErrors("run", tally.errors);

  const double updates = static_cast<double>(std::max<int64_t>(run.updates, 1));
  const double error_rate =
      static_cast<double>(tally.failed) / static_cast<double>(std::max<int64_t>(tally.attempted, 1));
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"updates_per_s", static_cast<double>(run.updates) / run.seconds, "1/s"},
      {"update_to_plan_p50_ms", Pct(run.latency_ms, 0.50), "ms"},
      {"daemon_cpu_ms_per_update", cpu_s * 1000.0 / updates, "ms"},
      {"daemon_peak_rss_mb", rss_mb, "MiB"},
  };
  for (const Metric& m : metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Printed but not part of the result line: p99 spreads too much from run
  // to run on a shared host to carry a bound, and the error rate is 0 on
  // every correct run (its counts are the result's attempted and failed).
  std::printf("metric update_to_plan_p99_ms = %.6g ms (%zu samples)\n",
              Pct(run.latency_ms, 0.99), run.latency_ms.size());
  std::printf("metric op_error_rate = %.6g ratio (failed %lld of %lld operations)\n", error_rate,
              static_cast<long long>(tally.failed), static_cast<long long>(tally.attempted));
  std::printf("setup_reps_s");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("samples setup=%zu latency=%zu absorbed_batches=%lld unchanged_batches=%lld\n",
              setup_s.size(), run.latency_ms.size(), static_cast<long long>(tally.absorbed),
              static_cast<long long>(tally.unchanged));
  const bool correct = tally.failed == 0;
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const Args& a, const Shape& shape) {
  Workload wl(shape, a.seed);
  Tally tally;
  // One connection throughout, so a round trip holds no other connection's
  // work and decomposes into the layers below it.
  const std::string socket = SocketPath(a, 0);
  DaemonProcess daemon(a.reoptd, DaemonArgs(shape, socket));
  Fleet fleet(&wl, socket, 1, std::chrono::seconds(30));
  std::vector<double> register_rtt_us;
  fleet.RegisterAll(&tally, &register_rtt_us);

  // Phase 1 (traced) runs first, straight after registration, so the
  // in-process replays reach its inputs without replaying anything else.
  const double part = a.seconds / 3;
  PhaseResult traced = fleet.DriveClosedLoop(1, part, true, &tally);
  PhaseResult untraced = fleet.DriveClosedLoop(2, part, false, &tally);
  PhaseResult shaped;
  if (shape.open_loop) {
    shaped = fleet.DriveOpenLoop(3, part, &tally);
    fleet.SettleOpenLoop(kOpenLoopTailSeconds, &shaped, &tally);
  }
  const std::vector<double> noop_us = fleet.NoopRttUs(500, &tally);
  if (!daemon.Stop()) tally.Fail("reoptd did not shut down cleanly");

  std::vector<Update> all;
  for (PhaseResult* p : {&traced, &untraced, &shaped}) {
    for (Update& u : p->log) all.push_back(std::move(u));
  }
  const std::vector<const Update*> order = SendOrder(all);
  const ShardReplay shard = ReplayShards(wl, order, 1);
  const CoreReplay core = ReplayCore(wl, order, 1);
  const WireReplay wire = ReplayWire(wl, order, 1);
  const SessionReplay session = ReplaySessions(wl, order, 1);
  double memo_eps = 0;
  CheckOutputs(wl, order, fleet, !shape.open_loop, &session, &tally, &memo_eps);
  PrintProperties(wl, memo_eps);

  // Per-update spans of the traced phase, aligned across the replays.
  std::vector<double> client, record_rtt, flush_rtt, shard_us, session_us, session_flush_us;
  std::vector<double> core_us, stats_us, wire_us, session_self, shard_self, daemon_self;
  int64_t passes = 0;
  int64_t plan_changes = 0;
  size_t t = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const Update* u = order[i];
    if (u->phase != 1) continue;
    record_rtt.push_back(u->record_rtt_us);
    flush_rtt.push_back(u->flush_rtt_us);
    client.push_back(u->record_rtt_us + u->flush_rtt_us);
    shard_us.push_back(shard.record_us[t] + shard.flush_us[t]);
    session_us.push_back(session.apply_us[i] + session.flush_us[i]);
    session_flush_us.push_back(session.flush_us[i]);
    core_us.push_back(core.passes_us[t] + core.digests_us[t]);
    stats_us.push_back(core.record_us[t] + core.drain_us[t]);
    wire_us.push_back(wire.encode_us[t] + wire.decode_us[t]);
    session_self.push_back(session_us.back() - core_us.back() - stats_us.back());
    shard_self.push_back(shard_us.back() - session_us.back());
    daemon_self.push_back(client.back() - shard_us.back() - wire_us.back());
    passes += session.passes[i];
    plan_changes += session.plan_changes[i];
    ++t;
  }
  const double n = static_cast<double>(std::max<size_t>(t, 1));
  const double core_passes = static_cast<double>(std::max<int64_t>(core.passes, 1));
  const double mutations = static_cast<double>(std::max<int64_t>(core.mutations, 1));

  // Reconciliation: the no-op probe measures the request plane (client,
  // socket, daemon loop) with no shard work behind it. Two such requests
  // per update, plus the in-process shard span and the codec work, must
  // add up to the traced round trip. The self times below sum to the round
  // trip by construction (daemon self time is the remainder), so only this
  // independent prediction can fail to reconcile.
  const double rtt = Mean(client);
  const double plane = 2 * (Mean(noop_us) - wire.noop_codec_us);
  const double predicted = plane + Mean(shard_us) + Mean(wire_us);
  const double residual = rtt > 0 ? (rtt - predicted) / rtt : 1;
  bool reconciled = std::abs(residual) <= kReconcileTolerance;
  const std::pair<const char*, double> selfs[] = {
      {"core", Mean(core_us)},          {"stats", Mean(stats_us)},
      {"session", Mean(session_self)},  {"shard", Mean(shard_self)},
      {"wire", Mean(wire_us)},          {"daemon", Mean(daemon_self)},
  };
  for (const auto& [name, us] : selfs) {
    std::printf("layer %s self_us_per_update = %.3f (%.1f%% of round trip)\n", name, us,
                rtt > 0 ? 100 * us / rtt : 0);
    if (us < -kReconcileTolerance * rtt) reconciled = false;
  }
  std::printf("reconcile round_trip_us=%.3f noop_plane_us=%.3f predicted_us=%.3f "
              "residual=%.2f%% tolerance=%.0f%% %s\n",
              rtt, plane, predicted, 100 * residual, 100 * kReconcileTolerance,
              reconciled ? "ok" : "FAILED");
  if (!reconciled) tally.Fail("layer self times do not reconcile with the client round trip");
  const double traced_ups = static_cast<double>(traced.updates) / traced.seconds;
  const double untraced_ups = static_cast<double>(untraced.updates) / untraced.seconds;
  std::printf("overhead traced_updates_per_s=%.2f untraced_updates_per_s=%.2f "
              "tracing_overhead=%.2f%%\n",
              traced_ups, untraced_ups,
              untraced_ups > 0 ? 100 * (untraced_ups - traced_ups) / untraced_ups : 0);
  PrintErrors("run", tally.errors);

  const std::vector<double>& lag = shape.open_loop ? shaped.send_lag_ms : untraced.send_lag_ms;
  const std::vector<Metric> metrics = {
      {"core.optimize_us_per_query", Mean(core.optimize_us), "us"},
      {"core.reopt_us_per_pass_p50", Pct(core.pass_us, 0.50), "us"},
      {"core.steps_per_pass", static_cast<double>(core.steps) / core_passes, "count"},
      {"core.eps_seeded_per_pass", static_cast<double>(core.eps_seeded) / core_passes, "count"},
      {"core.touched_eps_fraction", core.touched_fraction_sum / core_passes, "ratio"},
      {"core.digest_us_per_pass",
       std::accumulate(core.digests_us.begin(), core.digests_us.end(), 0.0) / core_passes, "us"},
      {"session.passes_per_update", static_cast<double>(passes) / n, "count"},
      {"session.plan_changes_per_pass",
       static_cast<double>(plan_changes) / static_cast<double>(std::max<int64_t>(passes, 1)),
       "ratio"},
      {"session.self_us_per_flush", Mean(session_self), "us"},
      {"session.flush_us_p50", Pct(session_flush_us, 0.50), "us"},
      {"session.flush_us_p99", Pct(session_flush_us, 0.99), "us"},
      {"stats.record_us_per_mutation",
       std::accumulate(core.record_us.begin(), core.record_us.end(), 0.0) / mutations, "us"},
      {"stats.drain_us_per_flush", Mean(core.drain_us), "us"},
      {"stats.changes_per_mutation", static_cast<double>(core.changes) / mutations, "ratio"},
      {"shard.record_us_p50", Pct(shard.record_us, 0.50), "us"},
      {"shard.flush_us_p50", Pct(shard.flush_us, 0.50), "us"},
      {"shard.flush_us_p99", Pct(shard.flush_us, 0.99), "us"},
      {"shard.queue_wait_us_per_update", Mean(shard_self), "us"},
      {"daemon.self_us_per_update", Mean(daemon_self), "us"},
      {"wire.encode_us_per_update", Mean(wire.encode_us), "us"},
      {"wire.decode_us_per_update", Mean(wire.decode_us), "us"},
      {"wire.bytes_per_update", Mean(wire.bytes), "bytes"},
      {"client.record_rtt_p50_us", Pct(record_rtt, 0.50), "us"},
      {"client.flush_rtt_p50_us", Pct(flush_rtt, 0.50), "us"},
      {"client.flush_rtt_p99_us", Pct(flush_rtt, 0.99), "us"},
      {"client.register_rtt_p50_us", Pct(register_rtt_us, 0.50), "us"},
      {"bench.send_lag_p99_ms", Pct(lag, 0.99), "ms"},
  };
  for (const Metric& m : metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("samples traced_updates=%zu passes=%lld noop=%zu register=%zu\n", t,
              static_cast<long long>(core.passes), noop_us.size(), register_rtt_us.size());
  const bool correct = tally.failed == 0;
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 --reoptd PATH "
               "--run-dir DIR\n",
               argv0);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) perfbench::Usage(argv[0]);
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (flag == "--reoptd") {
      a.reoptd = value;
    } else if (flag == "--run-dir") {
      a.run_dir = value;
    } else {
      perfbench::Usage(argv[0]);
    }
  }
  const perfbench::Shape* shape = perfbench::FindShape(a.workload);
  if (shape == nullptr || a.reoptd.empty() || a.run_dir.empty() || a.seconds <= 0) {
    std::fprintf(stderr, "perfbench: unknown workload or missing argument\n");
    perfbench::Usage(argv[0]);
  }
  try {
    perfbench::PrintHeader(a, *shape);
    return a.trace ? perfbench::RunTraced(a, *shape) : perfbench::RunEndToEnd(a, *shape);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
