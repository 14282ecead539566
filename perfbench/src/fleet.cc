#include "fleet.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace perfbench {

using iqro::server::Client;
using iqro::server::ClientError;
using iqro::server::MsgType;
using iqro::server::ReceivedEvent;

namespace {

double Us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }
double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

Clock::time_point Deadline(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

}  // namespace

void Tally::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

void Tally::Merge(const Tally& o) {
  attempted += o.attempted;
  failed += o.failed;
  absorbed += o.absorbed;
  unchanged += o.unchanged;
  for (const std::string& e : o.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

Fleet::Fleet(Workload* workload, const std::string& socket_path, int connections,
             std::chrono::milliseconds timeout)
    : workload_(workload) {
  const auto deadline = Clock::now() + timeout;
  for (int c = 0; c < connections; ++c) {
    auto client = std::make_unique<Client>();
    for (;;) {
      try {
        client->ConnectUnix(socket_path);
        break;
      } catch (const std::runtime_error&) {
        if (Clock::now() > deadline) throw;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    clients_.push_back(std::move(client));
  }
  const auto& worlds = workload_->worlds();
  last_cost_.resize(worlds.size());
  event_count_.resize(worlds.size());
  for (size_t w = 0; w < worlds.size(); ++w) {
    last_cost_[w].assign(worlds[w].options.size(), 0);
    event_count_[w].assign(worlds[w].options.size(), 0);
    epoch_.push_back(worlds[w].initial_epoch);
  }
}

void Fleet::RegisterAll(Tally* tally, std::vector<double>* rtt_us) {
  const int conns = static_cast<int>(clients_.size());
  std::vector<Tally> tallies(static_cast<size_t>(conns));
  std::vector<std::vector<double>> rtts(static_cast<size_t>(conns));
  std::vector<std::unordered_map<uint64_t, QueryRef>> ids(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients_[static_cast<size_t>(c)];
      Tally& t = tallies[static_cast<size_t>(c)];
      const auto& worlds = workload_->worlds();
      for (size_t w = static_cast<size_t>(c); w < worlds.size(); w += static_cast<size_t>(conns)) {
        for (size_t k = 0; k < worlds[w].options.size(); ++k) {
          ++t.attempted;
          const auto t0 = Clock::now();
          try {
            const auto resp = client.RegisterQuery(worlds[w].key, worlds[w].catalog,
                                                   worlds[w].query, worlds[w].options[k]);
            if (rtt_us != nullptr) rtts[static_cast<size_t>(c)].push_back(Us(Clock::now() - t0));
            ids[static_cast<size_t>(c)][resp.query_id] =
                QueryRef{static_cast<int>(w), static_cast<int>(k)};
            last_cost_[w][k] = resp.best_cost;
          } catch (const ClientError& e) {
            t.Fail(std::string("register: ") + e.what());
          } catch (const std::runtime_error& e) {
            t.Fail(std::string("register: ") + e.what());
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < conns; ++c) {
    tally->Merge(tallies[static_cast<size_t>(c)]);
    by_id_.insert(ids[static_cast<size_t>(c)].begin(), ids[static_cast<size_t>(c)].end());
    if (rtt_us != nullptr) {
      rtt_us->insert(rtt_us->end(), rtts[static_cast<size_t>(c)].begin(),
                     rtts[static_cast<size_t>(c)].end());
    }
  }
}

int Fleet::Absorb(const ReceivedEvent& ev, Tally* tally) {
  if (ev.msg.type == MsgType::kQuarantine) {
    tally->Fail("query " + std::to_string(ev.msg.quarantine.query_id) +
                " quarantined: " + ev.msg.quarantine.message);
    return -1;
  }
  auto it = by_id_.find(ev.msg.plan_change.query_id);
  if (it == by_id_.end()) {
    tally->Fail("event for unknown query " + std::to_string(ev.msg.plan_change.query_id));
    return -1;
  }
  const QueryRef ref = it->second;
  last_cost_[static_cast<size_t>(ref.world)][static_cast<size_t>(ref.config)] =
      ev.msg.plan_change.new_cost;
  ++event_count_[static_cast<size_t>(ref.world)][static_cast<size_t>(ref.config)];
  return ref.world;
}

PhaseResult Fleet::DriveClosedLoop(int phase, double seconds, bool traced, Tally* tally) {
  const int conns = static_cast<int>(clients_.size());
  std::vector<PhaseResult> parts(static_cast<size_t>(conns));
  std::vector<Tally> tallies(static_cast<size_t>(conns));
  const auto start = Clock::now();
  const auto end = Deadline(start, seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients_[static_cast<size_t>(c)];
      PhaseResult& out = parts[static_cast<size_t>(c)];
      Tally& t = tallies[static_cast<size_t>(c)];
      const auto& worlds = workload_->worlds();
      Clock::time_point last_reply{};
      for (;;) {
        for (size_t w = static_cast<size_t>(c); w < worlds.size(); w += static_cast<size_t>(conns)) {
          if (Clock::now() >= end) return;
          Update u;
          u.world = static_cast<int>(w);
          u.phase = phase;
          bool absorbed = false;
          u.batch = workload_->NextBatch(u.world, &absorbed);
          u.seq = next_seq_.fetch_add(1);
          const auto t0 = Clock::now();
          try {
            t.attempted += 2;
            u.record_ack = client.RecordStatBatch(worlds[w].key, u.batch);
            epoch_[w] += u.batch.size();
            if (u.record_ack != u.batch.size()) {
              t.Fail("record: " + std::to_string(u.batch.size() - u.record_ack) +
                     " mutations rejected");
            }
            const auto t1 = Clock::now();
            u.flush_ack = client.Flush(worlds[w].key);
            u.flushed = true;
            const auto t2 = Clock::now();
            if (traced) {
              u.record_rtt_us = Us(t1 - t0);
              u.flush_rtt_us = Us(t2 - t1);
            }
            out.latency_ms.push_back(Ms(t2 - t0));
            if (last_reply != Clock::time_point{}) out.send_lag_ms.push_back(Ms(t0 - last_reply));
            last_reply = t2;
            ++out.updates;
          } catch (const ClientError& e) {
            t.Fail(std::string("closed loop: ") + e.what());
          } catch (const std::runtime_error& e) {
            t.Fail(std::string("closed loop: ") + e.what());
            out.log.push_back(std::move(u));
            return;
          }
          for (const ReceivedEvent& ev : client.TakeEvents()) {
            Absorb(ev, &t);
            if (traced && ev.msg.type == MsgType::kPlanChange) u.events.push_back(ev.msg.plan_change);
          }
          out.log.push_back(std::move(u));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (int c = 0; c < conns; ++c) {
    PhaseResult& p = parts[static_cast<size_t>(c)];
    tally->Merge(tallies[static_cast<size_t>(c)]);
    result.updates += p.updates;
    result.latency_ms.insert(result.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    result.send_lag_ms.insert(result.send_lag_ms.end(), p.send_lag_ms.begin(),
                              p.send_lag_ms.end());
    for (Update& u : p.log) result.log.push_back(std::move(u));
  }
  return result;
}

void Fleet::TakeOpenLoopEvents(PhaseResult* out, Tally* tally) {
  for (const ReceivedEvent& ev : clients_[0]->TakeEvents()) {
    const int w = Absorb(ev, tally);
    if (w < 0) continue;
    auto& q = outstanding_[static_cast<size_t>(w)];
    const uint64_t ep = ev.msg.plan_change.flush_epoch;
    while (!q.empty() && q.front().epoch <= ep) {
      out->latency_ms.push_back(Ms(ev.received_at - q.front().due));
      q.pop_front();
    }
  }
}

PhaseResult Fleet::DriveOpenLoop(int phase, double seconds, Tally* tally) {
  Client& client = *clients_[0];
  const auto& worlds = workload_->worlds();
  const double rate = workload_->shape().rate_per_s;
  outstanding_.assign(worlds.size(), {});
  PhaseResult out;

  const auto start = Clock::now();
  const auto end = Deadline(start, seconds);
  for (int64_t i = 0;; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(static_cast<double>(i) / rate));
    if (due >= end) break;
    try {
      for (auto now = Clock::now(); now < due; now = Clock::now()) {
        const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(due - now);
        if (wait_ms.count() >= 1) {
          client.PollEvents(wait_ms);
          TakeOpenLoopEvents(&out, tally);
        } else {
          std::this_thread::sleep_until(due);
        }
      }
      const size_t w = static_cast<size_t>(i) % worlds.size();
      bool absorbed = false;
      Update u;
      u.world = static_cast<int>(w);
      u.phase = phase;
      u.batch = workload_->NextBatch(u.world, &absorbed);
      u.seq = next_seq_.fetch_add(1);
      out.send_lag_ms.push_back(Ms(Clock::now() - due));
      ++tally->attempted;
      u.record_ack = client.RecordStatBatch(worlds[w].key, u.batch);
      if (u.record_ack != u.batch.size()) {
        tally->Fail("record: " + std::to_string(u.batch.size() - u.record_ack) +
                    " mutations rejected");
      }
      epoch_[w] += u.batch.size();
      if (absorbed) {
        ++tally->absorbed;
      } else {
        outstanding_[w].push_back(Pending{epoch_[w], due});
      }
      ++out.updates;
      out.log.push_back(std::move(u));
      TakeOpenLoopEvents(&out, tally);
    } catch (const ClientError& e) {
      tally->Fail(std::string("open loop: ") + e.what());
    } catch (const std::runtime_error& e) {
      tally->Fail(std::string("open loop: ") + e.what());
      break;
    }
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

void Fleet::SettleOpenLoop(double tail_seconds, PhaseResult* phase, Tally* tally) {
  Client& client = *clients_[0];
  const auto& worlds = workload_->worlds();
  const auto tail_end = Deadline(Clock::now(), tail_seconds);
  auto pending = [&] {
    size_t n = 0;
    for (const auto& q : outstanding_) n += q.size();
    return n;
  };
  try {
    while (pending() > 0 && Clock::now() < tail_end) {
      client.PollEvents(std::chrono::milliseconds(5));
      TakeOpenLoopEvents(phase, tally);
    }
  } catch (const std::runtime_error& e) {
    tally->Fail(std::string("open loop tail: ") + e.what());
  }
  // A batch still unreflected was either never flushed (a failure) or
  // flushed without changing any query's plan rendering, which pushes no
  // event. A Flush per world tells them apart: it dispatches nothing when
  // the deadline flush already ran. It also runs after every earlier flush
  // of its world, on the world's shard, and its ack follows their events,
  // so it makes every query's last reported cost final.
  try {
    for (size_t w = 0; w < worlds.size(); ++w) {
      ++tally->attempted;
      const uint64_t dispatched = client.Flush(worlds[w].key);
      const int64_t left = static_cast<int64_t>(outstanding_[w].size());
      if (left == 0) continue;
      if (dispatched == 0) {
        tally->unchanged += left;
      } else {
        for (int64_t i = 0; i < left; ++i) tally->Fail("open loop: batch never flushed");
      }
      outstanding_[w].clear();
    }
    TakeOpenLoopEvents(phase, tally);
  } catch (const std::runtime_error& e) {
    tally->Fail(std::string("open loop final flush: ") + e.what());
  }
}

std::vector<double> Fleet::NoopRttUs(int n, Tally* tally) {
  Client& client = *clients_[0];
  const uint64_t key = workload_->worlds()[0].key;
  std::vector<double> rtts;
  for (int i = 0; i < n; ++i) {
    ++tally->attempted;
    const auto t0 = Clock::now();
    try {
      client.RecordStatBatch(key, {});
    } catch (const std::runtime_error& e) {
      tally->Fail(std::string("noop: ") + e.what());
      break;
    }
    rtts.push_back(Us(Clock::now() - t0));
  }
  return rtts;
}

}  // namespace perfbench
