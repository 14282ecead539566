#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "catalog/catalog.h"
#include "testing/differential.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace perfbench {

namespace {

using Kind = StatMutation::Kind;

// Fixed shapes. Two shards and at most two connections keep the daemon and
// the load generator within a 4-core machine. The open-loop rate is about a
// fifth of the daemon's saturation on these TPC-H Q5 worlds at two shards:
// in a rate sweep (README.md), p50 update-to-plan latency was 9.6 ms at 150
// batches/s, 22-30 ms at 600 and over 100 ms at 700.
const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {"dup-fleet", 16, 64, false, false, 2, 2, 0, 0},
      {"tpch-stream", 64, 7, true, true, 2, 1, 150, 5},
  };
  return shapes;
}

QuerySpec ChainQuery() {
  QuerySpec q;
  q.name = "chain4";
  for (int i = 0; i < 4; ++i) {
    iqro::QueryRelation rel;
    rel.table = i;
    rel.alias = "r" + std::to_string(i);
    q.relations.push_back(std::move(rel));
  }
  for (int i = 0; i < 3; ++i) {
    iqro::JoinPredicate j;
    j.left_rel = i;
    j.right_rel = i + 1;
    q.joins.push_back(j);
  }
  q.locals.push_back({3, 0, iqro::PredOp::kLt, 5000, 0});
  return q;
}

CatalogSpec ChainCatalog(iqro::Rng& rng) {
  CatalogSpec catalog;
  for (int i = 0; i < 4; ++i) {
    iqro::testing::SyntheticTableSpec t;
    t.name = "t" + std::to_string(i);
    t.rows = std::round(1000.0 * (i + 1) * (0.75 + 0.5 * rng.NextDouble()));
    t.width = 16;
    t.cols.push_back({0, 9999, 2000});
    t.hist_seed = rng.Next();
    catalog.tables.push_back(std::move(t));
  }
  return catalog;
}

/// TPC-H Q5 against a private copy of the catalog the daemon builds for
/// `use_tpch` worlds (same generator, same scale), so table ids and
/// dictionary codes agree without touching the shared fixture.
QuerySpec TpchQ5() {
  iqro::Catalog catalog;
  iqro::TpchConfig cfg;
  cfg.scale_factor = 0.002;
  iqro::GenerateTpch(&catalog, cfg);
  return iqro::MakeTpchQuery(&catalog, "Q5");
}

void ReadInitialStats(World* w) {
  iqro::testing::Scenario sc;
  sc.catalog = w->catalog;
  sc.query = w->query;
  auto built = iqro::testing::BuildScenarioWorld(sc);
  const iqro::StatsRegistry& reg = built->registry;
  w->initial_epoch = reg.epoch();
  w->num_relations = reg.num_relations();
  w->num_edges = reg.num_edges();
  for (int r = 0; r < w->num_relations; ++r) {
    w->base_rows.push_back(reg.base_rows(r));
    w->local_sel.push_back(reg.local_selectivity(r));
    w->row_width.push_back(reg.row_width(r));
    w->scan_mult.push_back(reg.scan_cost_multiplier(r));
  }
  for (int e = 0; e < w->num_edges; ++e) w->join_sel.push_back(reg.join_selectivity(e));
}

}  // namespace

const Shape* FindShape(const std::string& name) {
  for (const Shape& s : Shapes()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Workload::Workload(const Shape& shape, uint64_t seed) : shape_(shape) {
  const auto& sets = iqro::testing::ScenarioOptionSets();
  iqro::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5851F42D4C957F2Dull);
  const QuerySpec query = shape_.tpch ? TpchQ5() : ChainQuery();
  worlds_.resize(static_cast<size_t>(shape_.worlds));
  for (int w = 0; w < shape_.worlds; ++w) {
    World& world = worlds_[static_cast<size_t>(w)];
    world.key = 1000 + static_cast<uint64_t>(w);
    world.query = query;
    if (shape_.tpch) {
      world.catalog.use_tpch = true;
    } else {
      world.catalog = ChainCatalog(rng);
    }
    // Configs cycle through the option-set vocabulary.
    for (int k = 0; k < shape_.configs; ++k) {
      world.options.push_back(sets[static_cast<size_t>(k) % sets.size()].first);
    }
    // Every TPC-H world starts from the same statistics.
    if (shape_.tpch && w > 0) {
      const World& first = worlds_[0];
      world.initial_epoch = first.initial_epoch;
      world.num_relations = first.num_relations;
      world.num_edges = first.num_edges;
      world.base_rows = first.base_rows;
      world.local_sel = first.local_sel;
      world.row_width = first.row_width;
      world.scan_mult = first.scan_mult;
      world.join_sel = first.join_sel;
    } else {
      ReadInitialStats(&world);
    }
    rngs_.emplace_back(rng.Next());
  }
  batches_drawn_.assign(worlds_.size(), 0);
  current_.resize(worlds_.size());
  mutations_drawn_.assign(worlds_.size(), 0);
  net_zero_drawn_.assign(worlds_.size(), 0);
}

Batch Workload::NextBatch(int w, bool* absorbed) {
  Batch batch = shape_.tpch ? StreamBatch(w) : SwingBatch(w);
  const World& world = worlds_[static_cast<size_t>(w)];
  auto& current = current_[static_cast<size_t>(w)];
  auto initial = [&world](const StatMutation& m) {
    const size_t t = static_cast<size_t>(m.target);
    switch (m.kind) {
      case Kind::kBaseRows: return world.base_rows[t];
      case Kind::kLocalSelectivity: return world.local_sel[t];
      case Kind::kRowWidth: return world.row_width[t];
      case Kind::kScanCost: return world.scan_mult[t];
      case Kind::kJoinSelectivity: return world.join_sel[t];
      case Kind::kCardMultiplier: break;
    }
    return 1.0;
  };
  std::map<std::pair<int, int>, double> before;
  for (const StatMutation& m : batch) {
    const std::pair<int, int> key{static_cast<int>(m.kind), m.target};
    auto it = current.find(key);
    const double value = it != current.end() ? it->second : initial(m);
    before.emplace(key, value);
    current[key] = m.value;
  }
  size_t unchanged = 0;
  for (const auto& [key, value] : before) {
    if (current[key] != value) continue;
    ++unchanged;
    for (const StatMutation& m : batch) {
      if (std::pair<int, int>{static_cast<int>(m.kind), m.target} == key) {
        ++net_zero_drawn_[static_cast<size_t>(w)];
      }
    }
  }
  mutations_drawn_[static_cast<size_t>(w)] += static_cast<int64_t>(batch.size());
  *absorbed = unchanged == before.size();
  return batch;
}

// Alternating high/low swings of base rows and selectivities, orders of
// magnitude apart, so the cheapest join order flips on every batch. The
// jitter keeps every value fresh: no batch nets to zero against an earlier
// one.
Batch Workload::SwingBatch(int w) {
  iqro::Rng& rng = rngs_[static_cast<size_t>(w)];
  const bool hi = batches_drawn_[static_cast<size_t>(w)]++ % 2 == 0;
  auto jitter = [&rng] { return 1.0 + 0.25 * rng.NextDouble(); };
  Batch batch;
  batch.push_back({Kind::kBaseRows, 0, 0, hi ? 5e6 * jitter() : 20.0 * jitter()});
  batch.push_back({Kind::kJoinSelectivity, 0, 0, hi ? 1e-4 * jitter() : 0.6 * jitter()});
  batch.push_back({Kind::kBaseRows, 2, 0, hi ? 4e5 * jitter() : 800.0 * jitter()});
  batch.push_back({Kind::kLocalSelectivity, 3, 0, hi ? 0.05 * jitter() : 0.7 * jitter()});
  return batch;
}

// Eight mutations: four moderate moves (within a factor of about three) of
// base rows, selectivities and scan costs, the drift a statistics stream
// reports, and two row-width bumps that the same batch reverts (the
// net-zero half, which coalescing must absorb). Every mutation changes its
// statistic's current value, so each bumps the registry epoch by exactly
// one — the open-loop generator relies on that to tell which plan-change
// event reflects which batch.
Batch Workload::StreamBatch(int w) {
  iqro::Rng& rng = rngs_[static_cast<size_t>(w)];
  const World& world = worlds_[static_cast<size_t>(w)];
  ++batches_drawn_[static_cast<size_t>(w)];
  auto real = [&]() -> StatMutation {
    const double u = rng.NextDouble();
    const int rel = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(world.num_relations)));
    switch (rng.NextBelow(4)) {
      case 0:
        return {Kind::kBaseRows, rel, 0, world.base_rows[rel] * std::pow(10.0, u - 0.5)};
      case 1:
        return {Kind::kLocalSelectivity, rel, 0, world.local_sel[rel] * (0.5 + 0.5 * u)};
      case 2: {
        const int e = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(world.num_edges)));
        return {Kind::kJoinSelectivity, e, 0, world.join_sel[e] * (0.5 + u)};
      }
      default:
        return {Kind::kScanCost, rel, 0, std::pow(10.0, u - 0.5)};
    }
  };
  const int n = world.num_relations;
  const int a = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n)));
  const int b = (a + 1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n - 1)))) % n;
  // The first move always rescales the largest relation, which every plan
  // joins, so nearly every flush changes the queries' plans and pushes
  // plan-change events to time; moves on small relations alone often
  // change no plan.
  const int largest = static_cast<int>(
      std::max_element(world.base_rows.begin(), world.base_rows.end()) - world.base_rows.begin());
  Batch batch;
  batch.push_back({Kind::kBaseRows, largest, 0,
                   world.base_rows[largest] * std::pow(10.0, rng.NextDouble() - 0.5)});
  batch.push_back({Kind::kRowWidth, a, 0, world.row_width[a] * 2.5});
  batch.push_back(real());
  batch.push_back({Kind::kRowWidth, b, 0, world.row_width[b] * 2.5});
  batch.push_back(real());
  batch.push_back({Kind::kRowWidth, a, 0, world.row_width[a]});
  batch.push_back(real());
  batch.push_back({Kind::kRowWidth, b, 0, world.row_width[b]});
  return batch;
}

double Workload::DuplicateRegistrationShare() const {
  size_t total = 0;
  size_t distinct = 0;
  for (const World& w : worlds_) {
    total += w.options.size();
    distinct += std::set<std::string>(w.options.begin(), w.options.end()).size();
  }
  return total == 0 ? 0 : 1.0 - static_cast<double>(distinct) / static_cast<double>(total);
}

double Workload::NetZeroMutationShare() const {
  int64_t total = 0;
  int64_t net_zero = 0;
  for (size_t w = 0; w < worlds_.size(); ++w) {
    total += mutations_drawn_[w];
    net_zero += net_zero_drawn_[w];
  }
  return total == 0 ? 0 : static_cast<double>(net_zero) / static_cast<double>(total);
}

}  // namespace perfbench
