#include "testing/scenario.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "query/bind_stats.h"
#include "workload/context.h"
#include "workload/tpch_gen.h"

namespace iqro::testing {

const char* StatMutationKindName(StatMutation::Kind k) {
  switch (k) {
    case StatMutation::Kind::kBaseRows:
      return "base_rows";
    case StatMutation::Kind::kLocalSelectivity:
      return "local_sel";
    case StatMutation::Kind::kRowWidth:
      return "row_width";
    case StatMutation::Kind::kScanCost:
      return "scan_cost";
    case StatMutation::Kind::kJoinSelectivity:
      return "join_sel";
    case StatMutation::Kind::kCardMultiplier:
      return "card_mult";
  }
  return "?";
}

const TpchFixture& SharedTpchFixture() {
  static const TpchFixture* fixture = [] {
    auto* f = new TpchFixture();
    TpchConfig cfg;
    cfg.scale_factor = 0.002;
    GenerateTpch(&f->catalog, cfg);
    f->stats = CollectCatalogStats(f->catalog);
    return f;
  }();
  return *fixture;
}

TableStats MakeSyntheticTableStats(const SyntheticTableSpec& spec) {
  TableStats ts;
  ts.rows = spec.rows;
  ts.row_width = spec.width;
  ts.columns.resize(spec.cols.size());
  Rng rng(spec.hist_seed);
  for (size_t c = 0; c < spec.cols.size(); ++c) {
    const SyntheticColumnSpec& cs = spec.cols[c];
    ColumnStats& out = ts.columns[c];
    out.min = cs.min;
    out.max = cs.max;
    out.ndv = std::min(cs.ndv, spec.rows);
    // Sample a small value population and build a real equi-depth histogram
    // so predicate selectivities flow through the production estimator.
    const size_t samples = static_cast<size_t>(std::min(256.0, std::max(1.0, spec.rows)));
    std::vector<int64_t> values(samples);
    const uint64_t domain = static_cast<uint64_t>(cs.max - cs.min) + 1;
    for (size_t i = 0; i < samples; ++i) {
      values[i] = cs.min + static_cast<int64_t>(rng.NextBelow(domain));
    }
    out.histogram = Histogram::Build(values, 16);
  }
  return ts;
}

void BindScenarioStats(const Scenario& scenario, StatsRegistry* registry) {
  if (scenario.catalog.use_tpch) {
    BindStats(scenario.query, SharedTpchFixture().stats, registry);
    return;
  }
  std::vector<TableStats> stats;
  stats.reserve(scenario.catalog.tables.size());
  for (const SyntheticTableSpec& t : scenario.catalog.tables) {
    stats.push_back(MakeSyntheticTableStats(t));
  }
  BindStats(scenario.query, stats, registry);
}

const std::vector<std::pair<std::string, OptimizerOptions>>& ScenarioOptionSets() {
  static const auto* sets = [] {
    auto* s = new std::vector<std::pair<std::string, OptimizerOptions>>{
        {"all", OptimizerOptions::Default()},
        {"aggsel", OptimizerOptions::UseAggSel()},
        {"aggsel+refcount", OptimizerOptions::UseAggSelRefCount()},
        {"aggsel+bounding", OptimizerOptions::UseAggSelBounding()},
        {"evita", OptimizerOptions::UseEvitaRaced()},
        {"nopruning", OptimizerOptions::UseNoPruning()},
    };
    OptimizerOptions fifo = OptimizerOptions::Default();
    fifo.discipline = QueueDiscipline::kFifo;
    s->emplace_back("all-fifo", fifo);
    return s;
  }();
  return *sets;
}

std::unique_ptr<ScenarioWorld> BuildScenarioWorld(const Scenario& scenario) {
  auto world = std::make_unique<ScenarioWorld>();
  if (scenario.catalog.use_tpch) {
    world->catalog = &SharedTpchFixture().catalog;
  } else {
    world->owned_catalog = std::make_unique<Catalog>();
    for (const SyntheticTableSpec& t : scenario.catalog.tables) {
      Schema schema;
      schema.name = t.name;
      for (size_t c = 0; c < t.cols.size(); ++c) {
        schema.columns.push_back({StrFormat("c%zu", c), ColumnType::kInt});
      }
      TableId id = world->owned_catalog->CreateTable(schema);
      Table& table = world->owned_catalog->table(id);
      for (size_t c = 0; c < t.cols.size(); ++c) {
        if ((t.indexed_cols >> c) & 1) table.BuildIndex(static_cast<int>(c));
      }
      if (t.clustered_on >= 0) table.SetClusteredOn(t.clustered_on);
    }
    world->catalog = world->owned_catalog.get();
  }
  world->graph = std::make_unique<JoinGraph>(scenario.query);
  BindScenarioStats(scenario, &world->registry);
  world->registry.Freeze();
  world->summaries = std::make_unique<SummaryCalculator>(&world->registry);
  world->cost_model = std::make_unique<CostModel>(world->summaries.get());
  world->enumerator = std::make_unique<PlanEnumerator>(&scenario.query, world->graph.get(),
                                                       world->catalog, &world->props);
  return world;
}

void ApplyMutation(StatsRegistry* registry, const StatMutation& m) {
  switch (m.kind) {
    case StatMutation::Kind::kBaseRows:
      registry->SetBaseRows(m.target, m.value);
      break;
    case StatMutation::Kind::kLocalSelectivity:
      registry->SetLocalSelectivity(m.target, m.value);
      break;
    case StatMutation::Kind::kRowWidth:
      registry->SetRowWidth(m.target, m.value);
      break;
    case StatMutation::Kind::kScanCost:
      registry->SetScanCostMultiplier(m.target, m.value);
      break;
    case StatMutation::Kind::kJoinSelectivity:
      registry->SetJoinSelectivity(m.target, m.value);
      break;
    case StatMutation::Kind::kCardMultiplier:
      registry->SetCardMultiplier(m.scope, m.value);
      break;
  }
}

void ApplyChurnPrefix(StatsRegistry* registry, const Scenario& scenario, size_t n_steps) {
  IQRO_CHECK(n_steps <= scenario.churn.size());
  for (size_t s = 0; s < n_steps; ++s) {
    for (const StatMutation& m : scenario.churn[s].mutations) ApplyMutation(registry, m);
  }
}

namespace {

std::string WindowToString(const WindowSpec& w) {
  switch (w.kind) {
    case WindowSpec::Kind::kNone:
      return "";
    case WindowSpec::Kind::kTime:
      return StrFormat(" [size %lld time]", static_cast<long long>(w.size));
    case WindowSpec::Kind::kTuples:
      return StrFormat(" [size %lld tuple part=%d]", static_cast<long long>(w.size),
                       w.partition_col);
  }
  return "";
}

}  // namespace

std::string ScenarioToString(const Scenario& sc) {
  std::string out = StrFormat("scenario seed=%llu options=%s catalog=%s\n",
                              static_cast<unsigned long long>(sc.seed),
                              sc.options_name.c_str(),
                              sc.catalog.use_tpch ? "tpch" : "synthetic");
  if (!sc.catalog.use_tpch) {
    for (const SyntheticTableSpec& t : sc.catalog.tables) {
      std::string cols;
      for (const SyntheticColumnSpec& c : t.cols) {
        cols += StrFormat(" [%lld,%lld]ndv=%s", static_cast<long long>(c.min),
                          static_cast<long long>(c.max), DoubleToString(c.ndv).c_str());
      }
      out += StrFormat("  table %s rows=%s width=%s idx=%#x clust=%d%s\n", t.name.c_str(),
                       DoubleToString(t.rows).c_str(), DoubleToString(t.width).c_str(),
                       t.indexed_cols, t.clustered_on, cols.c_str());
    }
  }
  out += StrFormat("  query %s\n", sc.query.name.c_str());
  for (int r = 0; r < sc.query.num_relations(); ++r) {
    const QueryRelation& qr = sc.query.relations[static_cast<size_t>(r)];
    out += StrFormat("    r%d = table#%d %s%s\n", r, qr.table, qr.alias.c_str(),
                     WindowToString(qr.window).c_str());
  }
  for (const JoinPredicate& j : sc.query.joins) {
    out += StrFormat("    join r%d.c%d %s r%d.c%d\n", j.left_rel, j.left_col,
                     PredOpName(j.op), j.right_rel, j.right_col);
  }
  for (const LocalPredicate& p : sc.query.locals) {
    out += StrFormat("    local r%d.c%d %s %lld", p.rel, p.col, PredOpName(p.op),
                     static_cast<long long>(p.value));
    if (p.op == PredOp::kBetween) out += StrFormat(" and %lld", static_cast<long long>(p.value2));
    out += "\n";
  }
  if (sc.query.has_aggregation()) {
    out += StrFormat("    aggregation: %zu group-by cols, %zu aggregates\n",
                     sc.query.group_by.size(), sc.query.aggregates.size());
  }
  for (size_t s = 0; s < sc.churn.size(); ++s) {
    out += StrFormat("  step %zu:\n", s);
    for (const StatMutation& m : sc.churn[s].mutations) {
      if (m.kind == StatMutation::Kind::kCardMultiplier) {
        out += StrFormat("    %s scope=%s value=%s\n", StatMutationKindName(m.kind),
                         RelSetToString(m.scope).c_str(), DoubleToString(m.value).c_str());
      } else {
        out += StrFormat("    %s target=%d value=%s\n", StatMutationKindName(m.kind), m.target,
                         DoubleToString(m.value).c_str());
      }
    }
  }
  return out;
}

}  // namespace iqro::testing
