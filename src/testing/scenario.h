// Scenario: a self-contained, replayable (catalog, query, optimizer-config,
// stat-churn) tuple — the unit of work of the randomized differential
// harness. Every field is explicit data (no hidden RNG state), so a failing
// scenario can be shrunk by deleting parts of it and re-run byte-for-byte.
//
// The harness proves the paper's central claim (§4): after any sequence of
// statistics updates, Reoptimize() lands in exactly the state a fresh
// DeclarativeOptimizer::Optimize() computes under the new statistics.
#ifndef IQRO_TESTING_SCENARIO_H_
#define IQRO_TESTING_SCENARIO_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/optimizer_options.h"
#include "cost/cost_model.h"
#include "enumerate/plan_enumerator.h"
#include "query/join_graph.h"
#include "query/query_spec.h"
#include "stats/stats_registry.h"
#include "stats/summary.h"
#include "stats/table_stats.h"

namespace iqro::testing {

/// Synthetic column description; a histogram is synthesized from `hist_seed`
/// samples uniform in [min, max], so local-predicate selectivities are
/// estimated through the real Histogram code path.
struct SyntheticColumnSpec {
  int64_t min = 0;
  int64_t max = 0;
  double ndv = 1;
};

struct SyntheticTableSpec {
  std::string name;
  double rows = 1;
  double width = 1;
  std::vector<SyntheticColumnSpec> cols;
  uint32_t indexed_cols = 0;  // bitmask over columns
  int clustered_on = -1;
  uint64_t hist_seed = 0;
};

/// Either a list of synthetic tables or the shared TPC-H catalog.
struct CatalogSpec {
  bool use_tpch = false;
  std::vector<SyntheticTableSpec> tables;  // synthetic mode only
};

/// One statistics mutation with an *absolute* target value: replay does not
/// depend on the registry's current contents, so the shrinker can delete
/// earlier mutations without changing the meaning of later ones.
struct StatMutation {
  enum class Kind : uint8_t {
    kBaseRows,          // target = relation slot
    kLocalSelectivity,  // target = relation slot
    kRowWidth,          // target = relation slot
    kScanCost,          // target = relation slot
    kJoinSelectivity,   // target = edge id (query.joins order)
    kCardMultiplier,    // scope = expression; value 1 removes the override
  };
  Kind kind = Kind::kBaseRows;
  int target = 0;
  RelSet scope = 0;
  double value = 0;
};

const char* StatMutationKindName(StatMutation::Kind k);

/// One batch of mutations applied before a single Reoptimize() call.
struct ChurnStep {
  std::vector<StatMutation> mutations;
};

struct Scenario {
  uint64_t seed = 0;  // generator seed; printed with every failure
  CatalogSpec catalog;
  QuerySpec query;
  std::string options_name;
  OptimizerOptions options;
  std::vector<ChurnStep> churn;
};

/// A fully wired optimization context for one scenario. The catalog is
/// owned for synthetic scenarios and borrowed for TPC-H ones.
struct ScenarioWorld {
  const Catalog* catalog = nullptr;
  std::unique_ptr<Catalog> owned_catalog;
  std::unique_ptr<JoinGraph> graph;
  StatsRegistry registry;
  std::unique_ptr<SummaryCalculator> summaries;
  std::unique_ptr<CostModel> cost_model;
  PropTable props;
  std::unique_ptr<PlanEnumerator> enumerator;
};

/// The TPC-H catalog + collected statistics shared by every TPC-H-mode
/// scenario (built once per process; scale 0.002).
struct TpchFixture {
  Catalog catalog;
  std::vector<TableStats> stats;
};
const TpchFixture& SharedTpchFixture();

/// Builds per-table statistics for a synthetic table spec (real histograms
/// over sampled values; no rows are materialized).
TableStats MakeSyntheticTableStats(const SyntheticTableSpec& spec);

/// Binds the scenario's initial statistics (synthetic or TPC-H) into
/// `registry` without wiring the rest of a world; does not freeze. Used by
/// churn generation, which needs only graph + statistics.
void BindScenarioStats(const Scenario& scenario, StatsRegistry* registry);

/// The named optimizer configurations a scenario (or a reoptd registration)
/// may draw: the paper's evaluated pruning levels plus the FIFO discipline.
const std::vector<std::pair<std::string, OptimizerOptions>>& ScenarioOptionSets();

/// Wires catalog, join graph, bound statistics (frozen), cost model and
/// enumerator for `scenario`. Deterministic: two calls produce worlds with
/// identical statistics and plan spaces.
std::unique_ptr<ScenarioWorld> BuildScenarioWorld(const Scenario& scenario);

/// Applies one recorded mutation to a (frozen) registry.
void ApplyMutation(StatsRegistry* registry, const StatMutation& m);

/// Applies every mutation of churn steps [0, n_steps) in order.
void ApplyChurnPrefix(StatsRegistry* registry, const Scenario& scenario, size_t n_steps);

/// Human-readable rendering: seed, options, catalog, query, churn — the
/// repro block printed with every failure report.
std::string ScenarioToString(const Scenario& scenario);

}  // namespace iqro::testing

#endif  // IQRO_TESTING_SCENARIO_H_
