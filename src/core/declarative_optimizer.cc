#include "core/declarative_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <unordered_set>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/serialize.h"
#include "common/str_util.h"

namespace iqro {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

DeclarativeOptimizer::DeclarativeOptimizer(PlanEnumerator* enumerator,
                                           const CostModel* cost_model,
                                           StatsRegistry* registry, OptimizerOptions options)
    : enumerator_(enumerator),
      cost_model_(cost_model),
      registry_(registry),
      options_(options) {
  IQRO_CHECK(options_.Valid());
  memo_.Reserve(256);  // skip the first few rehashes of every optimization
}

DeclarativeOptimizer::~DeclarativeOptimizer() {
  // EPState nodes live in the arena, which releases memory without running
  // destructors; the vectors and aggregates inside each node own heap.
  for (EPState* ep : eps_in_order_) ep->~EPState();
}

// ---------------------------------------------------------------------------
// State access
// ---------------------------------------------------------------------------

DeclarativeOptimizer::EPState* DeclarativeOptimizer::GetOrCreateEP(RelSet expr, PropId prop) {
  ++metrics_.memo_probes;
  auto [slot, inserted] = memo_.TryEmplace(MakeEPKey(expr, prop), nullptr);
  if (!inserted) {
    ++metrics_.memo_hits;
    return *slot;
  }
  EPState* ep = arena_.New<EPState>();
  ep->expr = expr;
  ep->prop = prop;
  ep->id = static_cast<uint32_t>(eps_in_order_.size());
  ep->last_best = kInf;
  ep->last_bound = kInf;
  *slot = ep;
  eps_in_order_.push_back(ep);
  reopt_order_stale_ = true;
  ++memo_growth_gen_;
  return ep;
}

DeclarativeOptimizer::EPState* DeclarativeOptimizer::FindEP(RelSet expr, PropId prop) const {
  EPState* const* slot = memo_.Find(MakeEPKey(expr, prop));
  return slot == nullptr ? nullptr : *slot;
}

DeclarativeOptimizer::EPState* DeclarativeOptimizer::ChildEP(const AltState& alt,
                                                             int side) const {
  EPState* c = alt.child[side];
  IQRO_CHECK(c != nullptr);
  return c;
}

double DeclarativeOptimizer::CurrentBound(const EPState& ep) const {
  double best = ep.best_agg.empty() ? kInf : ep.best_agg.MinValue();
  double maxb = ep.parent_bounds.empty() ? kInf : ep.parent_bounds.MaxValue();
  return std::min(best, maxb);  // rule r4
}

double DeclarativeOptimizer::Threshold(const EPState& ep) const {
  if (!options_.use_agg_selection) return kInf;
  if (options_.use_bounding) return CurrentBound(ep);
  return ep.best_agg.empty() ? kInf : ep.best_agg.MinValue();
}

double DeclarativeOptimizer::LocalCost(const EPState& ep, const Alt& alt) const {
  switch (alt.logop) {
    case LogOp::kScan:
      return cost_model_->ScanCost(RelLowest(ep.expr), alt.phyop);
    case LogOp::kSort:
      return cost_model_->SortLocalCost(ep.expr);
    case LogOp::kJoin:
      return cost_model_->JoinLocalCost(alt.phyop, alt.lexpr, alt.rexpr);
  }
  IQRO_CHECK(false);
}

double DeclarativeOptimizer::CachedLocalCost(const EPState& ep, AltState& alt) const {
  const uint64_t epoch = registry_->epoch();
  if (alt.local_epoch != epoch) {
    alt.local_cost = LocalCost(ep, alt.def);
    alt.local_epoch = epoch;
  }
  return alt.local_cost;
}

void DeclarativeOptimizer::Touch(EPState* ep) {
  if (ep->touched_round != round_) {
    ep->touched_round = round_;
    ++metrics_.round_touched_eps;
  }
}

void DeclarativeOptimizer::Touch(EPState* ep, uint32_t alt_idx) {
  Touch(ep);
  AltState& a = ep->alts[alt_idx];
  if (a.touched_round != round_) {
    a.touched_round = round_;
    ++metrics_.round_touched_alts;
  }
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void DeclarativeOptimizer::Push(Task t) {
  ++metrics_.tasks_enqueued;
  queue_.push_back(t);
}

void DeclarativeOptimizer::ScheduleEnumerate(EPState* ep) {
  if (ep->enumerate_queued) {
    ++metrics_.tasks_deduped;
    return;
  }
  ep->enumerate_queued = true;
  Push({Task::Kind::kEnumerate, ep, 0});
}

void DeclarativeOptimizer::ScheduleDrive(EPState* ep, uint32_t alt_idx) {
  if (!ep->enumerated) return;  // will be driven by enumeration
  AltState& a = ep->alts[alt_idx];
  if (a.drive_queued) {
    ++metrics_.tasks_deduped;
    return;
  }
  a.drive_queued = true;
  Push({Task::Kind::kDrive, ep, alt_idx});
}

void DeclarativeOptimizer::ScheduleBestDirty(EPState* ep) {
  if (ep->best_dirty) {
    ++metrics_.tasks_deduped;
    return;
  }
  ep->best_dirty = true;
  Push({Task::Kind::kBestDirty, ep, 0});
}

void DeclarativeOptimizer::ScheduleBoundDirty(EPState* ep) {
  if (!options_.use_bounding) return;
  if (ep->bound_dirty) {
    ++metrics_.tasks_deduped;
    return;
  }
  ep->bound_dirty = true;
  Push({Task::Kind::kBoundDirty, ep, 0});
}

void DeclarativeOptimizer::Drain() {
  const bool lifo = options_.discipline == QueueDiscipline::kLifo;
  while (!queue_.empty()) {
    ++metrics_.steps;
    ++metrics_.round_steps;
    IQRO_CHECK(metrics_.steps < static_cast<int64_t>(options_.max_steps));
    if (work_budget_ > 0 && metrics_.round_steps > work_budget_) {
      throw WorkBudgetExceeded(work_budget_, metrics_.round_steps);
    }
    IQRO_FAULT_POINT("reopt.fixpoint");
    Task t = lifo ? queue_.pop_back() : queue_.pop_front();
    switch (t.kind) {
      case Task::Kind::kEnumerate:
        RunEnumerate(t.ep);
        break;
      case Task::Kind::kDrive:
        RunDrive(t.ep, t.alt_idx);
        break;
      case Task::Kind::kBestDirty:
        RunBestDirty(t.ep);
        break;
      case Task::Kind::kBoundDirty:
        RunBoundDirty(t.ep);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

void DeclarativeOptimizer::Optimize() {
  if (optimized_) return;
  try {
    OptimizeImpl();
  } catch (...) {
    TearDown();  // all-or-nothing: no partial fixpoint survives a throw
    throw;
  }
}

void DeclarativeOptimizer::OptimizeImpl() {
  optimized_ = true;
  stats_epoch_ = registry_->epoch();
  ++round_;
  metrics_.BeginRound();
  root_ = GetOrCreateEP(EPExpr(enumerator_->RootKey()), EPProp(enumerator_->RootKey()));
  RefUp(root_);  // the query itself holds one virtual reference on the root
  Drain();
  UpdatePeakMemoBytes();
}

void DeclarativeOptimizer::RebuildFromScratch() {
  IQRO_FAULT_POINT("reopt.rebuild");
  TearDown();
  Optimize();
}

void DeclarativeOptimizer::TearDown() {
  for (EPState* ep : eps_in_order_) ep->~EPState();
  eps_in_order_.clear();
  memo_.Clear();
  queue_.clear();
  arena_.Reset();
  reopt_order_.clear();
  reopt_order_stale_ = false;
  per_ep_walk_key_ = -1;
  per_ep_vector_bytes_cache_ = 0;
  agg_entries_ = 0;
  root_ = nullptr;
  optimized_ = false;
  stats_epoch_ = 0;
  work_budget_ = 0;
  // metrics_ is cumulative across the rebuild (counters are lifetime
  // totals); round_ keeps advancing so touched_round stamps stay unique.
}

void DeclarativeOptimizer::Reoptimize() {
  StatsRegistry::DrainedBatch batch = registry_->TakePendingBatch();
  ReoptimizeBatch(batch.changes, batch.epoch);
}

void DeclarativeOptimizer::AttachSharedSummaryCache(SummarySharedCache* shared) {
  // Sharing is sound only across calculators over one registry: a Summary
  // is a pure function of registry state (and the epoch keys the store).
  IQRO_CHECK(&cost_model_->summaries().registry() == registry_);
  cost_model_->summaries().AttachSharedCache(shared);
}

int64_t DeclarativeOptimizer::ReoptimizeBatch(const std::vector<StatChange>& changes,
                                              uint64_t stats_epoch, int64_t work_budget) {
  try {
    return ReoptimizeBatchImpl(changes, stats_epoch, work_budget);
  } catch (...) {
    TearDown();  // all-or-nothing: no partial fixpoint survives a throw
    throw;
  }
}

int64_t DeclarativeOptimizer::ReoptimizeBatchImpl(const std::vector<StatChange>& changes,
                                                  uint64_t stats_epoch, int64_t work_budget) {
  IQRO_CHECK(optimized_);
  work_budget_ = work_budget;
  // `changes` is (the net of) everything since the last drain, so the
  // post-fixpoint state reflects the drained epoch — passed in by a flush
  // dispatcher, or read live when the caller owns the registry's thread.
  stats_epoch_ = stats_epoch != 0 ? stats_epoch : registry_->epoch();
  // An empty batch still opens a (trivial) round: the per-round touched
  // counters must read 0 after it, not the previous round's values.
  ++round_;
  metrics_.BeginRound();
  if (changes.empty()) {
    work_budget_ = 0;
    return 0;
  }

  // Seed every enumerated pair the batch affects. A cardinality change
  // affects every EP whose expression contains its scope; a scan-cost
  // change's scope is the base relation's singleton, and only that
  // expression's own property groups recompute. One presorted pass over the
  // memo finds them: a union-mask test rejects pairs no change can touch,
  // and the per-change test decides the rest, so an EP matched by several
  // changes is seeded once. The pass is O(memo), but on the benchmark
  // workloads seeding is a few percent of a pass (the rest is Drain()).
  // Seed deltas bottom-up: children settle before parents, and the
  // (expr, none) entry of an expression precedes its (expr, sorted(..))
  // variants, whose sort enforcers reference it. Every ancestor of an
  // affected pair is itself affected (its expression is a superset), so a
  // single ascending pass evicts collected state before the live state
  // referencing it is re-driven. reopt_order_ holds the memo in that
  // (|expr|, prop != none, insertion id) total order, rebuilt lazily on
  // memo growth so a pass pays no per-flush sort; the order also fixes
  // fault-point ordinals and differential traces.
  if (reopt_order_stale_) {
    reopt_order_ = eps_in_order_;
    std::sort(reopt_order_.begin(), reopt_order_.end(), SeedOrderLess);
    reopt_order_stale_ = false;
  }
  RelSet union_mask = 0;
  for (const StatChange& c : changes) union_mask |= c.scope;
  int64_t seeded = 0;
  for (EPState* ep : reopt_order_) {
    if ((ep->expr & union_mask) == 0 || !ep->enumerated) continue;
    bool affected = false;
    for (const StatChange& c : changes) {
      affected = c.kind == StatChange::Kind::kCardinality ? RelIsSubset(c.scope, ep->expr)
                                                          : ep->expr == c.scope;
      if (affected) break;
    }
    if (!affected) continue;
    ++seeded;
    IQRO_FAULT_POINT("reopt.seed");
    if (!Live(*ep)) {
      // Garbage-collected state that the update would invalidate: evict it
      // now (§3.2 + §4 — pruned state is re-derived only if re-referenced).
      Evict(ep);
      continue;
    }
    for (uint32_t i = 0; i < ep->alts.size(); ++i) ScheduleDrive(ep, i);
  }
  Drain();
  work_budget_ = 0;
  UpdatePeakMemoBytes();  // O(1) unless this round enumerated new state
  return seeded;
}

RelSet DeclarativeOptimizer::RootRelations() const {
  return EPExpr(enumerator_->RootKey());
}

// ---------------------------------------------------------------------------
// Task bodies
// ---------------------------------------------------------------------------

void DeclarativeOptimizer::RunEnumerate(EPState* ep) {
  ep->enumerate_queued = false;
  if (!ep->enumerated) {
    ep->enumerated = true;
    ++metrics_.eps_enumerated;
    Touch(ep);
    const std::vector<Alt>& alts = enumerator_->Split(ep->expr, ep->prop);
    IQRO_CHECK(!alts.empty());  // every demanded (expr, prop) has an alternative
    ep->alts.reserve(alts.size());
    for (uint32_t i = 0; i < alts.size(); ++i) {
      AltState a;
      a.def = alts[i];
      ep->alts.push_back(a);
      ++metrics_.alts_created;
      // Register permanent parent links (delta propagation and bounds) on
      // the children; creation does not derive them.
      for (int s = 0; s < a.def.NumChildren(); ++s) {
        EPState* c = s == 0 ? GetOrCreateEP(a.def.lexpr, a.def.lprop)
                            : GetOrCreateEP(a.def.rexpr, a.def.rprop);
        ep->alts[i].child[s] = c;
        c->parents.push_back({ep, i, static_cast<uint8_t>(s)});
      }
    }
    ++memo_growth_gen_;  // alt/parent vectors grew: per-EP bytes are stale
  }
  // Drive cheapest-local-cost alternatives first: "the sooner a min-cost
  // plan is encountered, the more effective the pruning is" (§3.1). With
  // the LIFO discipline the last-pushed task runs first, so push in
  // descending order of local cost. The sort runs on a member scratch
  // buffer with an explicit index tie-break — equivalent to a stable sort,
  // but std::sort neither allocates a merge buffer nor falls back to
  // merge passes, and RunEnumerate fires once per EP per round.
  std::vector<std::pair<double, uint32_t>>& order = enum_scratch_;
  order.resize(ep->alts.size());
  for (uint32_t i = 0; i < ep->alts.size(); ++i) {
    order[i] = {CachedLocalCost(*ep, ep->alts[i]), i};
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<double, uint32_t>& a, const std::pair<double, uint32_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  if (options_.discipline == QueueDiscipline::kFifo) {
    std::reverse(order.begin(), order.end());
  }
  for (const auto& [local, i] : order) ScheduleDrive(ep, i);
}

void DeclarativeOptimizer::RunDrive(EPState* ep, uint32_t alt_idx) {
  AltState& a = ep->alts[alt_idx];
  a.drive_queued = false;
  if (!ep->enumerated) return;
  // Dormant (evicted) state is not maintained; DemandChild or a reference
  // resurrection wakes it up first.
  if (ep->dormant) return;

  const int nch = a.def.NumChildren();
  const double local = CachedLocalCost(*ep, a);
  EPState* lc = nch >= 1 ? ChildEP(a, 0) : nullptr;
  EPState* rc = nch == 2 ? ChildEP(a, 1) : nullptr;
  // Cross-pair reads go through the child's *propagated* best (last_best),
  // never the raw aggregate: change detection dedups against the
  // propagated value, so reading it keeps "value seen" and "delta
  // delivered" consistent under any task order. A child's best is usable
  // even when its reference count is zero — collected state stays exact
  // until a statistics change evicts it.
  const bool l_known = lc != nullptr && std::isfinite(lc->last_best);
  const bool r_known = rc != nullptr && std::isfinite(rc->last_best);
  const double l_best = l_known ? lc->last_best : 0.0;
  const double r_best = r_known ? rc->last_best : 0.0;
  const bool full = (nch == 0) || (nch == 1 && l_known) || (nch == 2 && l_known && r_known);

  // ---- PlanCost maintenance (R6-R8): derivable tuples only ----
  if (full) {
    const double cost = CostModel::Sum(nch >= 1 ? l_best : 0.0, nch == 2 ? r_best : 0.0, local);
    ++metrics_.cost_computations;
    if (!a.ever_costed) {
      a.ever_costed = true;
      ++metrics_.alts_full_costed;
    }
    if (!a.cost_known || a.cost != cost) {
      a.cost_known = true;
      a.cost = cost;
      Touch(ep, alt_idx);
      // Set()/Erase() report min-entry movement, not insertion/removal:
      // detect entry-count changes by size for the exact aggregate counter
      // behind the peak-bytes estimate.
      const size_t agg_size = ep->best_agg.size();
      if (ep->best_agg.Set(alt_idx, cost)) ScheduleBestDirty(ep);
      agg_entries_ += static_cast<int64_t>(ep->best_agg.size() - agg_size);
    }
  } else if (a.cost_known) {
    // Cascading deletion: a supporting child's BestCost is gone.
    a.cost_known = false;
    Touch(ep, alt_idx);
    const size_t agg_size = ep->best_agg.size();
    if (ep->best_agg.Erase(alt_idx)) ScheduleBestDirty(ep);
    agg_entries_ -= static_cast<int64_t>(agg_size - ep->best_agg.size());
  }

  // ---- Aggregate selection (§3.1) / recursive bounding (§3.3) gate ----
  const double cert = full ? a.cost : local + l_best + r_best;
  const double thr = Threshold(*ep);
  bool viable = true;
  if (options_.use_agg_selection) {
    const auto min_entry = ep->best_agg.MinEntry();
    const bool is_min =
        a.cost_known && min_entry.second == alt_idx && min_entry.first == a.cost;
    viable = is_min || cert < thr;
  }
  if (!a.ever_won && a.cost_known) {
    const auto min_entry = ep->best_agg.MinEntry();
    if (min_entry.second == alt_idx && min_entry.first == a.cost) a.ever_won = true;
  }

  // ---- Exploration demand: staged descent, gated by the threshold ----
  // Exploration is monotone within a fixpoint run; it re-fires whenever a
  // child best drops or a threshold rises, which keeps every reachable
  // pair converging to its exact optimum regardless of task order.
  if (viable || !options_.use_source_suppression) {
    if (nch >= 1) DemandChild(lc);
    if (nch == 2) {
      const bool gate = !options_.use_source_suppression ||
                        (l_known && local + l_best < thr) || full;
      if (gate) DemandChild(rc);
    }
  }

  // ---- SearchSpace presence (tuple source suppression, §3.1/§4.1) ----
  // Presence transitions only apply to live pairs; collected pairs hold no
  // SearchSpace rows until re-referenced.
  if (Live(*ep)) {
    const bool want_active = options_.use_source_suppression ? viable : true;
    if (want_active && !a.active) {
      a.active = true;
      Touch(ep, alt_idx);
      if (a.ever_active) {
        ++metrics_.reintroductions;  // undoing tuple source suppression (§4.1)
      }
      a.ever_active = true;
      AltPresenceRefs(ep, alt_idx, +1);
    } else if (!want_active && a.active) {
      a.active = false;
      Touch(ep, alt_idx);
      ++metrics_.suppressions;
      RemoveAltContributions(ep, alt_idx);
      AltPresenceRefs(ep, alt_idx, -1);
    }
    if (options_.use_bounding && a.active) UpdateAltContributions(ep, alt_idx);
  }
}

void DeclarativeOptimizer::RunBestDirty(EPState* ep) {
  ep->best_dirty = false;
  const auto min_entry = ep->best_agg.MinEntry();
  const double best = ep->best_agg.empty() ? kInf : min_entry.first;
  const uint32_t best_idx = ep->best_agg.empty() ? kNoWinner : min_entry.second;
  if (best == ep->last_best) {
    if (best_idx != ep->last_best_idx) {
      // The winning *entry* moved between alternatives whose costs are
      // bit-identical (real ties happen: index scans cost the same over
      // every index). There is no BestCost delta to propagate, but
      // aggregate-selection viability keys on the winning entry, so the
      // group's rows must be re-checked or the new winner can stay
      // suppressed forever (found by the differential fuzzer, seed 280).
      ep->last_best_idx = best_idx;
      if (options_.use_agg_selection && !ep->dormant) {
        for (uint32_t i = 0; i < ep->alts.size(); ++i) ScheduleDrive(ep, i);
      }
    }
    return;
  }
  ep->last_best = best;
  ep->last_best_idx = best_idx;
  Touch(ep);
  // Propagate the BestCost delta to every registered parent alternative —
  // present or suppressed (a suppressed parent may become viable again).
  for (const ParentRef& pr : ep->parents) {
    ScheduleDrive(pr.ep, pr.alt_idx);
    // r1/r2: the sibling's bound contribution reads this best cost.
    if (options_.use_bounding && pr.ep->alts[pr.alt_idx].active) {
      UpdateAltContributions(pr.ep, pr.alt_idx);
    }
  }
  // The pair's own threshold moved: re-check viability of its alternatives.
  // This must include collected (dead) pairs — their cost state is kept
  // exact until eviction, and an alternative whose cost support vanished
  // (e.g. its child was evicted below a dead subtree) can only re-derive
  // through this re-check opening the demand gate. Gating on liveness here
  // left dead aggregates permanently incomplete and re-optimization stuck
  // above the true optimum (found by the differential fuzzer, seed 3014).
  // Dormant pairs stay asleep: RunDrive early-outs on them until a demand
  // resurrects the pair.
  if (options_.use_agg_selection && !ep->dormant) {
    for (uint32_t i = 0; i < ep->alts.size(); ++i) ScheduleDrive(ep, i);
  }
  if (options_.use_bounding) ScheduleBoundDirty(ep);  // r4
}

void DeclarativeOptimizer::RunBoundDirty(EPState* ep) {
  ep->bound_dirty = false;
  const double bound = CurrentBound(*ep);
  if (bound == ep->last_bound) return;
  ep->last_bound = bound;
  Touch(ep);
  // A raised bound may re-introduce previously pruned plans; a lowered
  // bound may prune previously viable ones (§4.3 cases 2 and 3).
  for (uint32_t i = 0; i < ep->alts.size(); ++i) ScheduleDrive(ep, i);
  // The bound feeds the ParentBound contributions of this pair's own
  // children (r1/r2), recursively.
  for (uint32_t i = 0; i < ep->alts.size(); ++i) {
    if (ep->alts[i].active) UpdateAltContributions(ep, i);
  }
}

// ---------------------------------------------------------------------------
// Alternative lifecycle
// ---------------------------------------------------------------------------

void DeclarativeOptimizer::DemandChild(EPState* child) {
  if (!child->enumerated) {
    ScheduleEnumerate(child);
    return;
  }
  if (child->dormant || child->best_agg.empty()) {
    // Evicted (or still-deriving) state: re-derive all of its
    // alternatives; the schedule flags make repeated demands cheap.
    child->dormant = false;
    for (uint32_t i = 0; i < child->alts.size(); ++i) ScheduleDrive(child, i);
  }
}

void DeclarativeOptimizer::AltPresenceRefs(EPState* ep, uint32_t alt_idx, int delta) {
  const AltState& a = ep->alts[alt_idx];
  for (int s = 0; s < a.def.NumChildren(); ++s) {
    EPState* c = ChildEP(a, s);
    if (delta > 0) {
      RefUp(c);
    } else {
      RefDown(c);
    }
  }
}

void DeclarativeOptimizer::RefUp(EPState* child) {
  ++child->refcount;
  if (child->refcount == 1) {
    ++metrics_.ep_activations;
    child->ever_live = true;
    child->dormant = false;
    ScheduleEnumerate(child);
    // Restore SearchSpace presence of a previously collected pair: its
    // alternatives re-evaluate viability on the scheduled drives.
    if (child->enumerated) {
      for (uint32_t i = 0; i < child->alts.size(); ++i) ScheduleDrive(child, i);
    }
  }
}

void DeclarativeOptimizer::RefDown(EPState* child) {
  IQRO_CHECK(child->refcount > 0);
  --child->refcount;
  if (child->refcount == 0 && options_.use_ref_counting) OnDeath(child);
}

void DeclarativeOptimizer::OnDeath(EPState* ep) {
  // §3.2: a zero reference count removes every plan of this pair from the
  // SearchSpace; the removal cascades through children's counts. The
  // associated cost state stays exact until a statistics change evicts it.
  ++metrics_.ep_gcs;
  Touch(ep);
  for (uint32_t i = 0; i < ep->alts.size(); ++i) {
    AltState& a = ep->alts[i];
    if (a.active) {
      a.active = false;  // silent: presence teardown, not a pruning decision
      RemoveAltContributions(ep, i);
      AltPresenceRefs(ep, i, -1);
    }
  }
}

void DeclarativeOptimizer::Evict(EPState* ep) {
  IQRO_CHECK(!Live(*ep));
  Touch(ep);
  ep->dormant = true;
  for (AltState& a : ep->alts) a.cost_known = false;
  agg_entries_ -= static_cast<int64_t>(ep->best_agg.size());
  ep->best_agg.Clear();
  // The deletion of this pair's BestCost cascades to every dependent
  // PlanCost tuple through the normal delta path.
  ScheduleBestDirty(ep);
  ScheduleBoundDirty(ep);
}

// ---------------------------------------------------------------------------
// Recursive bounding (rules r1-r4)
// ---------------------------------------------------------------------------

uint64_t DeclarativeOptimizer::ContributionKey(const EPState& parent, uint32_t alt_idx,
                                               int side) const {
  return (static_cast<uint64_t>(parent.id) << 24) | (static_cast<uint64_t>(alt_idx) << 1) |
         static_cast<uint64_t>(side);
}

void DeclarativeOptimizer::UpdateAltContributions(EPState* ep, uint32_t alt_idx) {
  AltState& a = ep->alts[alt_idx];
  if (!a.active) {
    RemoveAltContributions(ep, alt_idx);
    return;
  }
  const int nch = a.def.NumChildren();
  if (nch == 0) return;
  // Contributions derive from the *propagated* bound and sibling best, for
  // the same consistency reason as RunDrive's child reads.
  const double bound = ep->last_bound;
  const double local = CachedLocalCost(*ep, a);
  for (int s = 0; s < nch; ++s) {
    double contribution = kInf;
    if (std::isfinite(bound)) {
      double sibling_best = 0.0;  // unknown sibling: conservative (loosest)
      if (nch == 2) {
        EPState* sib = ChildEP(a, 1 - s);
        if (std::isfinite(sib->last_best)) sibling_best = sib->last_best;
      }
      contribution = bound - local - sibling_best;  // r1/r2
    }
    // Unchanged contributions skip the child's bound table entirely (the
    // Set would compare equal and return false); NaN marks "none pushed"
    // and compares unequal, forcing the initial Set.
    if (contribution == a.last_contrib[s]) continue;
    a.last_contrib[s] = contribution;
    EPState* child = ChildEP(a, s);
    const size_t agg_size = child->parent_bounds.size();
    if (child->parent_bounds.Set(ContributionKey(*ep, alt_idx, s), contribution)) {
      ScheduleBoundDirty(child);  // r3: MaxBound is the max of contributions
    }
    agg_entries_ += static_cast<int64_t>(child->parent_bounds.size() - agg_size);
  }
}

void DeclarativeOptimizer::RemoveAltContributions(EPState* ep, uint32_t alt_idx) {
  if (!options_.use_bounding) return;
  AltState& a = ep->alts[alt_idx];
  for (int s = 0; s < a.def.NumChildren(); ++s) {
    a.last_contrib[s] = kNoContribution;
    EPState* child = ChildEP(a, s);
    const size_t agg_size = child->parent_bounds.size();
    if (child->parent_bounds.Erase(ContributionKey(*ep, alt_idx, s))) {
      ScheduleBoundDirty(child);
    }
    agg_entries_ -= static_cast<int64_t>(agg_size - child->parent_bounds.size());
  }
}

// ---------------------------------------------------------------------------
// Results and inspection
// ---------------------------------------------------------------------------

namespace {
// ExtremeAgg entry estimate: a sorted-vector entry plus a flat-map slot per
// retained entry, at the tables' typical load factor.
constexpr size_t kAggEntryBytes = 40;
}  // namespace

size_t DeclarativeOptimizer::PerEpVectorBytes() const {
  size_t bytes = 0;
  for (const EPState* ep : eps_in_order_) {
    bytes += ep->alts.capacity() * sizeof(AltState);
    bytes += ep->parents.capacity() * sizeof(ParentRef);
  }
  return bytes;
}

size_t DeclarativeOptimizer::PerEpBytes() const {
  // Exact for the vectors; the ExtremeAgg contribution is an estimate. The
  // aggregate entries are re-counted from the memo here rather than read
  // from agg_entries_, so EstimatedMemoBytes() independently cross-checks
  // the incremental counter the peak metric relies on.
  size_t entries = 0;
  for (const EPState* ep : eps_in_order_) {
    entries += ep->best_agg.size() + ep->parent_bounds.size();
  }
  return PerEpVectorBytes() + entries * kAggEntryBytes;
}

size_t DeclarativeOptimizer::StructuralBytes() const {
  return arena_.bytes_reserved() + memo_.capacity_bytes() +
         eps_in_order_.capacity() * sizeof(EPState*) +
         reopt_order_.capacity() * sizeof(EPState*) + queue_.capacity_bytes();
}

void DeclarativeOptimizer::UpdatePeakMemoBytes() {
  // Sampled at the end of every (re)optimization round, O(1): the
  // structural terms are read fresh (they only grow, and the worklist's
  // high-water capacity is exactly what a seeding burst inflates), the
  // aggregate-entry term comes from the incrementally maintained exact
  // counter — so churn that refills aggregates on an already-enumerated
  // memo advances the peak — and the vector-capacity walk is cached, keyed
  // on memo_growth_gen_ (bumped only by the structural growth events: new
  // pairs and first-time enumerations).
  if (per_ep_walk_key_ != memo_growth_gen_) {
    per_ep_vector_bytes_cache_ = PerEpVectorBytes();
    per_ep_walk_key_ = memo_growth_gen_;
  }
  const int64_t bytes =
      static_cast<int64_t>(StructuralBytes() + per_ep_vector_bytes_cache_ +
                           static_cast<size_t>(agg_entries_) * kAggEntryBytes);
  if (bytes > metrics_.peak_memo_bytes) metrics_.peak_memo_bytes = bytes;
}

double DeclarativeOptimizer::BestCost() const {
  if (root_ == nullptr || root_->best_agg.empty()) return kInf;
  return root_->best_agg.MinValue();
}

std::unique_ptr<PlanTree> DeclarativeOptimizer::GetBestPlan() const {
  IQRO_CHECK(root_ != nullptr && !root_->best_agg.empty());
  AltChooser chooser = [this](RelSet expr, PropId prop) -> std::pair<Alt, double> {
    EPState* ep = FindEP(expr, prop);
    IQRO_CHECK(ep != nullptr && !ep->best_agg.empty());
    auto [cost, idx] = ep->best_agg.MinEntry();
    return {ep->alts[idx].def, cost};
  };
  return BuildPlanTree(root_->expr, root_->prop, chooser, cost_model_->summaries(),
                       enumerator_->props());
}

int64_t DeclarativeOptimizer::NumLiveEps() const {
  int64_t n = 0;
  for (const EPState* ep : eps_in_order_) {
    if (Live(*ep) && ep->enumerated) ++n;
  }
  return n;
}

int64_t DeclarativeOptimizer::NumActiveAlts() const {
  int64_t n = 0;
  for (const EPState* ep : eps_in_order_) {
    for (const AltState& a : ep->alts) {
      if (a.active) ++n;
    }
  }
  return n;
}

int64_t DeclarativeOptimizer::NumViableAlts() const {
  int64_t n = 0;
  for (const EPState* ep : eps_in_order_) {
    for (const AltState& a : ep->alts) {
      if (a.ever_won) ++n;
    }
  }
  return n;
}

int64_t DeclarativeOptimizer::NumCostedAlts() const {
  int64_t n = 0;
  for (const EPState* ep : eps_in_order_) {
    for (const AltState& a : ep->alts) {
      if (a.cost_known) ++n;
    }
  }
  return n;
}

std::string DeclarativeOptimizer::DumpState() const {
  std::string out;
  const QuerySpec& q = enumerator_->query();
  const PropTable& props = enumerator_->props();
  for (const EPState* ep : eps_in_order_) {
    if (!ep->enumerated) continue;
    out += StrFormat("EP %s %s live=%d ref=%d best=%s bound=%s\n",
                     RelSetToString(ep->expr).c_str(), props.ToString(ep->prop, &q).c_str(),
                     Live(*ep) ? 1 : 0, ep->refcount,
                     DoubleToString(ep->best_agg.empty() ? kInf : ep->best_agg.MinValue())
                         .c_str(),
                     DoubleToString(CurrentBound(*ep)).c_str());
    for (size_t i = 0; i < ep->alts.size(); ++i) {
      const AltState& a = ep->alts[i];
      out += StrFormat("  [%zu] %s %s l=%s r=%s active=%d cost=%s\n", i,
                       LogOpName(a.def.logop), PhysOpName(a.def.phyop),
                       RelSetToString(a.def.lexpr).c_str(), RelSetToString(a.def.rexpr).c_str(),
                       a.active ? 1 : 0,
                       a.cost_known ? DoubleToString(a.cost).c_str() : "?");
    }
  }
  return out;
}

std::string DeclarativeOptimizer::CanonicalDumpState() const {
  // Render-only walk: string callers (tests, oracles) skip the structured
  // ops/join-order views the service layer's notifications need.
  return ComputePlanDigestImpl(/*want_structured=*/false).canonical;
}

PlanDigest DeclarativeOptimizer::ComputePlanDigest() const {
  return ComputePlanDigestImpl(/*want_structured=*/true);
}

PlanDigest DeclarativeOptimizer::ComputePlanDigestImpl(bool want_structured) const {
  const QuerySpec& q = enumerator_->query();
  const PropTable& props = enumerator_->props();
  // Collect the winner closure: from the root, each pair contributes its
  // BestCost-winning alternative (deterministically tie-broken by the
  // aggregate's (value, alt-index) order) and recurses into that winner's
  // children. Nothing weaker is order-independent: bare SearchSpace
  // presence of a row whose cost support was pruned away persists until
  // suppression retracts it, and whether an *equal*-cost loser keeps a
  // derivable PlanCost depends on whether it was costed before or after
  // the threshold reached it (the paper's Proposition 5 assumes distinct
  // costs; real ties are decided by history). The winner closure — the DP
  // optimum's full substructure with exact values at every node — is the
  // state §4's equality claim pins down, so that is what the canonical
  // dump projects.
  std::vector<const EPState*> reach;
  std::unordered_set<const EPState*> seen;
  if (root_ != nullptr && root_->enumerated) {
    seen.insert(root_);
    reach.push_back(root_);
  }
  for (size_t i = 0; i < reach.size(); ++i) {
    const EPState* ep = reach[i];
    if (ep->best_agg.empty()) continue;
    const AltState& win = ep->alts[ep->best_agg.MinEntry().second];
    for (int s = 0; s < win.def.NumChildren(); ++s) {
      const EPState* c = ChildEP(win, s);
      if (c != nullptr && c->enumerated && seen.insert(c).second) reach.push_back(c);
    }
  }
  // Sort by resolved property content, not PropId: interning order depends
  // on exploration history and may differ between two optimizers.
  auto prop_key = [&](PropId id) {
    const Prop& p = props.Get(id);
    return std::tuple(static_cast<int>(p.kind), p.col.rel, p.col.col);
  };
  std::sort(reach.begin(), reach.end(), [&](const EPState* a, const EPState* b) {
    const int ca = RelCount(a->expr);
    const int cb = RelCount(b->expr);
    if (ca != cb) return ca < cb;
    if (a->expr != b->expr) return a->expr < b->expr;
    return prop_key(a->prop) < prop_key(b->prop);
  });
  PlanDigest digest;
  digest.best_cost = BestCost();
  if (want_structured) digest.ops.reserve(reach.size());
  for (const EPState* ep : reach) {
    PlanDigestOp op;
    op.expr = ep->expr;
    op.prop = props.ToString(ep->prop, &q);
    op.cost = ep->best_agg.empty() ? kInf : ep->best_agg.MinValue();
    digest.canonical += StrFormat("EP %s %s best=%s\n", RelSetToString(op.expr).c_str(),
                                  op.prop.c_str(), DoubleToString(op.cost).c_str());
    if (!ep->best_agg.empty()) {
      const AltState& a = ep->alts[ep->best_agg.MinEntry().second];
      op.has_win = true;
      op.logop = a.def.logop;
      op.phyop = a.def.phyop;
      std::string children;
      if (a.def.NumChildren() >= 1) {
        op.lexpr = a.def.lexpr;
        op.lprop = props.ToString(a.def.lprop, &q);
        children += StrFormat(" l=%s%s", RelSetToString(op.lexpr).c_str(), op.lprop.c_str());
      }
      if (a.def.NumChildren() == 2) {
        op.rexpr = a.def.rexpr;
        op.rprop = props.ToString(a.def.rprop, &q);
        children += StrFormat(" r=%s%s", RelSetToString(op.rexpr).c_str(), op.rprop.c_str());
      }
      digest.canonical +=
          StrFormat("  win %s %s%s cost=%s\n", LogOpName(a.def.logop), PhysOpName(a.def.phyop),
                    children.c_str(), DoubleToString(a.cost).c_str());
    }
    if (want_structured) digest.ops.push_back(std::move(op));
  }
  // Join order: the best plan's leaf slots in tree order (left before
  // right), following winners from the root — the executor-facing "which
  // pipelined prefix survived" view of the same closure.
  if (want_structured && root_ != nullptr && root_->enumerated && !root_->best_agg.empty()) {
    auto walk = [this](auto&& self, const EPState* ep, std::vector<int>& out) -> void {
      if (ep == nullptr || !ep->enumerated || ep->best_agg.empty()) return;
      const AltState& win = ep->alts[ep->best_agg.MinEntry().second];
      if (win.def.NumChildren() == 0) {
        out.push_back(RelLowest(ep->expr));
        return;
      }
      for (int s = 0; s < win.def.NumChildren(); ++s) {
        self(self, ChildEP(win, s), out);
      }
    };
    walk(walk, root_, digest.join_order);
  }
  return digest;
}

// ---------------------------------------------------------------------------
// Memo serialization (lifecycle seeds and service snapshots)
// ---------------------------------------------------------------------------
//
// Payload layout (version 1, common/serialize.h little-endian encoding):
//
//   u8  version
//   u8  options fingerprint (pruning toggles + queue discipline)
//   u32 root expr, root prop content        -- world identity check
//   u64 EP count
//   block 1, per EP in insertion order:
//     u32 expr; prop content (u8 kind, i32 rel, i32 col);
//     u8 flags (enumerated | ever_live<<1 | dormant<<2)
//   block 2, per *enumerated* EP in the same order:
//     u32 alt count (must match Split() in the restoring world)
//     per alt: u8 flags (active | cost_known<<1 | ever_costed<<2 |
//                        ever_active<<3 | ever_won<<4);
//              f64 cost (present iff cost_known);
//              f64 last_contrib[0], f64 last_contrib[1] (raw bits, NaN = none)
//   block 3, per EP in the same order:
//     u32 parent count; per parent: u32 parent id, u32 alt idx, u8 side
//
// Alternative *definitions* are not serialized: they are a pure function of
// the world (PlanEnumerator::Split is memoized and stable-ordered), so the
// restore re-derives them and cross-checks the count — a seed applied to
// the wrong world fails with a typed kMismatch instead of silently wiring
// a different plan space. Properties travel as content (kind + column), not
// PropId: interning order is history-dependent, so ids are re-interned on
// restore. Parent-link order IS serialized: it is the one piece of wiring
// whose order reflects execution history (enumeration order, not insertion
// order), and restoring it exactly makes the rebuilt memo byte-identical
// in every observable, not merely canonically equal.

namespace {
constexpr uint8_t kMemoSeedVersion = 1;
}  // namespace

namespace {
uint8_t OptionsFingerprint(const OptimizerOptions& o) {
  return static_cast<uint8_t>((o.use_agg_selection ? 1 : 0) |
                              (o.use_source_suppression ? 2 : 0) |
                              (o.use_ref_counting ? 4 : 0) | (o.use_bounding ? 8 : 0) |
                              (o.discipline == QueueDiscipline::kFifo ? 16 : 0));
}

void PutProp(ByteWriter& w, const Prop& p) {
  w.PutU8(static_cast<uint8_t>(p.kind));
  w.PutI32(p.col.rel);
  w.PutI32(p.col.col);
}

Prop GetProp(ByteReader& r) {
  const uint8_t kind = r.GetU8();
  if (kind > static_cast<uint8_t>(Prop::Kind::kIndexed)) {
    throw SerializeError(SerializeError::Code::kBadSection,
                         "memo seed: invalid property kind " + std::to_string(kind));
  }
  Prop p;
  p.kind = static_cast<Prop::Kind>(kind);
  p.col.rel = r.GetI32();
  p.col.col = r.GetI32();
  return p;
}
}  // namespace

void DeclarativeOptimizer::SerializeState(std::string* out) const {
  IQRO_CHECK(optimized_);
  const PropTable& props = enumerator_->props();
  ByteWriter w(out);
  w.PutU8(kMemoSeedVersion);
  w.PutU8(OptionsFingerprint(options_));
  const EPKey root_key = enumerator_->RootKey();
  w.PutU32(EPExpr(root_key));
  PutProp(w, props.Get(EPProp(root_key)));
  w.PutU64(eps_in_order_.size());
  for (const EPState* ep : eps_in_order_) {
    w.PutU32(ep->expr);
    PutProp(w, props.Get(ep->prop));
    w.PutU8(static_cast<uint8_t>((ep->enumerated ? 1 : 0) | (ep->ever_live ? 2 : 0) |
                                 (ep->dormant ? 4 : 0)));
  }
  for (const EPState* ep : eps_in_order_) {
    if (!ep->enumerated) continue;
    w.PutU32(static_cast<uint32_t>(ep->alts.size()));
    for (const AltState& a : ep->alts) {
      w.PutU8(static_cast<uint8_t>((a.active ? 1 : 0) | (a.cost_known ? 2 : 0) |
                                   (a.ever_costed ? 4 : 0) | (a.ever_active ? 8 : 0) |
                                   (a.ever_won ? 16 : 0)));
      // Only derivable costs travel: a stale `cost` value behind a false
      // cost_known is execution-history noise, and skipping it keeps the
      // seed a deterministic function of the logical state.
      if (a.cost_known) w.PutF64(a.cost);
      w.PutF64(a.last_contrib[0]);
      w.PutF64(a.last_contrib[1]);
    }
  }
  for (const EPState* ep : eps_in_order_) {
    w.PutU32(static_cast<uint32_t>(ep->parents.size()));
    for (const ParentRef& pr : ep->parents) {
      w.PutU32(pr.ep->id);
      w.PutU32(pr.alt_idx);
      w.PutU8(pr.side);
    }
  }
}

void DeclarativeOptimizer::RestoreState(const std::string& payload, uint64_t stats_epoch) {
  TearDown();
  try {
    ByteReader r(payload);
    const uint8_t version = r.GetU8();
    if (version != kMemoSeedVersion) {
      throw SerializeError(SerializeError::Code::kBadVersion,
                           "memo seed: version " + std::to_string(version) + " != " +
                               std::to_string(kMemoSeedVersion));
    }
    const uint8_t fp = r.GetU8();
    if (fp != OptionsFingerprint(options_)) {
      throw SerializeError(SerializeError::Code::kMismatch,
                           "memo seed: optimizer options fingerprint " + std::to_string(fp) +
                               " != " + std::to_string(OptionsFingerprint(options_)));
    }
    PropTable& props = enumerator_->mutable_props();
    const EPKey root_key = enumerator_->RootKey();
    const RelSet seed_root_expr = r.GetU32();
    const Prop seed_root_prop = GetProp(r);
    if (seed_root_expr != EPExpr(root_key) ||
        !(seed_root_prop == props.Get(EPProp(root_key)))) {
      throw SerializeError(SerializeError::Code::kMismatch,
                           "memo seed: root key does not match this query's world");
    }
    const uint64_t count = r.GetU64();

    // Pass 1: recreate every pair in insertion order — ids, the memo table
    // and eps_in_order_ all land exactly as serialized.
    for (uint64_t i = 0; i < count; ++i) {
      const RelSet expr = r.GetU32();
      const Prop prop = GetProp(r);
      const uint8_t flags = r.GetU8();
      EPState* ep = GetOrCreateEP(expr, props.Intern(prop));
      if (ep->id != static_cast<uint32_t>(i)) {
        throw SerializeError(SerializeError::Code::kBadSection,
                             "memo seed: duplicate (expr, prop) pair at record " +
                                 std::to_string(i));
      }
      ep->enumerated = (flags & 1) != 0;
      ep->ever_live = (flags & 2) != 0;
      ep->dormant = (flags & 4) != 0;
    }

    // Pass 2: re-derive alternative definitions from the world, wire child
    // pointers, and apply the serialized per-alternative state. The closure
    // property of RunEnumerate (every child of an enumerated alternative is
    // itself a memo pair) guarantees FindEP succeeds on a well-formed seed.
    for (EPState* ep : eps_in_order_) {
      if (!ep->enumerated) continue;
      const uint32_t nalts = r.GetU32();
      const std::vector<Alt>& defs = enumerator_->Split(ep->expr, ep->prop);
      if (nalts != defs.size()) {
        throw SerializeError(SerializeError::Code::kMismatch,
                             "memo seed: alternative count " + std::to_string(nalts) +
                                 " != enumerator's " + std::to_string(defs.size()));
      }
      ep->alts.reserve(nalts);
      for (uint32_t i = 0; i < nalts; ++i) {
        AltState a;
        a.def = defs[i];
        const uint8_t flags = r.GetU8();
        a.active = (flags & 1) != 0;
        a.cost_known = (flags & 2) != 0;
        a.ever_costed = (flags & 4) != 0;
        a.ever_active = (flags & 8) != 0;
        a.ever_won = (flags & 16) != 0;
        if (a.cost_known) a.cost = r.GetF64();
        a.last_contrib[0] = r.GetF64();
        a.last_contrib[1] = r.GetF64();
        for (int s = 0; s < a.def.NumChildren(); ++s) {
          EPState* c = s == 0 ? FindEP(a.def.lexpr, a.def.lprop)
                              : FindEP(a.def.rexpr, a.def.rprop);
          if (c == nullptr) {
            throw SerializeError(SerializeError::Code::kMismatch,
                                 "memo seed: child pair of an enumerated alternative "
                                 "is missing from the seed");
          }
          a.child[s] = c;
        }
        ep->alts.push_back(a);
        if (a.cost_known) {
          const size_t agg_size = ep->best_agg.size();
          ep->best_agg.Set(i, a.cost);
          agg_entries_ += static_cast<int64_t>(ep->best_agg.size() - agg_size);
        }
      }
      ++memo_growth_gen_;  // alt vectors grew, as in RunEnumerate
    }

    // Pass 3: parent links, in the serialized (execution-history) order,
    // each validated against the child wiring pass 2 produced.
    for (EPState* ep : eps_in_order_) {
      const uint32_t nparents = r.GetU32();
      ep->parents.reserve(nparents);
      for (uint32_t i = 0; i < nparents; ++i) {
        const uint32_t pid = r.GetU32();
        const uint32_t alt_idx = r.GetU32();
        const uint8_t side = r.GetU8();
        if (pid >= eps_in_order_.size() || side > 1) {
          throw SerializeError(SerializeError::Code::kBadSection,
                               "memo seed: parent reference out of range");
        }
        EPState* parent = eps_in_order_[pid];
        if (!parent->enumerated || alt_idx >= parent->alts.size() ||
            parent->alts[alt_idx].child[side] != ep) {
          throw SerializeError(SerializeError::Code::kMismatch,
                               "memo seed: parent link disagrees with alternative wiring");
        }
        ep->parents.push_back({parent, alt_idx, side});
      }
    }
    if (!r.AtEnd()) {
      throw SerializeError(SerializeError::Code::kBadSection,
                           "memo seed: " + std::to_string(r.remaining()) +
                               " trailing bytes after the last section");
    }

    // Pass 4 (derived state, no payload reads): reference counts are a pure
    // function of active parent alternatives (+1 for the root's virtual
    // reference) — recomputed directly, NEVER via RefUp, which would
    // schedule enumeration/drive work and break the empty-queue postcondition.
    // ParentBound contributions are the exact bijection of every active
    // alternative's non-NaN last_contrib; the propagated best/bound values
    // are structural at any drained-queue state (last_bound stays +inf with
    // bounding off because ScheduleBoundDirty never runs there).
    root_ = FindEP(EPExpr(root_key), EPProp(root_key));
    if (root_ == nullptr) {
      throw SerializeError(SerializeError::Code::kMismatch,
                           "memo seed: root pair missing from the seed");
    }
    root_->refcount = 1;
    for (EPState* ep : eps_in_order_) {
      for (uint32_t i = 0; i < ep->alts.size(); ++i) {
        AltState& a = ep->alts[i];
        if (!a.active) continue;
        for (int s = 0; s < a.def.NumChildren(); ++s) {
          ++a.child[s]->refcount;
          const double contrib = a.last_contrib[s];
          if (!std::isnan(contrib)) {
            EPState* child = a.child[s];
            const size_t agg_size = child->parent_bounds.size();
            child->parent_bounds.Set(ContributionKey(*ep, i, s), contrib);
            agg_entries_ += static_cast<int64_t>(child->parent_bounds.size() - agg_size);
          }
        }
      }
    }
    for (EPState* ep : eps_in_order_) {
      if (ep->best_agg.empty()) {
        ep->last_best = kInf;
        ep->last_best_idx = kNoWinner;
      } else {
        const auto min_entry = ep->best_agg.MinEntry();
        ep->last_best = min_entry.first;
        ep->last_best_idx = min_entry.second;
      }
      ep->last_bound = options_.use_bounding ? CurrentBound(*ep) : kInf;
    }
    optimized_ = true;
    stats_epoch_ = stats_epoch != 0 ? stats_epoch : registry_->epoch();
    ++round_;  // keep touched_round stamps unique across the restore
    UpdatePeakMemoBytes();
  } catch (...) {
    TearDown();  // all-or-nothing: no partial restore survives a throw
    throw;
  }
}

void DeclarativeOptimizer::ValidateInvariants() const {
  IQRO_CHECK(queue_.empty());  // only meaningful at fixpoint
  // The incremental aggregate-entry counter behind peak_memo_bytes must
  // agree with a fresh count over the memo.
  int64_t agg_entries = 0;
  for (const EPState* ep : eps_in_order_) {
    agg_entries += static_cast<int64_t>(ep->best_agg.size() + ep->parent_bounds.size());
  }
  IQRO_CHECK(agg_entries == agg_entries_);
  for (const EPState* ep : eps_in_order_) {
    // Reference counts equal the number of active parent alternatives.
    int expected = (ep == root_) ? 1 : 0;
    for (const ParentRef& pr : ep->parents) {
      if (pr.ep->alts[pr.alt_idx].active) ++expected;
    }
    IQRO_CHECK(expected == ep->refcount);
    if (!ep->enumerated) {
      IQRO_CHECK(ep->best_agg.empty());
      continue;
    }
    if (ep->dormant) {
      IQRO_CHECK(!Live(*ep));
      IQRO_CHECK(ep->best_agg.empty());
      for (const AltState& a : ep->alts) {
        IQRO_CHECK(!a.cost_known);
        IQRO_CHECK(!a.active);
      }
      continue;
    }
    const double thr = Threshold(*ep);
    for (uint32_t i = 0; i < ep->alts.size(); ++i) {
      const AltState& a = ep->alts[i];
      // The aggregate's contents mirror cost_known flags.
      IQRO_CHECK(ep->best_agg.Contains(i) == a.cost_known);
      if (a.cost_known) {
        IQRO_CHECK(ep->best_agg.ValueOf(i) == a.cost);
        // Derivable costs are fresh (local + children's current bests) —
        // but only up to the statistics the optimizer has consumed: with
        // pending registry changes the stored values legitimately lag.
        if (registry_->HasPending()) continue;
        double expect = LocalCost(*ep, a.def);
        for (int s = 0; s < a.def.NumChildren(); ++s) {
          EPState* c = ChildEP(a, s);
          IQRO_CHECK(!c->best_agg.empty());  // supported
          expect += c->best_agg.MinValue();
        }
        if (!(std::abs(a.cost - expect) <= 1e-9 * std::max(1.0, std::abs(expect)))) {
          std::fprintf(stderr,
                       "stale cost: ep=%s prop=%d alt=%u cost=%.6f expect=%.6f local=%.6f "
                       "queued=%d\n",
                       RelSetToString(ep->expr).c_str(), ep->prop, i, a.cost, expect,
                       LocalCost(*ep, a.def), a.drive_queued ? 1 : 0);
          for (int s = 0; s < a.def.NumChildren(); ++s) {
            EPState* c = ChildEP(a, s);
            std::fprintf(stderr,
                         "  child%d=%s prop=%d last_best=%.6f agg_min=%.6f dormant=%d "
                         "best_dirty=%d\n",
                         s, RelSetToString(c->expr).c_str(), c->prop, c->last_best,
                         c->best_agg.empty() ? -1.0 : c->best_agg.MinValue(),
                         c->dormant ? 1 : 0, c->best_dirty ? 1 : 0);
          }
        }
        IQRO_CHECK(std::abs(a.cost - expect) <= 1e-9 * std::max(1.0, std::abs(expect)));
      }
      if (!Live(*ep)) IQRO_CHECK(!a.active);  // collected pairs hold no rows
      if (Live(*ep) && options_.use_source_suppression && a.cost_known && !a.active) {
        // Suppressed-but-derivable alternatives are justified: they are at
        // or above the pair's threshold.
        IQRO_CHECK(a.cost >= thr - 1e-9 * std::max(1.0, std::abs(thr)));
      }
    }
    if (Live(*ep) && !ep->best_agg.empty() && options_.use_source_suppression) {
      // The group minimum always survives aggregate selection.
      auto [cost, idx] = ep->best_agg.MinEntry();
      if (!ep->alts[idx].active) {
        std::fprintf(stderr, "min not active: ep=%s prop=%d alt=%u cost=%.6f thr=%.6f\n",
                     RelSetToString(ep->expr).c_str(), ep->prop, idx, cost, Threshold(*ep));
        for (uint32_t i = 0; i < ep->alts.size(); ++i) {
          const AltState& a = ep->alts[i];
          std::fprintf(stderr,
                       "  alt %u active=%d cost_known=%d cost=%.6f ever_active=%d queued=%d\n",
                       i, a.active ? 1 : 0, a.cost_known ? 1 : 0, a.cost, a.ever_active ? 1 : 0,
                       a.drive_queued ? 1 : 0);
        }
      }
      IQRO_CHECK(ep->alts[idx].active);
    }
    IQRO_CHECK(ep->last_best == (ep->best_agg.empty() ? kInf : ep->best_agg.MinValue()));
    IQRO_CHECK(ep->last_best_idx ==
               (ep->best_agg.empty() ? kNoWinner : ep->best_agg.MinEntry().second));
    if (options_.use_bounding) IQRO_CHECK(ep->last_bound == CurrentBound(*ep));
  }
}

}  // namespace iqro
