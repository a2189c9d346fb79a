#ifndef IMPREG_CORE_BUDGET_POOL_H_
#define IMPREG_CORE_BUDGET_POOL_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/work_budget.h"

/// \file
/// Per-tenant admission control: WorkBudget pools with a deterministic
/// degradation ladder.
///
/// The paper's central trade — computation for statistical quality —
/// becomes an *operational* dial under production traffic: when a
/// tenant's work pool drains, the serving tier does not queue or fail
/// randomly, it walks a ladder of progressively cheaper answers:
///
///   exact  →  warm-restart  →  budget-capped (degraded-but-marked)  →  shed
///
/// The first two rungs are the QueryEngine's normal behavior (the cache
/// warm-restarts whenever state is available). This pool implements the
/// last two: once a tenant's spend crosses `degrade_fraction` of its
/// capacity, new queries are admitted with a hard per-query arc cap
/// (their results carry kBudgetExhausted + degraded=true when the cap
/// binds); once spend crosses `shed_fraction`, queries are refused
/// outright with kShed — no computation, an explicit marking, never a
/// silent drop.
///
/// Determinism contract: Admit() is called by the engine in sequential
/// arrival order, and every decision is a pure function of (tenant,
/// arrival index, pool state at that arrival). Pool state evolves only
/// through admission-time charges — the query's declared max_work or
/// the policy's default_cost, never the solver's measured work (which a
/// cache hit would zero out) — so for a fixed request sequence the shed
/// set is bit-identical at any thread count, cache on or off. Observed
/// solver arcs are recorded separately via Settle() for reporting.
///
/// Each tenant's ledger is a WorkBudget, which also gives the
/// fault-injection harness its hook: the "service/admission_budget"
/// site can ForceExhausted() a pool to rehearse overload.

namespace impreg {

/// What admission decided for one arrival.
enum class AdmissionDecision {
  kExact,     ///< Full budget: the query runs as requested.
  kDegraded,  ///< Admitted with a hard arc cap (`granted_cap`).
  kShed,      ///< Refused: no execution, response carries kShed.
};

/// The ladder's thresholds, shared by every tenant (capacity can be
/// overridden per tenant).
struct TenantPolicy {
  /// Pool size in arc traversals (0 = unlimited: every query exact).
  std::int64_t capacity = 0;
  /// Spend fraction at which admission starts capping queries.
  double degrade_fraction = 0.5;
  /// Spend fraction at which admission sheds (1.0 = only when drained).
  double shed_fraction = 1.0;
  /// Arc cap granted to queries admitted in the degraded band.
  std::int64_t degraded_cap = 2048;
  /// Charge billed for a query that declares no max_work of its own —
  /// the admission-time cost estimate. Charges are permanent (never
  /// reconciled against measured work) so pool state stays a pure
  /// function of the arrival sequence.
  std::int64_t default_cost = 4096;
};

/// Per-tenant admission counters (mirrored into service.admission.*
/// metrics when metrics are enabled).
struct TenantAdmissionStats {
  std::int64_t admitted_exact = 0;
  std::int64_t admitted_degraded = 0;
  std::int64_t shed = 0;
  /// Observed solver arcs (Settle; reporting only — decisions bill the
  /// admission-time estimates, not this).
  std::int64_t spent_arcs = 0;
};

/// A map of tenant name → WorkBudget ledger walking the ladder above.
/// Not thread-safe: the engine serializes admission around its parallel
/// execution phase, which is exactly what makes decisions replayable.
class TenantBudgetPool {
 public:
  explicit TenantBudgetPool(const TenantPolicy& policy);

  /// Overrides the pool capacity for one tenant (before or between
  /// batches; 0 = unlimited for that tenant).
  void SetCapacity(const std::string& tenant, std::int64_t capacity);

  /// Decides one arrival and bills its cost. On kExact the charge is
  /// the query's declared work (or `default_cost`), clamped to the
  /// remaining headroom; on kDegraded it is `*granted_cap`
  /// (≤ degraded_cap); on kShed nothing is charged. Charges are
  /// permanent — pool state is a pure function of the arrival sequence.
  /// `requested_work` is the query's own max_work (0 = undeclared).
  AdmissionDecision Admit(const std::string& tenant,
                          std::int64_t requested_work,
                          std::int64_t* granted_cap);

  /// Records a finished query's observed solver arcs into the tenant's
  /// stats. Reporting only — never touches the decision ledger, so
  /// cache hits (which settle at 0) cannot shift the shed set.
  void Settle(const std::string& tenant, std::int64_t actual_work);

  /// Per-tenant counters, name-sorted (stable iteration for reports).
  const std::map<std::string, TenantAdmissionStats>& stats() const {
    return stats_;
  }

 private:
  /// The capacity in force for `tenant`.
  std::int64_t Capacity(const std::string& tenant) const;
  WorkBudget& LedgerFor(const std::string& tenant);

  TenantPolicy policy_;
  std::map<std::string, std::int64_t> capacity_override_;
  std::map<std::string, WorkBudget> ledgers_;
  std::map<std::string, TenantAdmissionStats> stats_;
};

}  // namespace impreg

#endif  // IMPREG_CORE_BUDGET_POOL_H_
