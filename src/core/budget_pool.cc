#include "core/budget_pool.h"

#include <algorithm>

#include "core/metrics.h"
#include "util/fault.h"

namespace impreg {

namespace {

/// Per-tenant metric names are dynamic, so the IMPREG_METRIC_* macros
/// (which cache one handle per call site) do not apply; go through the
/// registry directly, still behind the runtime enable check.
void CountTenantMetric(const std::string& tenant, const char* what,
                       std::int64_t delta) {
#ifdef IMPREG_OBSERVABILITY
  if (MetricsEnabled()) {
    MetricsRegistry::Get()
        .FindOrCreateCounter("service.tenant." + tenant + "." + what)
        ->Add(delta);
  }
#else
  (void)tenant;
  (void)what;
  (void)delta;
#endif
}

void GaugeTenantSpend(const std::string& tenant, std::int64_t spent) {
#ifdef IMPREG_OBSERVABILITY
  if (MetricsEnabled()) {
    MetricsRegistry::Get()
        .FindOrCreateGauge("service.tenant." + tenant + ".spent_arcs")
        ->Set(static_cast<double>(spent));
  }
#else
  (void)tenant;
  (void)spent;
#endif
}

}  // namespace

TenantBudgetPool::TenantBudgetPool(const TenantPolicy& policy)
    : policy_(policy) {}

void TenantBudgetPool::SetCapacity(const std::string& tenant,
                                   std::int64_t capacity) {
  capacity_override_[tenant] = capacity;
  // A ledger created before the override keeps its old cap; drop it so
  // the next Admit() rebuilds with the new one (spend is preserved).
  auto it = ledgers_.find(tenant);
  if (it != ledgers_.end()) {
    const std::int64_t spent = it->second.Spent();
    WorkBudget fresh(capacity);
    fresh.Charge(spent);
    it->second = fresh;
  }
}

std::int64_t TenantBudgetPool::Capacity(const std::string& tenant) const {
  const auto it = capacity_override_.find(tenant);
  return it != capacity_override_.end() ? it->second : policy_.capacity;
}

WorkBudget& TenantBudgetPool::LedgerFor(const std::string& tenant) {
  auto it = ledgers_.find(tenant);
  if (it == ledgers_.end()) {
    it = ledgers_.emplace(tenant, WorkBudget(Capacity(tenant))).first;
  }
  return it->second;
}

AdmissionDecision TenantBudgetPool::Admit(const std::string& tenant,
                                          std::int64_t requested_work,
                                          std::int64_t* granted_cap) {
  *granted_cap = 0;
  const std::int64_t capacity = Capacity(tenant);
  TenantAdmissionStats& stats = stats_[tenant];
  WorkBudget& ledger = LedgerFor(tenant);
  IMPREG_FAULT_POINT("service/admission_budget", &ledger);

  if (capacity <= 0) {
    // Unlimited tenant — unless the fault harness forced exhaustion,
    // in which case the overload rehearsal applies here too.
    if (!ledger.Exhausted()) {
      ++stats.admitted_exact;
      IMPREG_METRIC_COUNT("service.admission.exact", 1);
      return AdmissionDecision::kExact;
    }
    ++stats.shed;
    IMPREG_METRIC_COUNT("service.admission.shed", 1);
    CountTenantMetric(tenant, "shed", 1);
    return AdmissionDecision::kShed;
  }

  const std::int64_t spent = ledger.Spent();
  // Exhausted() is deliberately sticky (hysteresis): a tenant that ever
  // drained its pool stays shed until Reset() — overload does not
  // oscillate within an accounting window.
  const bool shed =
      ledger.Exhausted() ||
      static_cast<double>(spent) >=
          policy_.shed_fraction * static_cast<double>(capacity);
  if (shed) {
    ++stats.shed;
    IMPREG_METRIC_COUNT("service.admission.shed", 1);
    CountTenantMetric(tenant, "shed", 1);
    return AdmissionDecision::kShed;
  }

  const std::int64_t remaining = capacity - spent;
  const bool degraded =
      static_cast<double>(spent) >=
      policy_.degrade_fraction * static_cast<double>(capacity);
  std::int64_t reserve =
      requested_work > 0 ? requested_work : policy_.default_cost;
  if (degraded) reserve = std::min(reserve, policy_.degraded_cap);
  reserve = std::min(reserve, remaining);
  ledger.Charge(reserve);
  GaugeTenantSpend(tenant, ledger.Spent());
  if (degraded) {
    *granted_cap = reserve;
    ++stats.admitted_degraded;
    IMPREG_METRIC_COUNT("service.admission.degraded", 1);
    return AdmissionDecision::kDegraded;
  }
  *granted_cap = reserve;
  ++stats.admitted_exact;
  IMPREG_METRIC_COUNT("service.admission.exact", 1);
  return AdmissionDecision::kExact;
}

void TenantBudgetPool::Settle(const std::string& tenant,
                              std::int64_t actual_work) {
  TenantAdmissionStats& stats = stats_[tenant];
  stats.spent_arcs += actual_work;
  GaugeTenantSpend(tenant, stats.spent_arcs);
}

}  // namespace impreg
