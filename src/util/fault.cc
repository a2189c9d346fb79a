#include "util/fault.h"

#include <limits>
#include <mutex>
#include <unordered_map>

#include "core/work_budget.h"
#include "linalg/sparse_vector.h"

namespace impreg::fault {

namespace {

// All harness state behind one mutex: the hooks sit in serial driver
// code, but the suite also runs under tsan and nothing here is hot.
struct State {
  std::mutex mu;
  bool armed = false;
  std::string site;
  FaultKind kind = FaultKind::kNaN;
  int trigger_hit = 1;
  std::uint64_t seed = 0;
  int injections = 0;
  std::unordered_map<std::string, int> hits;
  bool recording = false;
  std::vector<std::string> recorded;  // Distinct, first-hit order.
};

State& GetState() {
  static State* state = new State();
  return *state;
}

std::uint64_t Fnv1a(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Returns true (under the lock) when this hit should inject, and
// handles recording/counting for every hit.
bool ShouldInject(State& state, const char* site) {
  const int hit = ++state.hits[site];
  if (state.recording && hit == 1) state.recorded.push_back(site);
  if (!state.armed || state.site != site || hit != state.trigger_hit) {
    return false;
  }
  ++state.injections;
  return true;
}

// The entry a vector hook poisons: a seeded hash of the site name,
// reduced modulo the entry count (`size` > 0).
std::size_t PoisonIndex(const char* site, std::uint64_t seed,
                        std::size_t size) {
  return static_cast<std::size_t>(
      (Fnv1a(site) ^ (seed * 0x9e3779b97f4a7c15ULL)) % size);
}

// Applies `kind` to one value (budget faults leave it alone).
void Poison(FaultKind kind, double& x) {
  switch (kind) {
    case FaultKind::kNaN:
      x = std::numeric_limits<double>::quiet_NaN();
      break;
    case FaultKind::kInf:
      x = std::numeric_limits<double>::infinity();
      break;
    case FaultKind::kPerturb:
      x = -1e6 * x - 1.0;
      break;
    case FaultKind::kBudget:
      break;  // Budget faults only make sense on budget hooks.
  }
}

// The vector hooks' gate: true, with the armed kind and seed, when
// this hit injects.
bool ShouldInjectVector(const char* site, FaultKind* kind,
                        std::uint64_t* seed) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!ShouldInject(state, site)) return false;
  *kind = state.kind;
  *seed = state.seed;
  return true;
}

}  // namespace

bool Compiled() {
#ifdef IMPREG_FAULT_INJECTION
  return true;
#else
  return false;
#endif
}

void Arm(const std::string& site, FaultKind kind, int trigger_hit,
         std::uint64_t seed) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed = true;
  state.site = site;
  state.kind = kind;
  state.trigger_hit = trigger_hit < 1 ? 1 : trigger_hit;
  state.seed = seed;
  state.injections = 0;
  state.hits.clear();
}

void Disarm() {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed = false;
  state.site.clear();
  state.injections = 0;
  state.hits.clear();
  state.recording = false;
  state.recorded.clear();
}

int InjectionCount() {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.injections;
}

void StartRecording() {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.recording = true;
  state.recorded.clear();
  state.hits.clear();
}

std::vector<std::string> StopRecording() {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.recording = false;
  return std::move(state.recorded);
}

namespace internal {

void Hit(const char* site, std::vector<double>& v) {
  FaultKind kind;
  std::uint64_t seed;
  if (!ShouldInjectVector(site, &kind, &seed) || v.empty()) return;
  Poison(kind, v[PoisonIndex(site, seed, v.size())]);
}

void Hit(const char* site, std::vector<SparseEntry>& v) {
  FaultKind kind;
  std::uint64_t seed;
  if (!ShouldInjectVector(site, &kind, &seed) || v.empty()) return;
  Poison(kind, v[PoisonIndex(site, seed, v.size())].value);
}

void Hit(const char* site, double& x) {
  State& state = GetState();
  FaultKind kind;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!ShouldInject(state, site)) return;
    kind = state.kind;
  }
  Poison(kind, x);
}

void Hit(const char* site, WorkBudget* budget) {
  State& state = GetState();
  FaultKind kind;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!ShouldInject(state, site)) return;
    kind = state.kind;
  }
  if (kind == FaultKind::kBudget && budget != nullptr) {
    budget->ForceExhausted();
  }
}

}  // namespace internal
}  // namespace impreg::fault
