#ifndef IMPREG_UTIL_FAULT_H_
#define IMPREG_UTIL_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Deterministic fault-injection harness for the robustness suite.
///
/// Hardened solvers mark the spots where numerical failure can enter —
/// the iterate vector after a matvec, a recurrence scalar, a work
/// budget — with named hooks:
///
///   IMPREG_FAULT_POINT("cg/iterate", result.x);   // Vector&
///   IMPREG_FAULT_POINT("cg/rho", rr_new);         // double&
///   IMPREG_FAULT_POINT("multilevel/level", budget);  // WorkBudget*
///
/// In a normal build (IMPREG_FAULT_INJECTION cmake option OFF) the
/// macro compiles to nothing: zero code, zero cost, bit-identical
/// outputs. With the option ON, each hook consults a process-global
/// trigger table: tests Arm() one (site, kind, nth-hit) trigger, run a
/// solver, and assert it degrades gracefully — correct SolveStatus,
/// finite outputs, no abort, no hang. Injection is deterministic: the
/// poisoned vector entry is chosen by a seeded hash of the site name,
/// so a failing case replays exactly.
///
/// Recording mode (StartRecording/StopRecording) captures every site a
/// solver passes through, in first-hit order, so the robustness test
/// enumerates the fault-point catalog from the code itself instead of
/// a hand-maintained list.

namespace impreg {

class WorkBudget;
struct SparseEntry;

namespace fault {

/// What an armed trigger injects when its site is hit.
enum class FaultKind {
  kNaN,      ///< Vector hook: one entry ← quiet NaN. Scalar hook: x ← NaN.
  kInf,      ///< Vector hook: one entry ← +Inf. Scalar hook: x ← +Inf.
  kPerturb,  ///< Scalar hook: x ← −1e6·x − 1 (sign flip + blow-up).
             ///< Vector hook: one entry scaled the same way.
  kBudget,   ///< Budget hook: WorkBudget::ForceExhausted().
};

/// True when the harness was compiled in (IMPREG_FAULT_INJECTION=ON).
bool Compiled();

/// Arms a single trigger: the `trigger_hit`-th time (1-based) the named
/// site is reached, inject `kind`. Replaces any previously armed
/// trigger. `seed` drives the vector-entry choice.
void Arm(const std::string& site, FaultKind kind, int trigger_hit = 1,
         std::uint64_t seed = 0x5eedf001ULL);

/// Clears the armed trigger, hit counters, and recording state.
void Disarm();

/// Number of injections performed since the last Arm()/Disarm().
int InjectionCount();

/// Begins capturing the distinct sites hit, in first-hit order.
void StartRecording();

/// Ends capture and returns the sites seen since StartRecording().
std::vector<std::string> StopRecording();

namespace internal {

void Hit(const char* site, std::vector<double>& v);
/// Sparse form: the poisoned entry is chosen among the stored entries
/// by the same hash, so the site poisons what is actually kept.
void Hit(const char* site, std::vector<SparseEntry>& v);
void Hit(const char* site, double& x);
void Hit(const char* site, WorkBudget* budget);

}  // namespace internal
}  // namespace fault
}  // namespace impreg

#ifdef IMPREG_FAULT_INJECTION
/// Named fault point. `target` is a Vector&, a SparseVector&, a double
/// lvalue, or a WorkBudget* (nullptr ok — budget hooks on an unlimited
/// driver are silently skipped but still recorded).
#define IMPREG_FAULT_POINT(site, target) \
  ::impreg::fault::internal::Hit(site, target)
#else
#define IMPREG_FAULT_POINT(site, target) \
  do {                                   \
  } while (0)
#endif

#endif  // IMPREG_UTIL_FAULT_H_
