// Admission-ordering and preemption policy for RequestScheduler — the
// refactor that turns FIFO admission into multi-tenant SLO scheduling.
//
// The scheduler owns the queue, the reservations and the locks; the policy is
// a pure strategy consulted under the scheduler's mutex:
//   - PickNext: which queued request should be considered for admission next
//     (replaces "the FIFO head").
//   - OnAdmitted: bookkeeping after that request actually placed (deficit
//     accounting; split from PickNext so a pick the placement layer then
//     blocks does not mutate anything).
//   - RankVictims: when the picked request cannot admit, which running
//     sessions may be suspended to make room, best victim first (empty =
//     never preempt).
//
// FairSharePolicy: strict priority classes; within the highest class present,
// weighted deficit round-robin across tenants over modeled device-seconds
// (each tenant's deficit earns credit at its weight's rate and admission
// spends the request's projected total seconds), and earliest-deadline-first
// within a tenant. With a single tenant, uniform priorities and no deadlines
// it degenerates to exact FIFO with no preemption, so single-class workloads
// are served in arrival order.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace alaya {

/// What the policy may know about one queued request. Views are handed to the
/// policy in arrival order, so index 0 is the FIFO head.
struct QueuedRequestView {
  uint64_t id = 0;
  int priority = 0;       ///< Higher admits first (strict classes).
  uint64_t tenant_id = 0;
  /// Absolute deadline (time_point::max() = none) — EDF within a tenant.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Projected total modeled device-seconds of remaining work (prefill +
  /// decode) — the fair-share cost one admission spends.
  double cost_seconds = 0;
  /// A preempted request re-entering the queue to resume. Carries its
  /// original id/submit time; policies treat it like any other request of its
  /// class (no implicit boost — fairness already paid for its first slice).
  bool resume = false;
};

/// What the policy may know about one running session when ranking victims.
struct RunningRequestView {
  uint64_t id = 0;
  int priority = 0;
  uint64_t tenant_id = 0;
  int device = 0;
  uint64_t gpu_bytes = 0;     ///< Reserved device bytes a suspension frees.
  double step_seconds = 0;    ///< Reserved per-step seconds a suspension frees.
  /// Projected modeled device-seconds of work still ahead of this request
  /// (admission estimate minus progress recorded so far): the throughput a
  /// suspension defers, and the denominator of cost-aware victim ranking.
  double remaining_seconds = 0;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  uint64_t admit_order = 0;   ///< Monotonic admission stamp (higher = newer).
};

/// Per-tenant fair-share ledger entry, owned by the scheduler and mutated
/// only through FairSharePolicy::OnAdmitted. Exposed in snapshots: deficit
/// balances plus lifetime admitted work are the no-starvation evidence.
struct TenantShareState {
  double weight = 1.0;
  /// Deficit round-robin balance in modeled device-seconds: topped up at the
  /// tenant's weighted rate while it contends, spent by admissions, reset
  /// when its queue empties (an idle tenant does not bank credit).
  double deficit_seconds = 0;
  double admitted_seconds = 0;  ///< Lifetime device-seconds admitted.
  size_t admitted = 0;          ///< Lifetime requests admitted.
};

using TenantLedger = std::map<uint64_t, TenantShareState>;

/// Strict priority classes + weighted deficit round-robin across tenants +
/// EDF within a tenant. See file header for the exact scheme.
class FairSharePolicy {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Index into `queued` of the request to consider next, or kNone to admit
  /// nothing this round. Does not mutate the ledger (simulates top-ups).
  size_t PickNext(std::span<const QueuedRequestView> queued,
                  const TenantLedger& ledger) const;

  /// The request PickNext chose at `picked` placed successfully: apply the
  /// fair-share accounting to `ledger`. `queued` is the same view set the
  /// pick saw (the admitted entry still included).
  void OnAdmitted(std::span<const QueuedRequestView> queued, size_t picked,
                  TenantLedger* ledger) const;

  /// The request `blocked` cannot admit (no slot or no device fits): running
  /// sessions that may be suspended for it, best victim first. The scheduler
  /// suspends a prefix of this ranking until the blocked request fits. Only
  /// victims of strictly lower priority than `blocked` are ever ranked — the
  /// monotonicity that prevents preemption cycles.
  std::vector<uint64_t> RankVictims(const QueuedRequestView& blocked,
                                    std::span<const RunningRequestView> running) const;
};

}  // namespace alaya
