#include "src/server/scheduling_policy.h"

#include <algorithm>
#include <limits>

namespace alaya {

namespace {

/// Float-tolerant "deficit covers cost": modeled seconds are tiny (µs-scale),
/// so the tolerance scales with the cost instead of using a fixed epsilon.
bool Covers(double deficit, double cost) {
  return deficit + 1e-12 + 1e-9 * cost >= cost;
}

/// One contending tenant inside the highest priority class present: its
/// queue head (EDF within the tenant, arrival order as the tie-break — views
/// arrive in arrival order, so the first hit wins ties) and that head's cost.
struct Contender {
  uint64_t tenant = 0;
  size_t head_index = 0;
  double head_cost = 0;
  double deficit = 0;
  double weight = 1.0;
};

/// Builds the contender set for the highest priority class in `queued`.
/// Returns the per-tenant heads in ascending tenant id (std::map order), so
/// every tie-break below is deterministic.
std::vector<Contender> ContendersOfTopClass(
    std::span<const QueuedRequestView> queued, const TenantLedger& ledger) {
  std::vector<Contender> out;
  if (queued.empty()) return out;
  int top = std::numeric_limits<int>::min();
  for (const QueuedRequestView& v : queued) top = std::max(top, v.priority);
  std::map<uint64_t, size_t> heads;  // tenant -> view index of its EDF head
  for (size_t i = 0; i < queued.size(); ++i) {
    const QueuedRequestView& v = queued[i];
    if (v.priority != top) continue;
    auto it = heads.find(v.tenant_id);
    if (it == heads.end()) {
      heads.emplace(v.tenant_id, i);
    } else if (v.deadline < queued[it->second].deadline) {
      it->second = i;  // Strictly earlier deadline beats arrival order.
    }
  }
  out.reserve(heads.size());
  for (const auto& [tenant, index] : heads) {
    Contender c;
    c.tenant = tenant;
    c.head_index = index;
    c.head_cost = queued[index].cost_seconds;
    auto lt = ledger.find(tenant);
    if (lt != ledger.end()) {
      c.deficit = lt->second.deficit_seconds;
      c.weight = lt->second.weight;
    }
    out.push_back(c);
  }
  return out;
}

/// The smallest uniform top-up (per unit weight) that makes at least one
/// contender's deficit cover its head cost. Zero when one already does.
double TopUpDelta(const std::vector<Contender>& contenders) {
  double delta = std::numeric_limits<double>::max();
  for (const Contender& c : contenders) {
    if (Covers(c.deficit, c.head_cost)) return 0;
    const double w = c.weight > 0 ? c.weight : 1e-9;  // Degenerate weight guard.
    delta = std::min(delta, (c.head_cost - c.deficit) / w);
  }
  return delta;
}

}  // namespace

size_t FairSharePolicy::PickNext(std::span<const QueuedRequestView> queued,
                                 const TenantLedger& ledger) const {
  const std::vector<Contender> contenders = ContendersOfTopClass(queued, ledger);
  if (contenders.empty()) return kNone;
  const double delta = TopUpDelta(contenders);
  // Simulated top-up (PickNext must not mutate): pick the eligible tenant
  // with the most residual credit after paying its head — the one fairness
  // owes the most. Ties resolve to the lowest tenant id (contenders are
  // sorted by tenant id, and `>` keeps the first of equals).
  size_t best = kNone;
  double best_residual = -std::numeric_limits<double>::max();
  for (const Contender& c : contenders) {
    const double effective = c.deficit + delta * c.weight;
    if (!Covers(effective, c.head_cost)) continue;
    const double residual = effective - c.head_cost;
    if (residual > best_residual) {
      best_residual = residual;
      best = c.head_index;
    }
  }
  return best;
}

void FairSharePolicy::OnAdmitted(std::span<const QueuedRequestView> queued,
                                 size_t picked, TenantLedger* ledger) const {
  if (picked >= queued.size()) return;
  // Apply the same top-up PickNext simulated over the same view set, then
  // spend the admitted head's cost from its tenant.
  const std::vector<Contender> contenders = ContendersOfTopClass(queued, *ledger);
  const double delta = TopUpDelta(contenders);
  for (const Contender& c : contenders) {
    (*ledger)[c.tenant].deficit_seconds += delta * c.weight;
  }
  const QueuedRequestView& admitted = queued[picked];
  TenantShareState& t = (*ledger)[admitted.tenant_id];
  t.deficit_seconds = std::max(0.0, t.deficit_seconds - admitted.cost_seconds);
  t.admitted_seconds += admitted.cost_seconds;
  ++t.admitted;
}

std::vector<uint64_t> FairSharePolicy::RankVictims(
    const QueuedRequestView& blocked,
    std::span<const RunningRequestView> running) const {
  // Only strictly lower classes may be suspended (monotone: a resumed victim
  // can never preempt its preemptor, so preemption cannot cycle). Within a
  // class the ranking is cost-aware: suspending a victim parks its
  // device-resident KV (a modeled transfer out now plus back in at resume,
  // proportional to gpu_bytes) in exchange for the device time its remaining
  // work would have held. Rank by park cost per remaining second — a session
  // about to finish frees its slot soon anyway, so parking its KV is pure
  // waste, while a long-running request with modest KV is the bargain. Ties
  // (identical scores, e.g. equal geometry) fall back to the latest deadline
  // (time_point::max() = nothing waiting on it), then the most recently
  // admitted (least sunk work), keeping the order deterministic.
  std::vector<const RunningRequestView*> victims;
  for (const RunningRequestView& r : running) {
    if (r.priority < blocked.priority) victims.push_back(&r);
  }
  const auto park_score = [](const RunningRequestView* v) {
    return static_cast<double>(v->gpu_bytes) / std::max(v->remaining_seconds, 1e-12);
  };
  std::sort(victims.begin(), victims.end(),
            [&](const RunningRequestView* a, const RunningRequestView* b) {
              if (a->priority != b->priority) return a->priority < b->priority;
              const double sa = park_score(a);
              const double sb = park_score(b);
              if (sa != sb) return sa < sb;
              if (a->deadline != b->deadline) return a->deadline > b->deadline;
              return a->admit_order > b->admit_order;
            });
  std::vector<uint64_t> out;
  out.reserve(victims.size());
  for (const RunningRequestView* v : victims) out.push_back(v->id);
  return out;
}

}  // namespace alaya
