// Admission control and queueing for the multi-session serving engine.
//
// Every prompt request carries a projected device footprint (prefilled prompt
// suffix + window + decoded tail at deployed KV precision) and projected
// per-step modeled device times for both of its phases: a chunked prefill
// phase over the prompt tokens no stored context covers, then steady-state
// decode (CostModel). The scheduler admits requests in the order its
// FairSharePolicy picks them — strict priority classes with weighted
// fair-share across tenants and EDF within a tenant, exact FIFO for
// single-class traffic — while the aggregate stays under the GPU memory
// budget (and, optionally, a per-step TPOT SLO), and queues the rest —
// the provider-side knob the paper's MaaS scenario needs ("heavy traffic",
// §2): memory decides *whether* a session may run, the cost model decides
// *how many* may run at once, the policy decides *who goes first* — and,
// via preemption (Admit's victim advice + Requeue), who must yield a slot to
// a higher class and resume later with zero recompute.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/attention/window_cache.h"
#include "src/common/status.h"
#include "src/core/model_config.h"
#include "src/device/cost_model.h"
#include "src/server/placement_policy.h"
#include "src/server/scheduling_policy.h"

namespace alaya {

/// One prompt request submitted to the serving front door.
struct ServingRequest {
  /// Full prompt tokens; the engine routes them through DB.create_session for
  /// prefix reuse against the context store. The suffix no stored context
  /// covers is prefilled via `fill_prompt` before decoding starts.
  std::vector<int32_t> prompt;
  /// Decode steps to run (tokens to generate).
  size_t max_new_tokens = 1;
  /// Fills one decode step's inputs: q is [num_q_heads * head_dim], k and v
  /// are [num_kv_heads * head_dim]. Must be deterministic in (step, layer) —
  /// concurrent and sequential schedules then produce identical outputs.
  std::function<void(size_t step, uint32_t layer, float* q, float* k, float* v)>
      fill_step;
  /// Fills one *prompt* token's inputs during the prefill phase; `token` is
  /// the token's absolute position in `prompt` (independent of how much prefix
  /// was reused). Same layout and determinism contract as fill_step. Requests
  /// that leave this null fail honestly when their prompt extends past every
  /// stored context.
  std::function<void(size_t token, uint32_t layer, float* q, float* k, float* v)>
      fill_prompt;
  /// Token id appended at `step` (used when store_on_finish materializes the
  /// session into a new context). Optional; defaults to synthetic ids.
  std::function<int32_t(size_t step)> token_at;
  /// DB.store(session) on completion (late materialization, §7.2).
  bool store_on_finish = false;
  /// Keep every step's final-layer attention output in the result (tests and
  /// determinism checks; costs steps * num_q_heads * head_dim floats).
  bool record_outputs = false;
  /// Streaming: invoked from the engine's step loop with each decoded output
  /// block (`out` is [num_q_heads * head_dim], the final-layer attention
  /// output of `step`). Called on the driver thread, strictly in step order;
  /// the span is only valid for the duration of the call. Keep it cheap — a
  /// slow callback stalls every co-scheduled session's next step.
  std::function<void(size_t step, std::span<const float> out)> on_token;
  /// Wall-clock budget measured from Submit (0 = none). A request that is
  /// still queued or decoding when the budget expires retires with
  /// kDeadlineExceeded at the next step boundary of a running engine; tokens
  /// already streamed stand.
  double deadline_seconds = 0;
  /// Scheduling class: higher admits strictly first, and a blocked
  /// higher-class request may suspend running lower-class sessions to make
  /// room. Equal-priority traffic is ordered by FairSharePolicy (fair-share
  /// across tenants, EDF within a tenant).
  int priority = 0;
  /// Fair-share identity: requests of the same tenant share one weighted
  /// deficit account (RequestSchedulerOptions::tenant_weights). The default
  /// tenant 0 with uniform priorities degenerates to exact FIFO.
  uint64_t tenant_id = 0;
};

/// Projected steady-state resource usage of one request, computed up front.
struct AdmissionEstimate {
  /// Device-resident KV bytes at completion: window over the full context plus
  /// the session-local tail — prefilled prompt suffix AND decoded tokens, both
  /// of which stay on device under late materialization (mirrors
  /// Session::GpuResidentBytes).
  uint64_t gpu_bytes = 0;
  /// Modeled device seconds per decode step at completion (all layers/heads).
  double step_gpu_seconds = 0;
  /// Prompt tokens no stored context covered when the request was enqueued
  /// (projected; the store may change before admission).
  size_t prefill_tokens = 0;
  /// Modeled device seconds one engine step costs while this request prefills
  /// (one chunk of prefill_chunk_tokens pushed through all layers).
  double prefill_step_gpu_seconds = 0;
  /// Projected total prefill latency (all prefill tokens).
  double prefill_total_gpu_seconds = 0;
  /// Projected total modeled device-seconds of REMAINING work: the full
  /// prefill phase plus every remaining decode step. This is the fair-share
  /// cost one admission spends from its tenant's deficit account; for a
  /// resumed request (EstimateResumed) it covers only the unfinished part.
  double total_gpu_seconds = 0;

  /// Per-engine-step device time this request contributes while active: the
  /// prefill phase and the decode phase alternate never — a session is in one
  /// or the other — so the reservation is the worse of the two.
  double EffectiveStepSeconds() const {
    return prefill_step_gpu_seconds > step_gpu_seconds ? prefill_step_gpu_seconds
                                                       : step_gpu_seconds;
  }
};

struct RequestSchedulerOptions {
  /// PER-DEVICE budget for admitted sessions (0 = unlimited). With one device
  /// this is exactly the old aggregate budget; with N devices each device
  /// holds this many bytes and a request is kNeverFits only when it exceeds
  /// the budget of every device even running alone.
  uint64_t gpu_budget_bytes = 0;
  /// Hard cap on concurrently decoding sessions (fleet-wide).
  size_t max_concurrent_sessions = 8;
  /// Enqueue fails with kBacklogFull (retryable) beyond this backlog.
  size_t max_queue_depth = 256;
  /// When > 0: stop admitting onto a device once ITS summed projected
  /// per-step time would exceed this bound (a request exceeding it on its own
  /// still runs, alone on an idle device — rejecting it outright would starve
  /// it forever). Per-device accounting: one hot device stops taking
  /// co-tenants without throttling admission to idle ones. Prefilling
  /// sessions are charged their per-chunk prefill time, so a prefill-heavy
  /// request whose projected chunk time blows the budget decodes alone
  /// instead of dragging every co-resident session past its TPOT.
  double tpot_slo_seconds = 0;
  /// Device selection strategy (nullptr -> BestFitPlacement: best-fit by free
  /// KV bytes with an affinity win for the device already holding the
  /// request's matched prefix context).
  std::shared_ptr<const PlacementPolicy> placement;
  /// Store probe: the longest stored-context prefix of a prompt AND the
  /// device where that context resides (-1 = no match), from ONE trie walk
  /// over ONE store snapshot (the serving engine wires this to
  /// ContextStore::BestPrefixMatch) — so the admission estimate and the
  /// placement affinity target agree on which context matched. Null means no
  /// reuse information: every prompt token is assumed to need prefill (the
  /// conservative upper bound) and every placement is cold.
  struct PrefixProbeResult {
    size_t matched = 0;
    int affinity_device = -1;
  };
  std::function<PrefixProbeResult(std::span<const int32_t>)> prefix_probe;
  /// Prompt tokens one prefilling session pushes through all layers per engine
  /// step. Smaller chunks interleave more fairly with decoding sessions (lower
  /// TPOT impact); larger chunks finish prefill in fewer steps.
  size_t prefill_chunk_tokens = 32;
  /// Per-step token budget split between decode steps and prefill chunks
  /// (0 = unlimited, the legacy behavior: every decoding session advances one
  /// token AND every prefilling session pushes a full prefill_chunk_tokens
  /// chunk each step). With a budget, decode is funded first — one token per
  /// decoding session, protecting TPOT — and the remainder is dealt to
  /// prefilling sessions FIFO in chunks of at most prefill_chunk_tokens. A
  /// newly admitted request's first chunk draws from whatever of the current
  /// step's budget is still unspent (mid-step admission).
  size_t step_token_budget = 0;
  /// Fair-share weight per tenant id (unlisted tenants weigh 1.0; weights
  /// <= 0 are treated as 1.0). A weight-2 tenant earns deficit credit twice
  /// as fast as a weight-1 tenant contending in the same priority class.
  std::map<uint64_t, double> tenant_weights;
  /// Context parallelism: maximum devices one session may gang across
  /// (clamped to [1, devices]) — the one gang knob; the serving engine passes
  /// it through unchanged. Above 1, the placement policy is wrapped in
  /// GangPlacement (a request that fits one device still places solo),
  /// Enqueue's permanent-rejection gate relaxes to the largest permitted
  /// gang's combined budget, and admission reserves per member — kNeverFits
  /// then means "no gang can ever hold this", not "no single device can".
  size_t max_gang_size = 1;
};

/// Thread-safe admission queue, ordered by FairSharePolicy. Enqueue may race
/// with the engine's Admit/Release loop (a front door accepting requests
/// mid-flight).
class RequestScheduler {
 public:
  /// `devices` is the simulated fleet the scheduler places across (clamped to
  /// >= 1); the serving engine passes its own `devices` option.
  RequestScheduler(const ModelConfig& model, const WindowConfig& window,
                   const CostModel& cost, const RequestSchedulerOptions& options,
                   size_t devices = 1);

  /// Projected footprint of `request` assuming `reused_prefix` of its prompt
  /// tokens are covered by a stored context (no lock needed; pure computation).
  AdmissionEstimate Estimate(const ServingRequest& request,
                             size_t reused_prefix) const;

  /// Projected footprint using the prefix probe (or zero reuse without one).
  AdmissionEstimate Estimate(const ServingRequest& request) const;

  /// How one engine step's token budget splits between the decode batch and
  /// the prefilling sessions (see RequestSchedulerOptions::step_token_budget).
  struct StepPlan {
    /// Tokens funded for decode (one per decoding session; decode always runs
    /// in full — the budget throttles prefill, never TPOT).
    size_t decode_tokens = 0;
    /// Per prefilling session (same order as the input), tokens granted this
    /// step: min(chunk cap, tokens the session still needs, budget left),
    /// dealt FIFO. The head session always gets at least one token while it
    /// needs any, so prefill can never livelock behind decode.
    std::vector<size_t> chunks;
    /// Unspent budget after the grants above — the pool a mid-step admission
    /// draws its first chunk from.
    size_t budget_left = 0;
  };

  /// Pure planning (no lock, no state): splits one step's budget between
  /// `decoding_sessions` decode steps and the prefilling sessions' remaining
  /// token counts (`prefill_remaining`, FIFO order).
  StepPlan PlanStep(size_t decoding_sessions,
                    std::span<const size_t> prefill_remaining) const;

  /// Grants a mid-step admission its first chunk out of `*budget_left`
  /// (decrementing it), honoring the chunk cap but NOT the forward-progress
  /// floor — an admission the spent budget can't fund simply waits for the
  /// next step's PlanStep.
  size_t GrantChunk(size_t remaining_need, size_t* budget_left) const;

  struct Admitted {
    uint64_t id = 0;
    ServingRequest request;
    AdmissionEstimate estimate;
    /// Device the placement policy admitted the request onto (0 on a
    /// single-device fleet). The engine binds the session here.
    int device = 0;
    /// Context parallelism: when the placement spanned a device gang, every
    /// member id with the primary first (gang[0] == device). Size <= 1 means
    /// an ordinary single-device admission. The engine builds a DeviceGang
    /// from this and binds it to the session; the scheduler holds one
    /// 1/size reservation share on each member until Release.
    std::vector<int> gang;
    /// Affinity target probed at Enqueue (-1 = none): the device the matched
    /// prefix context resided on then. Deliberately not re-probed per Admit
    /// poll — staleness costs at most one suboptimal placement (a modeled
    /// transfer), while re-probing would walk the prefix trie under the
    /// scheduler lock on every step a blocked head waits.
    int affinity_device = -1;
    /// Stamped at Enqueue; the origin of TTFT measurements and the anchor the
    /// request's deadline (deadline_seconds) counts from.
    std::chrono::steady_clock::time_point submit_time;
    /// Scheduling class and fair-share identity, copied from the request at
    /// Enqueue so resume entries (whose `request` is a stub) order correctly.
    int priority = 0;
    uint64_t tenant_id = 0;
    /// A preempted request re-entering the queue (Requeue): `request` carries
    /// only deadline_seconds, `estimate` the remaining work, and id /
    /// submit_time are the originals (TTFT and deadline anchors survive
    /// suspension). The engine routes these back to its suspended set.
    bool resume = false;
    /// Absolute deadline, or time_point::max() when the request has none.
    std::chrono::steady_clock::time_point Deadline() const;
  };

  /// Precomputed enqueue inputs: the admission estimate and the placement
  /// affinity target, both from one prefix probe. The probe walks the context
  /// store's prefix trie — O(prompt length) — so callers holding their own
  /// locks (the engine's Submit) run Preflight first, outside them.
  struct EnqueuePreflight {
    AdmissionEstimate estimate;
    int affinity_device = -1;
  };
  EnqueuePreflight Preflight(const ServingRequest& request) const;

  /// Queues a request. Rejections are typed so live-mode callers can
  /// implement backpressure without string-matching: kBacklogFull (the queue
  /// is at max_queue_depth right now — retryable) vs kNeverFits (the request
  /// exceeds the memory budget even running alone — permanent). Returns the
  /// request id. The two-arg form skips the store probe (see Preflight).
  Result<uint64_t> Enqueue(ServingRequest request);
  Result<uint64_t> Enqueue(ServingRequest request, const EnqueuePreflight& pre);

  /// Everything one Admit() call removed from the queue, by outcome. Only
  /// `admitted` entries hold a reservation; the caller finalizes `expired`
  /// and `never_fits` with typed results (routing resume entries back to its
  /// suspended set) and suspends `victims` before admitting again.
  struct AdmitRound {
    std::vector<Admitted> admitted;
    std::vector<Admitted> expired;
    std::vector<Admitted> never_fits;
    std::vector<uint64_t> victims;
  };

  /// Pops every queued request admissible under the current load, in the
  /// order FairSharePolicy picks them (no head-of-line bypass past its pick).
  /// An admissible request is one the placement policy can put on SOME
  /// device — fitting that device's remaining memory budget and TPOT
  /// headroom — or the pick while the fleet is idle (guaranteed progress).
  /// Each admitted request carries the device it was placed on.
  ///
  /// Every queued entry whose deadline has passed is swept into `expired`
  /// first, so a doomed request never absorbs a deficit grant or blocks the
  /// queue. A pick the policy reports as never_fits (no device's budget could
  /// EVER hold it — possible under custom policies; the built-in
  /// uniform-budget case is caught at Enqueue) lands in `never_fits` instead
  /// of blocking the queue forever.
  ///
  /// Preemption: when the picked request is blocked (all slots taken or no
  /// device fits) and `advise_preemption` is set, the policy ranks running
  /// lower-priority victims and the shortest prefix of that ranking whose
  /// suspension would let the pick place lands in `victims`. Admission then
  /// stops — the caller suspends the victims (Release + Requeue) and calls
  /// Admit again; capacity only frees once real suspension happens. Callers
  /// stepping mid-batch leave it off: preemption is a step-boundary-only
  /// affair.
  AdmitRound Admit(bool advise_preemption = false);

  /// Re-queues a preempted request so a later Admit can resume it. The caller
  /// (the engine's suspend path) builds the entry: resume=true, original id /
  /// submit_time / priority / tenant_id, a stub request carrying only
  /// deadline_seconds, and an EstimateResumed() estimate. No validation, no
  /// backlog cap (a suspended request must always be re-queueable; the count
  /// is bounded by max_concurrent_sessions), no reservation held until a
  /// later Admit places it again.
  void Requeue(Admitted item);

  /// Estimate for a request resuming after suspension with `prefill_pos`
  /// prompt tokens already prefilled (absolute; >= its original
  /// `reused_prefix`) and `steps_done` tokens already decoded. gpu_bytes stays
  /// the full completion footprint — the detached KV returns to the device —
  /// while prefill_tokens / total_gpu_seconds cover only remaining work, so
  /// fair-share never double-charges the finished slice.
  AdmissionEstimate EstimateResumed(const ServingRequest& request,
                                    size_t reused_prefix, size_t prefill_pos,
                                    size_t steps_done) const;

  /// Copy of the per-tenant fair-share ledger (deficit balances + lifetime
  /// admitted work) — the snapshot's no-starvation evidence.
  TenantLedger TenantLedgerSnapshot() const;

  /// Returns a finished (or failed) request's reservation to the pool.
  void Release(uint64_t id);

  // --- Cancellation-aware queue surgery (live serving) ---
  //
  // Queued requests hold no reservation, so removal is pure bookkeeping; the
  // caller finalizes the returned items (typed kCancelled results). An id that
  // a concurrent Admit() already popped is simply not found — exactly one side
  // wins the queue entry.

  /// Removes one queued (not yet admitted) request. Empty when the id is
  /// unknown, already admitted, or already released. Resume entries are
  /// skipped unless `include_resume`: a caller-thread cancel must not steal a
  /// suspended request's queue entry out from under the driver, which owns
  /// the suspended lifecycle and passes include_resume=true.
  std::optional<Admitted> RemoveQueued(uint64_t id, bool include_resume = false);

  /// Empties the queue (engine Abort). Active reservations are untouched.
  std::vector<Admitted> TakeAllQueued();

  /// Replaces an admitted request's reservation with `actual` — the estimate
  /// recomputed against the prefix reuse DB.create_session really found. The
  /// enqueue-time probe is a TOCTOU estimate: the store can change between
  /// Enqueue and Admit (guaranteed to under background Store), so the engine
  /// re-estimates at session-creation time and calls this so reservations
  /// never diverge from real footprints. The request stays admitted even if
  /// the fresh estimate exceeds the budget (its session already exists;
  /// aborting it would strand work) — subsequent admissions simply see the
  /// corrected, larger reservation. No-op for unknown/released ids.
  void UpdateReservation(uint64_t id, const AdmissionEstimate& actual);

  /// Records `modeled_seconds` of completed work against an admitted request.
  /// The engine calls this as it charges modeled step/chunk time; the running
  /// balance feeds RunningRequestView::remaining_seconds so victim ranking
  /// can weigh how much work a suspension would defer. No-op for
  /// unknown/released ids.
  void RecordProgress(uint64_t id, double modeled_seconds);

  size_t queued() const;
  size_t active() const;
  /// Sum of admitted requests' projected device bytes (fleet-wide).
  uint64_t reserved_gpu_bytes() const;
  /// Sum of admitted requests' projected per-step device seconds (each at its
  /// EffectiveStepSeconds, i.e. the worse of its prefill and decode phases),
  /// fleet-wide.
  double reserved_step_seconds() const;

  /// Per-device load snapshot (reserved bytes/seconds, active sessions) —
  /// what the placement policy saw, for benches/tests/snapshots.
  std::vector<DeviceLoad> DeviceLoads() const;

  const RequestSchedulerOptions& options() const { return options_; }

 private:
  /// Asks the placement policy where the request could go right now; nullopt
  /// when it must keep waiting. Caller holds mu_.
  PlacementDecision PlaceLocked(const Admitted& item) const;

  /// Policy view of one queued entry. Caller holds mu_.
  QueuedRequestView ViewOfLocked(const Admitted& item) const;
  /// Creates the tenant's ledger entry on first sight (weight from
  /// options.tenant_weights). Caller holds mu_.
  void EnsureTenantLocked(uint64_t tenant_id);
  /// Removes pending_[index] and returns it: the one way an entry leaves the
  /// queue. Applies the DRR reset — a tenant whose queue just emptied
  /// forfeits banked deficit (idle tenants do not accumulate credit). Caller
  /// holds mu_.
  Admitted ErasePendingLocked(size_t index);
  /// Ranks running victims for a blocked pick and returns the shortest
  /// ranking prefix whose suspension would let `blocked` place (empty when
  /// none would). Caller holds mu_.
  std::vector<uint64_t> AdviseVictimsLocked(const Admitted& blocked) const;

  struct ActiveEntry {
    AdmissionEstimate estimate;
    int device = 0;
    /// Gang members holding this request's reservation shares (gang[0] ==
    /// device; size <= 1 = single-device).
    std::vector<int> gang;
    int priority = 0;
    uint64_t tenant_id = 0;
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    uint64_t admit_order = 0;  ///< Monotonic admission stamp (victim ranking).
    /// Modeled device-seconds of work completed so far (RecordProgress) —
    /// subtracted from the estimate for cost-aware victim ranking.
    double consumed_seconds = 0;
  };

  /// Adds (`sign` = +1) or removes (-1) one request's reservation shares —
  /// an even byte/step split across `members` (remainder on the primary),
  /// one active session counted per member. Caller holds mu_.
  void ApplyReservationLocked(const std::vector<int>& members,
                              const AdmissionEstimate& estimate, int sign);

  ModelConfig model_;
  WindowCache window_;
  CostModel cost_;
  RequestSchedulerOptions options_;
  std::shared_ptr<const PlacementPolicy> placement_;
  FairSharePolicy policy_;

  mutable std::mutex mu_;
  std::deque<Admitted> pending_;
  std::map<uint64_t, ActiveEntry> active_;
  std::vector<DeviceLoad> loads_;  ///< One per device; budgets fixed at ctor.
  TenantLedger ledger_;  ///< Fair-share accounting, mutated via the policy.
  uint64_t next_id_ = 1;
  uint64_t admit_seq_ = 0;  ///< Stamps ActiveEntry::admit_order.
};

}  // namespace alaya
