// Live multi-session serving engine — the always-on front door the paper's
// MaaS scenario (§2) needs: one data foundation, many concurrent decoding
// sessions, requests arriving and retiring while the engine runs.
//
// Lifecycle (Created → Running → Draining → Stopped):
//   - Start() spawns a persistent driver thread that loops admit → step →
//     retire. Requests submitted while the engine is live are admitted at the
//     next step boundary — the continuous-batching entry point.
//   - Submit() is non-blocking: it queues the request and returns a
//     RequestHandle owning Wait()/TryWait(), Cancel(), and (via the request's
//     on_token callback) per-step streaming of decoded output blocks.
//   - Shutdown() is graceful: the driver keeps admitting and stepping until
//     both the queue and the active set drain, then the materialization queue
//     is drained too. Abort() stops now: active sessions and queued requests
//     retire with kCancelled. Both join the driver; the engine is restartable
//     (Stopped → Running via Start).
//   - RunToCompletion() is a thin wrapper — Start(); WaitIdle(); Shutdown() —
//     so the batch-style tests, benches and examples exercise exactly the
//     live machinery.
//
// Inside the driver loop each step:
//   1. cancellations and expired deadlines are swept: a cancelled or expired
//      session retires mid-decode with a typed kCancelled/kDeadlineExceeded
//      status, releasing its scheduler reservation and context pin and
//      skipping its store_on_finish;
//   2. the RequestScheduler sweeps queued requests whose deadline passed and
//      admits the rest under the GPU memory budget (prefilled prompt suffix
//      + projected window + decoded-tail footprint) and optional TPOT SLO;
//      each admitted request becomes a Session via DB.create_session —
//      concurrent requests over the same document share the stored context
//      and its indices (prefix reuse, §7.1); a prompt extending past every
//      stored context enters the Prefilling state (per-step chunks through
//      Session::UpdateBatch, batched across sessions, overlapped with the
//      decode layer loop);
//   3. the step's token budget (RequestSchedulerOptions::step_token_budget)
//      is split: decode is funded first — one token per Decoding session —
//      and the remainder is dealt to Prefilling sessions FIFO in chunks of
//      at most prefill_chunk_tokens (PlanStep); chunks launch into a
//      PrefillWave (a dynamic join, not a fixed latch) and overlap the
//      decode layer loop;
//   4. fully-resident sessions decode in lockstep: per layer, every session's
//      Update runs, then all sessions' (session, kv_head) attention calls
//      (each answering the query heads that share the KV head) are
//      flattened into ONE batch on the shared ThreadPool
//      (src/query/batched_diprs.h); after a session's last layer its output
//      block is streamed through on_token; BETWEEN layers (and while waiting
//      out the step's prefill wave) the driver polls the scheduler and admits
//      newly queued requests mid-step — a new session's first prefill chunk
//      draws from the step's unspent budget and joins the wave already in
//      flight instead of waiting for the batch to drain;
//   5. finished sessions optionally store their context (late
//      materialization through DB.store_async, off the step loop) and
//      release their admission reservation the moment their last token
//      decodes, before the wave join, so the same step's admission polls can
//      fill the freed slot.
//
// Request lifecycle: Queued (scheduler backlog) → Prefilling (prompt suffix
// chunks) → Decoding (lockstep tokens) → Retiring (terminal result published,
// reservation released). Requests with a fully-covered prompt skip straight
// to Decoding. Retiring is the one terminal state: finishing the last token,
// an error, cancellation, deadline expiry and abort all enter it, and one
// retire routine publishes the result. Under preemption a running
// Prefilling/Decoding session may additionally be Suspended (KV detached and
// parked host-side, slot yielded to a higher-priority request) and later
// Resuming (KV reattached, the phase it was suspended in continues from the
// exact position — zero recompute, so the resumed decode is bit-identical to
// an uninterrupted one).
//
// Determinism: with deterministic fill_step/fill_prompt callbacks, a
// concurrent schedule produces bit-identical outputs to a sequential one —
// each session's state evolves only from its own inputs; batching changes
// scheduling, not math. Cancellation changes *which* steps run, never their
// values.
//
// Sharded serving (ServingEngineOptions::devices > 1): admission places each
// request on one device of the environment's DeviceSet via the scheduler's
// PlacementPolicy (best-fit by free KV bytes with a warm-context affinity
// bonus; per-device memory budgets and per-device TPOT accounting, so one hot
// device never throttles admission to idle ones). Sessions bind to their
// device — KV residency on its tracker, modeled kernels on its clock — and
// every device's session group advances through the same shared-pool batch
// each step (per-device lockstep with aligned step boundaries), which is why
// the concurrent==sequential goldens hold at any fleet size: placement moves
// sessions between devices, never their math. Reusing a context warm on
// another device charges a modeled interconnect transfer and re-homes it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/quantile_sketch.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/alaya_db.h"
#include "src/query/batched_prefill.h"
#include "src/server/request_scheduler.h"

namespace alaya {

struct ServingEngineOptions {
  RequestSchedulerOptions scheduler;
  /// Worker pool for cross-session batches (nullptr -> ThreadPool::Global()).
  ThreadPool* pool = nullptr;
  /// Simulated devices to serve across (clamped to >= 1). The engine grows
  /// the DB environment's DeviceSet to this size, builds the scheduler over
  /// that fleet (per-device budgets + TPOT, placement policy), binds each
  /// admitted session to its placed device, and reports per-device counters
  /// in the snapshot. With 1 (the default) the whole system is bit-identical
  /// to the pre-sharding engine: one tracker, one clock, device 0 everywhere.
  size_t devices = 1;
  /// Bounded result retention: keep at most this many terminal results in the
  /// id-keyed result() map, evicting the oldest (lowest id) beyond it. Results
  /// are owned by their tickets, so RequestHandle::Wait/TryWait pointers stay
  /// valid for as long as the handle is held even after eviction — only the
  /// id-based result() lookup forgets. 0 = unlimited (the old always-grow
  /// behavior; an always-on engine then leaks one entry per request served).
  size_t result_retention = 4096;
};

/// Synthetic id for the `step`-th decoded token of request `request_id`, used
/// when a store_on_finish request supplies no token_at callback. Two sessions
/// storing over the same base context must not produce identical token
/// sequences with different KV (later prompts would silently match the wrong
/// one), so (request_id, step) is mixed through a 64-bit hash into
/// [2^30, 2^31): always positive, disjoint from small hand-rolled test ids,
/// and collision-free in practice — unlike the old `(id % 20'000) * 100'000`
/// salt, which deterministically collided for request ids 20'000 apart.
int32_t SyntheticStoredTokenId(uint64_t request_id, size_t step);

/// Terminal state of one request.
struct RequestResult {
  uint64_t id = 0;
  Status status;  ///< Ok, a per-request error, kCancelled or kDeadlineExceeded.
  size_t reused_prefix = 0;
  uint64_t reused_context_id = 0;  ///< 0 when no stored context matched.
  /// store_on_finish: the stored context's id, a reservation ticket — the
  /// context becomes matchable once its materialization publishes
  /// (Shutdown/Drain is the barrier); if the build fails the id never
  /// publishes and db.materialization_errors() maps it to the reason. Results
  /// are immutable once terminal, so the failure is NOT written back here.
  uint64_t stored_context_id = 0;
  size_t prefilled_tokens = 0;     ///< Prompt tokens pushed through prefill.
  size_t steps_completed = 0;
  /// record_outputs: concatenated final-layer outputs, one
  /// [num_q_heads * head_dim] block per step.
  std::vector<float> outputs;
  AttentionCallStats stats;  ///< Summed over all steps/layers/heads.
  double prefill_wall_seconds = 0;
  double decode_wall_seconds = 0;
  /// Submit -> first decoded output block (queueing + admission + prefill +
  /// first step). 0 when no token was produced.
  double ttft_seconds = 0;
  /// Scheduling class and fair-share identity the request ran under (copied
  /// from the ServingRequest so results are self-describing for per-class /
  /// per-tenant aggregation).
  int priority = 0;
  uint64_t tenant_id = 0;
  /// Preemption lifecycle: times this request was suspended mid-run to yield
  /// its slot, and times it was resumed. resumes can lag preemptions by one
  /// when the request reached a terminal state while suspended.
  size_t preemptions = 0;
  size_t resumes = 0;
};

/// A submitted request's ticket: the handle and the driver communicate
/// through it. Internal — callers hold it via RequestHandle. The ticket OWNS
/// its terminal result (shared with the engine's evictable result() map), so
/// a handle's Wait/TryWait pointers survive result-map eviction.
struct RequestTicket {
  uint64_t id = 0;
  std::atomic<bool> cancel_requested{false};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<const RequestResult> result;  ///< Set exactly once, before done.
};

class ServingEngine;

/// Caller-side handle to one in-flight request. Copyable and cheap; all
/// methods are thread-safe. The engine must outlive every handle.
class RequestHandle {
 public:
  RequestHandle() = default;

  bool valid() const { return ticket_ != nullptr; }
  uint64_t id() const { return ticket_ != nullptr ? ticket_->id : 0; }

  /// Blocks until the request reaches a terminal state (finished, failed,
  /// cancelled, or deadline-exceeded) and returns its result. The pointer
  /// stays valid for the engine's lifetime. Blocks forever if the engine is
  /// never run — use TryWait to poll. Nullptr on an invalid handle.
  const RequestResult* Wait() const;

  /// Non-blocking: the terminal result, or nullptr while still in flight.
  const RequestResult* TryWait() const;

  /// Requests cancellation. A still-queued request retires immediately (even
  /// on a stopped engine); a running session retires at its next step
  /// boundary with kCancelled, releasing its reservation and context pin and
  /// skipping its store_on_finish. Best-effort: a request that retires
  /// normally before the driver observes the flag completes with Ok. Returns
  /// false when the request already reached a terminal state.
  bool Cancel() const;

 private:
  friend class ServingEngine;
  RequestHandle(ServingEngine* engine, std::shared_ptr<RequestTicket> ticket)
      : engine_(engine), ticket_(std::move(ticket)) {}

  ServingEngine* engine_ = nullptr;
  std::shared_ptr<RequestTicket> ticket_;
};

/// Per-device serving counters (one entry per simulated device). Placement
/// and token counters are lifetime totals written by the driver; residency,
/// reservation and clock fields are read live at snapshot() time.
struct DeviceServingStats {
  int device = 0;
  size_t placements = 0;  ///< Requests admitted onto this device (lifetime).
  /// Placements whose matched prefix context was warm on another device: the
  /// session paid a modeled cross-device window transfer at creation.
  size_t cross_device_reuses = 0;
  uint64_t transfer_bytes = 0;  ///< Modeled bytes pulled over the interconnect.
  size_t tokens_decoded = 0;    ///< Decoded by sessions placed here.
  size_t tokens_prefilled = 0;  ///< Prefilled by sessions placed here.
  uint64_t peak_gpu_bytes = 0;  ///< Max device residency observed at step ends.
  uint64_t reserved_bytes = 0;  ///< Scheduler reservation currently held here.
  size_t active_sessions = 0;   ///< Admitted sessions currently placed here.
  /// Gang shards placed on this device (lifetime): each gang admission or
  /// resume increments every member's count, so a gang-of-4 decode shows
  /// gang_shards > 0 on all four members — the bench's sharding self-gate.
  size_t gang_shards = 0;
  /// The device's virtual clock: modeled seconds of kernels + transfers it
  /// has executed — the utilization axis (relative to the busiest device).
  double modeled_busy_seconds = 0;
};

/// Per-tenant fair-share counters: the scheduler's live ledger (weight,
/// deficit balance, lifetime admitted work) merged with the engine's terminal
/// counters. `admitted > 0` for every tenant that submitted work is the
/// no-starvation evidence the bench asserts.
struct TenantServingStats {
  uint64_t tenant_id = 0;
  double weight = 1.0;
  /// Banked fair-share credit in modeled device-seconds (resets when the
  /// tenant's queue drains — idle tenants do not accumulate credit).
  double deficit_seconds = 0;
  double admitted_seconds = 0;  ///< Lifetime modeled seconds admitted.
  size_t admitted = 0;          ///< Admissions (resumes included).
  size_t completed = 0;         ///< Terminal results (errors/cancels included).
  size_t preempted = 0;         ///< Suspensions of this tenant's sessions.
  size_t resumed = 0;
};

/// Per-priority-class counters. The TTFT quantiles are streaming P² sketches
/// over EVERY completed request that produced a token — the p99 input the
/// preemption bench reports per class (high-priority p99 staying flat under
/// low-priority load is the headline number). Unlike the old first-4096
/// sampling, a long run's tail keeps contributing: O(1) memory per class,
/// no truncation bias toward early (usually uncontended) requests.
struct ClassServingStats {
  int priority = 0;
  size_t completed = 0;
  size_t preempted = 0;
  size_t resumed = 0;
  size_t ttft_count = 0;  ///< Requests folded into the sketches.
  P2QuantileSketch ttft_p50{0.50};
  P2QuantileSketch ttft_p99{0.99};
};

/// Aggregate serving metrics over one engine lifetime.
struct ServingSnapshot {
  size_t submitted = 0;
  size_t rejected = 0;   ///< Failed at Enqueue (kBacklogFull / kNeverFits).
  size_t completed = 0;  ///< Reached a terminal state (incl. errors/cancels).
  size_t cancelled = 0;  ///< Retired with kCancelled.
  size_t deadline_exceeded = 0;  ///< Retired with kDeadlineExceeded.
  size_t tokens_prefilled = 0;   ///< Prompt tokens pushed through prefill.
  size_t tokens_decoded = 0;
  size_t engine_steps = 0;       ///< Driver steps executed (lifetime).
  /// Requests admitted *inside* a running step (between decode layers or
  /// while the step's prefill wave drains) rather than at a step boundary —
  /// the continuous-batching counter.
  size_t midstep_admissions = 0;
  /// Sessions retired *inside* a running step — the moment their last token
  /// decoded, instead of at the step boundary — freeing their slot for the
  /// same step's mid-step admission polls.
  size_t midstep_retirements = 0;
  /// Preemptive scheduling: running sessions suspended to yield their slot to
  /// a higher-priority request, and suspended sessions resumed (with zero
  /// prefill/decode recompute). preemptions >= resumes; the gap is requests
  /// that reached a terminal state (cancel/deadline/abort) while suspended.
  size_t preemptions = 0;
  size_t resumes = 0;
  /// Context parallelism: admissions (resumes included) that placed on a
  /// multi-device gang, and the modeled ring-exchange bytes their sessions
  /// moved between members — see RequestSchedulerOptions::max_gang_size.
  size_t gang_admissions = 0;
  uint64_t gang_ring_transfer_bytes = 0;
  double serve_wall_seconds = 0;   ///< Wall time the driver thread was live.
  double tokens_per_second = 0;    ///< Aggregate decode throughput.
  size_t peak_concurrent_sessions = 0;
  uint64_t peak_gpu_bytes = 0;  ///< Max FLEET residency observed at step ends
                                ///< (sampled during prefill and decode alike;
                                ///< with one device, that device's peak).
  /// Background materialization (store_on_finish):
  /// jobs still queued/running, and lifetime completed/failed totals.
  size_t materializations_pending = 0;
  size_t materializations_completed = 0;
  size_t materializations_failed = 0;
  /// Tiered context store (DbOptions::tier): lifetime spill / page-in /
  /// prefetch counters plus current residency split. All zero when tiering
  /// is disabled.
  uint64_t tier_spills = 0;
  uint64_t tier_page_ins = 0;
  uint64_t tier_prefetches = 0;
  size_t tier_resident_contexts = 0;
  size_t tier_spilled_contexts = 0;
  uint64_t tier_resident_kv_bytes = 0;  ///< Deployed (codec-compressed) bytes.
  /// Sharded serving: one entry per device (a single entry on the default
  /// single-device fleet — its counters then mirror the aggregates above).
  std::vector<DeviceServingStats> devices;
  /// Multi-tenant fair share: one entry per tenant ever seen, ascending id.
  std::vector<TenantServingStats> tenants;
  /// Priority classes: one entry per distinct priority seen, ascending.
  std::vector<ClassServingStats> classes;
};

class ServingEngine {
 public:
  /// Engine lifecycle. Stopped engines are restartable: Start() after
  /// Shutdown()/Abort() begins a fresh run over whatever is queued.
  enum class State { kCreated, kRunning, kDraining, kStopped };

  /// `db` must outlive the engine. The scheduler plans against the DB's model
  /// geometry, session window config, and environment cost model; unless the
  /// caller supplies one, its prefix probe is wired to the DB's context store
  /// so admission projects prefill work from live store contents.
  ServingEngine(AlayaDB* db, const ServingEngineOptions& options);
  /// Aborts a still-running driver (queued and active requests retire with
  /// kCancelled) and joins it.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Spawns the persistent driver thread (Created/Stopped -> Running).
  /// Requests already queued are admitted immediately; later Submits are
  /// admitted at the next step boundary. FailedPrecondition when the engine
  /// is already running or draining.
  Status Start();

  /// Graceful stop (Running -> Draining -> Stopped): the driver keeps
  /// admitting and stepping until the queue and active set drain, then the
  /// materialization queue is drained (store failures land in the snapshot
  /// counters and db.materialization_errors()). Blocks until the driver has
  /// exited and returns its terminal status. Idempotent; Ok on a
  /// never-started engine.
  Status Shutdown();

  /// Immediate stop: active sessions and queued requests retire with
  /// kCancelled (stores skipped, reservations released); materializations
  /// already handed off still drain. Blocks until the driver has exited.
  Status Abort();

  /// Blocks until the engine has no queued or admitted work (or is not
  /// running). Results of requests finished before WaitIdle returns are
  /// visible. Requests submitted concurrently with the wait may or may not
  /// be covered — callers who need per-request completion use Wait().
  void WaitIdle();

  State state() const;

  /// Queues a request and returns its handle (thread-safe, non-blocking;
  /// callable in every state — a stopped engine serves the backlog on its
  /// next Start). Fails fast with typed kBacklogFull (retryable) or
  /// kNeverFits (permanent) rejections.
  Result<RequestHandle> Submit(ServingRequest request);

  /// Batch-style convenience: Start(); WaitIdle(); Shutdown(). Drives every
  /// queued request to completion through the live driver and returns the
  /// run's terminal status. Per-request failures land in their
  /// RequestResult instead.
  Status RunToCompletion();

  /// Result lookup (nullptr while still in flight, or after the id was
  /// evicted under options.result_retention). Thread-safe: monitoring threads
  /// may poll while the driver runs; a returned pointer stays valid until the
  /// id is evicted (for the engine's lifetime when retention is unlimited or
  /// fewer results than the cap exist), and a terminal result is immutable —
  /// readers never need to synchronize against the driver or Shutdown.
  /// Callers who must outlive eviction hold the RequestHandle and use Wait.
  const RequestResult* result(uint64_t id) const;

  /// Aggregate metrics so far. Thread-safe snapshot (consistent at step
  /// granularity while a run is in flight).
  ServingSnapshot snapshot() const;
  RequestScheduler& scheduler() { return scheduler_; }

 private:
  friend class RequestHandle;

  /// Where an admitted request is in its lifecycle. A session Prefills its
  /// uncovered prompt suffix — one budgeted chunk per step — until
  /// prefill_pos reaches the prompt end, then Decodes one lockstep token per
  /// step while tokens remain. kRetiring is the single terminal state: the
  /// last token, Fail() (errors, cancellation, deadline expiry, abort) and
  /// nothing else enter it, and RetireSessions publishes the result and
  /// releases the reservation. A session is never in two states at once: the
  /// budget split (PlanStep) relies on Prefilling and Decoding being disjoint
  /// sets.
  ///
  /// kSuspended is the preemption parking state: the session's KV is detached
  /// host-side, its slot released, and the request waits in suspended_ (keyed
  /// by id) with a resume entry queued at the scheduler. Resume rebuilds the
  /// session and re-enters the phase (kPrefilling/kDecoding) it left at the
  /// exact position it left it.
  enum class RequestState { kPrefilling, kDecoding, kSuspended, kRetiring };

  struct ActiveSession {
    uint64_t id = 0;
    int device = 0;  ///< Fleet device the scheduler placed this session on.
    ServingRequest request;
    std::unique_ptr<Session> session;
    std::shared_ptr<Context> context_ref;  ///< Pins the reused context.
    std::shared_ptr<RequestTicket> ticket;  ///< May lag Submit; fetched lazily.
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point deadline;  ///< time_point::max() = none.
    /// status stays Ok until the first failure (see Fail).
    RequestResult result;
    RequestState state = RequestState::kPrefilling;  ///< Set at admission.
    size_t prefill_pos = 0;  ///< Next prompt token to prefill (absolute).
    size_t step = 0;
    bool was_prefilling = false;  ///< State at the start of the current step.
    /// Tokens of this step's prefill chunk (0 = no chunk launched this step —
    /// the budget ran dry), and the chunk's Status, written by the wave task
    /// and read only after the step's join.
    size_t chunk_granted = 0;
    Status chunk_status;
    // Per-step scratch, reused across steps.
    std::vector<float> q;    ///< [num_q_heads * head_dim]
    std::vector<float> k;    ///< [num_kv_heads * head_dim]
    std::vector<float> v;    ///< [num_kv_heads * head_dim]
    std::vector<float> out;  ///< [num_q_heads * head_dim]
    std::vector<float> pq, pk, pv;  ///< Prefill chunk scratch (token-major).
    std::vector<AttentionCallStats> head_stats;  ///< One per q_head.
    /// Preemption parking: the detached KV + recorded queries while the
    /// request is kSuspended (engaged exactly then), and the host-memory
    /// reservation covering the parked bytes. The decode position (step) and
    /// prefill_pos above are the rest of the suspended state — fill callbacks
    /// are pure functions of (step/token, layer), so those counters ARE the
    /// generator state and resume restarts from them bit-identically.
    std::optional<Session::SuspendedState> suspended_kv;
    MemoryReservation host_kv_reservation;
  };

  /// One engine step's working set, threaded through the step phases.
  struct StepState;

  enum class StopMode { kNone, kDrain, kAbort };

  void DriverLoop();
  /// Step boundary: fails running sessions that were cancelled or expired,
  /// and finalizes suspended ones (winning their resume entry first).
  /// Expired queued requests are swept by the next Admit round.
  void SweepCancellations();
  /// The one cancel-then-deadline check: Ok while the request may keep
  /// running, else the typed kCancelled/kDeadlineExceeded status (`where`
  /// completes its message). Fetches a lagging ticket.
  Status CheckLive(ActiveSession* a, std::chrono::steady_clock::time_point now,
                   const char* where);
  /// Moves `a` to kRetiring with `status`; the first failure status wins.
  static void Fail(ActiveSession* a, Status status);
  /// Pops every currently admissible request from the scheduler, builds its
  /// session (or resumes a suspended one), and appends it to active_. With
  /// `newly` set, collects raw pointers to the sessions actually added (the
  /// mid-step path launches their first chunks). With `allow_preempt`, a
  /// blocked higher-priority pick may suspend running lower-priority victims
  /// (the scheduler advises, SuspendVictim executes, and admission re-runs) —
  /// step-boundary only; the mid-step path passes false. Returns the number
  /// added.
  size_t AdmitInto(std::vector<ActiveSession*>* newly, bool allow_preempt);
  /// Binds a freshly built session to its placement — device, and the gang
  /// when the admission spanned devices (before any KV lands: a session only
  /// accepts a gang while it holds zero local KV) — and records the device,
  /// cross-device reuse and gang counters. Serves admissions and resumes.
  /// Returns the gang bind's status.
  Status BindPlacement(ActiveSession* a, const RequestScheduler::Admitted& adm,
                       uint64_t cross_device_transfer_bytes);
  /// Suspends one running session by id (driver thread only): detaches its
  /// KV + decode state, parks the bytes host-side (modeled device→host
  /// offload charged to its device clock), drops the context pin (the tier
  /// layer may spill the context while the request waits), requeues a resume
  /// entry and releases the slot. False when the id is not an active,
  /// non-terminal session (nothing was freed).
  bool SuspendVictim(uint64_t id);
  /// Re-admission of a suspended request: rebuilds the session over the same
  /// context/prefix (AlayaDB::ResumeSession — page-in if spilled), reattaches
  /// the parked KV (modeled host→device upload charged to the new device),
  /// and re-enters the exact phase/position it left. Terminal-while-suspended
  /// (cancel/deadline) or a failed rebuild finalizes through
  /// FinalizeSuspended instead. Appends to active_ and `newly`.
  void ResumeSuspended(RequestScheduler::Admitted&& adm,
                       std::vector<ActiveSession*>* newly);

  // --- One engine step, as named phases (StepActiveSessions runs them) ---

  /// `step_timer` is the driver's wall timer for this step: sessions retired
  /// mid-step get their partial-step wall time attributed from it (the
  /// driver's post-step attribution loop no longer sees them). A session's
  /// failure fails only that session.
  void StepActiveSessions(const WallTimer& step_timer);
  /// Splits the active set into decoding and prefilling sessions, plans the
  /// step's token budget (PlanStep) and launches the prefill chunks into the
  /// wave. False when no session has work this step.
  bool BeginStep(StepState* s);
  /// One decode layer over the step's decoding sessions: Update fan-out,
  /// one batch of (session, kv_head) attention jobs, then per-session
  /// accounting — and, after the last layer, token emission.
  void DecodeLayer(StepState* s, uint32_t layer);
  /// Mid-step admission: admits queued requests while a step is in flight
  /// (between decode layers / during the wave join). Newly admitted
  /// Prefilling sessions draw a first chunk from the step's unspent budget
  /// and launch it into the wave; sessions granted a chunk join `chunked` so
  /// the fold covers them.
  void MidStepAdmit(StepState* s);
  /// Launches one prefill chunk of `count` tokens into `wave`, recording the
  /// grant in a->chunk_granted (accounting) and pointing the job's status at
  /// a->chunk_status.
  void LaunchChunk(ActiveSession* a, size_t count, PrefillWave* wave);
  /// Retires the sessions whose last token just decoded, freeing their slots
  /// for the wave-tail admission polls.
  void RetireMidStep(const WallTimer& step_timer);
  /// Joins the prefill wave, polling mid-step admissions while it drains.
  void JoinWave(StepState* s);
  /// Folds joined prefill chunks: chunk failures, modeled prefill cost,
  /// prefill progress and the Prefilling → Decoding transition.
  void FoldPrefillChunks(StepState* s);
  /// Publishes the step's token counters and residency peaks.
  void PublishStepCounters(const StepState& s);
  /// Folds the fleet's current residency into the per-device and fleet
  /// peak_gpu_bytes high-water marks. Caller holds mu_. Called at the end of
  /// every step, and additionally just before mid-step retirement frees a
  /// retiring session's KV (the step's true footprint would otherwise be
  /// missed by the end-of-step sample).
  void SampleResidencyPeaksLocked();

  // --- Exit paths ---

  /// Retires kRetiring sessions from active_ through FinishSession. At a
  /// step boundary (`midstep_timer` null) every kRetiring session retires;
  /// mid-step only those that finished cleanly, each credited the step's
  /// wall time so far. Returns the number retired.
  size_t RetireSessions(const WallTimer* midstep_timer);
  /// Stores (store_on_finish, clean finish only), publishes the result and
  /// releases the reservation of one retiring session.
  void FinishSession(ActiveSession* active);
  /// Publishes a terminal result and wakes its handle's waiters.
  void FinalizeResult(uint64_t id, RequestResult&& result);
  /// Finalizes a request the caller removed from the scheduler queue
  /// (cancel, expiry, never-fits, abort). It holds no reservation; a resume
  /// entry routes to its parked state (FinalizeSuspended). Resume entries
  /// reach here only on the driver thread, which owns suspended_.
  void FinalizeDequeued(RequestScheduler::Admitted&& adm, Status status);
  /// Finalizes a request parked in suspended_: publishes the terminal result
  /// and frees the parked KV. The caller must already own the queue entry
  /// (or, on resume, the admission) — a parked id holds no reservation.
  void FinalizeSuspended(uint64_t id, Status status);
  bool CancelRequest(const std::shared_ptr<RequestTicket>& ticket);
  std::shared_ptr<RequestTicket> FindTicket(uint64_t id);
  /// Drains materializations (store failures land in the snapshot counters
  /// and db.materialization_errors(); published results are never amended)
  /// and folds the run's wall time into the snapshot. Runs on the driver
  /// thread as its last act.
  void FinalizeRun();
  /// Joins a driver that has reached kStopped. Caller holds life_mu_.
  Status JoinStoppedDriverLocked();

  AlayaDB* db_;
  ServingEngineOptions options_;
  RequestScheduler scheduler_;
  ThreadPool* pool_;

  std::vector<std::unique_ptr<ActiveSession>> active_;  ///< Driver-thread-only.
  /// Preempted requests parked until a resume entry re-admits them (or they
  /// reach a terminal state while waiting). Driver-thread-only. Invariant:
  /// every entry here has a matching resume entry queued at the scheduler
  /// (requeue-before-release ordering), so WaitIdle can never observe an idle
  /// system while a request is suspended.
  std::map<uint64_t, std::unique_ptr<ActiveSession>> suspended_;

  // Lifecycle. life_cv_ carries every "work or state changed" signal: Submit
  // and Cancel wake an idle driver, the driver announces idleness (WaitIdle)
  // and its exit (Shutdown/Abort). Notifiers hold life_mu_ so a waiter
  // evaluating its predicate cannot miss the wakeup.
  mutable std::mutex life_mu_;
  std::condition_variable life_cv_;
  State state_ = State::kCreated;
  StopMode stop_mode_ = StopMode::kNone;
  std::thread driver_;
  Status run_status_;  ///< Terminal status of the last run (sticky until Start).
  WallTimer run_timer_;  ///< Start -> driver exit, accumulated across runs.

  // Submit and monitoring threads may race with the driver: submit counters
  // are atomic; results_, tickets_ and the rest of the snapshot are guarded
  // by mu_ (the driver takes it briefly at step/retire boundaries).
  std::atomic<size_t> submitted_{0};
  std::atomic<size_t> rejected_{0};
  /// Requests pulled out of the scheduler queue whose terminal result is not
  /// yet published. Incremented BEFORE the removal, decremented after
  /// FinalizeResult: WaitIdle's predicate requires it to be zero, so the
  /// idle observation implies every finished request's result is visible
  /// (the admitted path gets the same guarantee from finalize-before-Release
  /// ordering in FinishSession).
  std::atomic<size_t> finalizing_{0};
  mutable std::mutex mu_;
  /// Terminal results, shared with their tickets (which own them for the
  /// handle's lifetime). Bounded: beyond options.result_retention the oldest
  /// ids are evicted, so an always-on engine no longer grows with total
  /// requests served — result(id) then returns nullptr for evicted ids while
  /// every outstanding handle's Wait/TryWait pointer stays valid.
  std::map<uint64_t, std::shared_ptr<const RequestResult>> results_;
  std::map<uint64_t, std::shared_ptr<RequestTicket>> tickets_;  ///< In flight.
  ServingSnapshot snapshot_;
  /// Driver-written per-device lifetime counters (guarded by mu_); residency
  /// and reservation fields are merged in at snapshot() time.
  std::vector<DeviceServingStats> device_stats_;
  /// Per-class / per-tenant lifetime counters (guarded by mu_). The tenant
  /// map holds only the engine-side counters; the scheduler's live ledger
  /// (weight/deficit/admitted) is merged in at snapshot() time.
  std::map<int, ClassServingStats> class_stats_;
  std::map<uint64_t, TenantServingStats> tenant_stats_;
};

}  // namespace alaya
