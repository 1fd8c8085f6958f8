#include "src/server/serving_engine.h"

#include <algorithm>
#include <span>

#include "src/common/rng.h"
#include "src/device/gang.h"
#include "src/query/batched_diprs.h"

namespace alaya {

namespace {

/// Normalizes engine options: clamps the fleet size and defaults the
/// scheduler's prefix probe to the DB's context store — admission then
/// projects prefill work from what is actually stored, and placement sees
/// which device holds the matched context (affinity).
ServingEngineOptions WithDefaults(AlayaDB* db, ServingEngineOptions o) {
  o.devices = std::max<size_t>(1, o.devices);
  if (o.scheduler.prefix_probe == nullptr) {
    // Matched length + affinity device from one walk. Hitting a spilled
    // context here is the prefetch hook: the page-in runs on the materialize
    // pool while the request waits for admission, so by the time
    // CreateSession needs the context it is (usually) resident.
    o.scheduler.prefix_probe = [db](std::span<const int32_t> tokens) {
      const ContextStore::PrefixMatch match = db->contexts().BestPrefixMatch(tokens);
      if (match.spilled) db->PrefetchContext(match.id);
      return RequestSchedulerOptions::PrefixProbeResult{match.matched, match.device};
    };
  }
  return o;
}

}  // namespace

int32_t SyntheticStoredTokenId(uint64_t request_id, size_t step) {
  const uint64_t h = Mix64(Mix64(request_id) ^ static_cast<uint64_t>(step));
  return static_cast<int32_t>(UINT32_C(0x40000000) |
                              (static_cast<uint32_t>(h >> 33) & UINT32_C(0x3FFFFFFF)));
}

const RequestResult* RequestHandle::Wait() const {
  if (ticket_ == nullptr) return nullptr;
  std::unique_lock<std::mutex> lk(ticket_->mu);
  ticket_->cv.wait(lk, [&] { return ticket_->done; });
  // The ticket owns the result: the pointer survives result-map eviction for
  // as long as the caller holds the handle.
  return ticket_->result.get();
}

const RequestResult* RequestHandle::TryWait() const {
  if (ticket_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lk(ticket_->mu);
  return ticket_->done ? ticket_->result.get() : nullptr;
}

bool RequestHandle::Cancel() const {
  if (engine_ == nullptr || ticket_ == nullptr) return false;
  return engine_->CancelRequest(ticket_);
}

ServingEngine::ServingEngine(AlayaDB* db, const ServingEngineOptions& options)
    : db_(db),
      options_(WithDefaults(db, options)),
      scheduler_(db->options().model, db->options().session.window,
                 db->env().cost_model(), options_.scheduler, options_.devices),
      pool_(options_.pool != nullptr ? options_.pool : &ThreadPool::Global()) {
  // The fleet must exist before any placement decision can bind a session to
  // it. Grow-only and pointer-stable, so sessions of other engines sharing
  // this environment are unaffected.
  db_->env().devices().EnsureAtLeast(options_.devices);
  device_stats_.resize(options_.devices);
  for (size_t d = 0; d < device_stats_.size(); ++d) {
    device_stats_[d].device = static_cast<int>(d);
  }
}

ServingEngine::~ServingEngine() { (void)Abort(); }

Status ServingEngine::Start() {
  std::lock_guard<std::mutex> lk(life_mu_);
  if (state_ == State::kRunning || state_ == State::kDraining) {
    return Status::FailedPrecondition("engine is already running");
  }
  if (driver_.joinable()) driver_.join();  // Reap the previous run's thread.
  state_ = State::kRunning;
  stop_mode_ = StopMode::kNone;
  run_status_ = Status::Ok();
  run_timer_.Restart();
  driver_ = std::thread(&ServingEngine::DriverLoop, this);
  return Status::Ok();
}

Status ServingEngine::JoinStoppedDriverLocked() {
  if (driver_.joinable()) driver_.join();
  return run_status_;
}

Status ServingEngine::Shutdown() {
  std::unique_lock<std::mutex> lk(life_mu_);
  if (state_ == State::kCreated) return run_status_;
  if (state_ == State::kStopped) return JoinStoppedDriverLocked();
  if (stop_mode_ == StopMode::kNone) stop_mode_ = StopMode::kDrain;
  state_ = State::kDraining;
  life_cv_.notify_all();
  life_cv_.wait(lk, [&] { return state_ == State::kStopped; });
  return JoinStoppedDriverLocked();
}

Status ServingEngine::Abort() {
  std::unique_lock<std::mutex> lk(life_mu_);
  if (state_ == State::kCreated) return run_status_;
  if (state_ == State::kStopped) return JoinStoppedDriverLocked();
  stop_mode_ = StopMode::kAbort;  // Escalates a graceful drain in progress.
  state_ = State::kDraining;
  life_cv_.notify_all();
  life_cv_.wait(lk, [&] { return state_ == State::kStopped; });
  return JoinStoppedDriverLocked();
}

void ServingEngine::WaitIdle() {
  std::unique_lock<std::mutex> lk(life_mu_);
  life_cv_.wait(lk, [&] {
    if (state_ != State::kRunning && state_ != State::kDraining) return true;
    // Order matters: queued==0 proves any cancel/expiry dequeue already
    // happened, so a zero finalizing_ read afterwards proves its result
    // publication completed too — idle implies every result is visible.
    return scheduler_.queued() == 0 && scheduler_.active() == 0 &&
           finalizing_.load() == 0;
  });
}

ServingEngine::State ServingEngine::state() const {
  std::lock_guard<std::mutex> lk(life_mu_);
  return state_;
}

Status ServingEngine::RunToCompletion() {
  ALAYA_RETURN_IF_ERROR(Start());
  WaitIdle();
  return Shutdown();
}

Result<RequestHandle> ServingEngine::Submit(ServingRequest request) {
  auto ticket = std::make_shared<RequestTicket>();
  // The store probe (admission estimate + placement affinity) is an
  // O(prompt-length) trie walk — run it before taking mu_ so concurrent
  // submitters never stall the driver's finalize/snapshot paths on it.
  const RequestScheduler::EnqueuePreflight pre = scheduler_.Preflight(request);
  {
    // Enqueue and ticket registration are one atomic step under mu_: any
    // terminal result is published through FinalizeResult, which also takes
    // mu_, so the driver cannot finalize this request before its ticket
    // exists — the invariant that makes the result map safely evictable
    // (there is never a finalized request whose ticket will register later).
    std::lock_guard<std::mutex> lk(mu_);
    Result<uint64_t> id = scheduler_.Enqueue(std::move(request), pre);
    if (!id.ok()) {
      rejected_.fetch_add(1);
      return id.status();
    }
    submitted_.fetch_add(1);
    ticket->id = id.value();
    tickets_[ticket->id] = ticket;
  }
  {
    // Wake an idle driver. Notify under life_mu_ so a waiter between its
    // predicate check and its sleep cannot miss the signal.
    std::lock_guard<std::mutex> lk(life_mu_);
    life_cv_.notify_all();
  }
  return RequestHandle(this, std::move(ticket));
}

std::shared_ptr<RequestTicket> ServingEngine::FindTicket(uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tickets_.find(id);
  return it == tickets_.end() ? nullptr : it->second;
}

bool ServingEngine::CancelRequest(const std::shared_ptr<RequestTicket>& ticket) {
  {
    std::lock_guard<std::mutex> lk(ticket->mu);
    if (ticket->done) return false;
  }
  ticket->cancel_requested.store(true);
  // Still queued? Pull it out and finalize right here — effective even on a
  // stopped engine, and the driver can never see the request again (exactly
  // one of RemoveQueued/Admit wins the queue entry). Otherwise the request is
  // admitted (or mid-admission) and the driver observes the flag at the next
  // step boundary.
  finalizing_.fetch_add(1);  // Covers the dequeue-to-publication window.
  if (auto adm = scheduler_.RemoveQueued(ticket->id)) {
    // RemoveQueued skips resume entries here, so this never touches the
    // driver-owned suspended_ set.
    FinalizeDequeued(std::move(*adm), Status::Cancelled("cancelled before admission"));
  }
  finalizing_.fetch_sub(1);
  // Notify on BOTH paths: the driver may need to observe the flag, and the
  // dequeue above may have just made the engine idle — a WaitIdle waiter
  // whose predicate became true must get to re-evaluate it.
  std::lock_guard<std::mutex> lk(life_mu_);
  life_cv_.notify_all();
  return true;
}

void ServingEngine::FinalizeResult(uint64_t id, RequestResult&& result) {
  result.id = id;
  auto stored = std::make_shared<const RequestResult>(std::move(result));
  std::shared_ptr<RequestTicket> ticket;
  {
    std::lock_guard<std::mutex> lk(mu_);
    results_.insert_or_assign(id, stored);
    ++snapshot_.completed;
    if (stored->status.IsCancelled()) ++snapshot_.cancelled;
    if (stored->status.IsDeadlineExceeded()) ++snapshot_.deadline_exceeded;
    // Per-class / per-tenant terminal accounting. Results are self-describing
    // (priority/tenant stamped at admission or from the queue entry), so this
    // is the single point every finalize path funnels through.
    ClassServingStats& cs = class_stats_[stored->priority];
    cs.priority = stored->priority;
    ++cs.completed;
    if (stored->ttft_seconds > 0) {
      // Streaming quantiles: every completed request contributes (no first-N
      // cap), at O(1) memory per class.
      ++cs.ttft_count;
      cs.ttft_p50.Add(stored->ttft_seconds);
      cs.ttft_p99.Add(stored->ttft_seconds);
    }
    TenantServingStats& ts = tenant_stats_[stored->tenant_id];
    ts.tenant_id = stored->tenant_id;
    ++ts.completed;
    auto t = tickets_.find(id);
    if (t != tickets_.end()) {
      ticket = std::move(t->second);
      tickets_.erase(t);
    }
    // Bounded retention: evict the oldest terminal results beyond the cap.
    // Tickets co-own their results, so outstanding handles are unaffected —
    // only the id-keyed result() lookup forgets ancient requests.
    if (options_.result_retention > 0) {
      while (results_.size() > options_.result_retention) {
        results_.erase(results_.begin());
      }
    }
  }
  if (ticket != nullptr) {
    std::lock_guard<std::mutex> lk(ticket->mu);
    ticket->result = std::move(stored);
    ticket->done = true;
    ticket->cv.notify_all();
  }
}

void ServingEngine::FinalizeDequeued(RequestScheduler::Admitted&& adm,
                                     Status status) {
  if (adm.resume) {
    // A resume entry stands for a request parked in suspended_: owning the
    // (just removed) entry, finalize the parked state.
    FinalizeSuspended(adm.id, std::move(status));
    return;
  }
  RequestResult r;
  r.status = std::move(status);
  r.priority = adm.priority;
  r.tenant_id = adm.tenant_id;
  FinalizeResult(adm.id, std::move(r));
}

void ServingEngine::FinalizeSuspended(uint64_t id, Status status) {
  auto it = suspended_.find(id);
  if (it == suspended_.end()) return;
  std::unique_ptr<ActiveSession> a = std::move(it->second);
  suspended_.erase(it);
  // The parked KV dies with the request; no scheduler Release — a suspended
  // request holds no reservation (its slot was freed at suspension).
  a->suspended_kv.reset();
  a->host_kv_reservation.Release();
  a->result.status = std::move(status);
  FinalizeResult(a->id, std::move(a->result));
}

void ServingEngine::Fail(ActiveSession* a, Status status) {
  if (a->result.status.ok()) a->result.status = std::move(status);
  a->state = RequestState::kRetiring;
}

Status ServingEngine::CheckLive(ActiveSession* a,
                                std::chrono::steady_clock::time_point now,
                                const char* where) {
  // Submit registers the ticket after Enqueue, so admission can outrun it;
  // fetch lazily until it appears.
  if (a->ticket == nullptr) a->ticket = FindTicket(a->id);
  if (a->ticket != nullptr && a->ticket->cancel_requested.load()) {
    return Status::Cancelled(std::string("cancelled ") + where);
  }
  if (a->deadline <= now) {
    return Status::DeadlineExceeded(std::string("deadline expired ") + where);
  }
  return Status::Ok();
}

bool ServingEngine::SuspendVictim(uint64_t id) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [id](const auto& a) { return a->id == id; });
  if (it == active_.end()) return false;
  ActiveSession* a = it->get();
  // A retiring session is already on its way out — retiring it frees the
  // slot anyway; suspending it would strand a dead request in suspended_.
  if (a->state == RequestState::kRetiring || a->session == nullptr) return false;

  // Detach the KV and decode state. step/prefill_pos stay on the parked
  // ActiveSession — with pure fill callbacks they are the full generator
  // state, which is what makes the resumed decode bit-identical.
  const uint64_t ring_bytes = a->session->gang_ring_transfer_bytes();
  Session::SuspendedState state = a->session->DetachForSuspend();
  const uint64_t kv_bytes = state.kv_bytes;
  // The offload is a modeled device→host transfer on the victim's device (it
  // executes the copy-out), and the parked bytes live in host DRAM until
  // resume.
  Device& dev = db_->env().device(static_cast<size_t>(a->device));
  dev.clock().Advance(dev.cost_model().TransferSeconds(kv_bytes));
  a->suspended_kv.emplace(std::move(state));
  a->host_kv_reservation = MemoryReservation(&db_->env().host_memory(), kv_bytes);
  a->session.reset();
  // Drop the context pin: while the request waits, the tier layer is free to
  // spill (and later page back in) the context — resume re-pins it.
  a->context_ref.reset();
  a->state = RequestState::kSuspended;
  ++a->result.preemptions;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++snapshot_.preemptions;
    snapshot_.gang_ring_transfer_bytes += ring_bytes;
    ClassServingStats& cs = class_stats_[a->result.priority];
    cs.priority = a->result.priority;
    ++cs.preempted;
    TenantServingStats& ts = tenant_stats_[a->result.tenant_id];
    ts.tenant_id = a->result.tenant_id;
    ++ts.preempted;
  }

  // Requeue BEFORE Release: the resume entry must be visible before the
  // reservation returns, or a WaitIdle between the two could observe an idle
  // system while this request is suspended.
  RequestScheduler::Admitted resume;
  resume.id = a->id;
  resume.request.deadline_seconds = a->request.deadline_seconds;
  resume.submit_time = a->submit_time;
  resume.priority = a->result.priority;
  resume.tenant_id = a->result.tenant_id;
  resume.affinity_device = a->device;  // Warm KV affinity: it lived here last.
  resume.resume = true;
  resume.estimate = scheduler_.EstimateResumed(
      a->request, a->result.reused_prefix, a->prefill_pos, a->step);
  scheduler_.Requeue(std::move(resume));
  scheduler_.Release(a->id);
  suspended_[a->id] = std::move(*it);
  active_.erase(it);
  return true;
}

void ServingEngine::ResumeSuspended(RequestScheduler::Admitted&& adm,
                                    std::vector<ActiveSession*>* newly) {
  auto it = suspended_.find(adm.id);
  if (it == suspended_.end()) {
    // Defensive: the driver owns both sides, so a resume entry without a
    // parked request should not exist. Return the reservation rather than
    // leak it.
    scheduler_.Release(adm.id);
    return;
  }
  ActiveSession* a = it->second.get();
  const uint64_t kv_bytes =
      a->suspended_kv.has_value() ? a->suspended_kv->kv_bytes : 0;

  // Terminal-while-suspended states the sweeps have not seen yet (Admit just
  // won the queue entry) finalize before anything is rebuilt.
  Status status = CheckLive(a, std::chrono::steady_clock::now(), "while suspended");
  if (status.ok()) {
    // Rebind to the exact context/prefix the session had (paging it back in
    // if it was spilled while suspended), then reattach the parked KV.
    Result<AlayaDB::SessionResume> r = db_->ResumeSession(
        a->result.reused_context_id, a->result.reused_prefix, adm.device);
    status = r.status();
    if (status.ok()) {
      a->session = std::move(r.value().session);
      a->context_ref = std::move(r.value().context_ref);
      status = BindPlacement(a, adm, r.value().cross_device_transfer_bytes);
    }
    if (status.ok()) {
      status = a->session->AttachFromSuspend(std::move(*a->suspended_kv));
    }
  }
  if (!status.ok()) {
    // Finalize before Release, as everywhere, so idleness implies visible
    // results.
    FinalizeSuspended(adm.id, std::move(status));
    scheduler_.Release(adm.id);
    return;
  }

  // The parked bytes travel host→device on the resuming device's clock, the
  // host reservation returns, and the request re-enters the exact phase and
  // position it was suspended in. prefill_pos/step were never touched, so
  // there is zero recompute: prefilled_tokens and the decoded outputs come
  // out identical to an uninterrupted run.
  a->suspended_kv.reset();
  Device& dev = db_->env().device(static_cast<size_t>(adm.device));
  dev.clock().Advance(dev.cost_model().TransferSeconds(kv_bytes));
  a->host_kv_reservation.Release();
  a->state = a->prefill_pos < a->request.prompt.size()
                 ? RequestState::kPrefilling
                 : RequestState::kDecoding;
  ++a->result.resumes;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++snapshot_.resumes;
    ClassServingStats& cs = class_stats_[a->result.priority];
    cs.priority = a->result.priority;
    ++cs.resumed;
    TenantServingStats& ts = tenant_stats_[a->result.tenant_id];
    ts.tenant_id = a->result.tenant_id;
    ++ts.resumed;
  }
  if (newly != nullptr) newly->push_back(a);
  active_.push_back(std::move(it->second));
  suspended_.erase(it);
}

void ServingEngine::SweepCancellations() {
  const auto now = std::chrono::steady_clock::now();
  // Suspended requests: the caller-thread Cancel path deliberately skips
  // resume entries (the driver owns the suspended lifecycle), so the driver
  // checks them here — winning the queue entry first so a concurrent
  // observer can never see the id both finalized and still queued.
  finalizing_.fetch_add(1);  // Covers the dequeue-to-publication window.
  for (auto it = suspended_.begin(); it != suspended_.end();) {
    ActiveSession* a = it->second.get();
    ++it;  // FinalizeSuspended erases; advance first.
    Status live = CheckLive(a, now, "while suspended");
    if (!live.ok() &&
        scheduler_.RemoveQueued(a->id, /*include_resume=*/true).has_value()) {
      FinalizeSuspended(a->id, std::move(live));
    }
  }
  finalizing_.fetch_sub(1);
  for (auto& a : active_) {
    if (a->state == RequestState::kRetiring) continue;
    Status live = CheckLive(a.get(), now, "while running");
    if (!live.ok()) Fail(a.get(), std::move(live));
  }
}

size_t ServingEngine::AdmitInto(std::vector<ActiveSession*>* newly,
                                bool allow_preempt) {
  // Admit → suspend advised victims → admit again, until the scheduler stops
  // advising (or suspension frees nothing). Capacity only moves when a victim
  // actually suspends, so the loop terminates: each round either admits, or
  // shrinks the running set, or breaks.
  std::vector<RequestScheduler::Admitted> admitted;
  for (;;) {
    // Expired and never-fits entries hold no reservation, so the finalizing_
    // guard keeps WaitIdle honest across the dequeue-to-publication window.
    finalizing_.fetch_add(1);
    RequestScheduler::AdmitRound round = scheduler_.Admit(allow_preempt);
    for (RequestScheduler::Admitted& adm : round.expired) {
      FinalizeDequeued(std::move(adm),
                       Status::DeadlineExceeded("deadline expired while queued"));
    }
    for (RequestScheduler::Admitted& adm : round.never_fits) {
      FinalizeDequeued(std::move(adm),
                       Status::NeverFits("no device's budget can hold the request"));
    }
    finalizing_.fetch_sub(1);
    admitted.insert(admitted.end(), std::make_move_iterator(round.admitted.begin()),
                    std::make_move_iterator(round.admitted.end()));
    if (round.victims.empty()) break;
    size_t suspended_now = 0;
    for (const uint64_t vid : round.victims) {
      if (SuspendVictim(vid)) ++suspended_now;
    }
    // Advice built on stale running state (victims already terminal) may free
    // nothing; stop rather than spin — those victims retire at this boundary
    // anyway and the next Admit sees the freed slots.
    if (suspended_now == 0) break;
  }

  const ModelConfig& model = db_->options().model;
  const size_t qdim = static_cast<size_t>(model.num_q_heads) * model.head_dim;
  const size_t kvdim = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
  size_t added = 0;
  for (RequestScheduler::Admitted& adm : admitted) {
    if (adm.resume) {
      ResumeSuspended(std::move(adm), newly);
      ++added;
      continue;
    }
    auto active = std::make_unique<ActiveSession>();
    ActiveSession* a = active.get();
    a->id = adm.id;
    a->deadline = adm.Deadline();
    a->request = std::move(adm.request);
    a->submit_time = adm.submit_time;
    a->result.id = adm.id;
    a->result.priority = adm.priority;
    a->result.tenant_id = adm.tenant_id;
    // Cancellation or deadline expiry may have landed after the queue pop:
    // don't build a session that would only retire immediately. FinishSession
    // publishes the result before returning the reservation Admit() took.
    Status status = CheckLive(a, std::chrono::steady_clock::now(), "at admission");
    if (!status.ok()) {
      Fail(a, std::move(status));
      FinishSession(a);
      continue;
    }

    // Bind the session to its placed device: residency lands on that
    // device's tracker, modeled kernels on its clock, and a matched context
    // warm elsewhere pays the cross-device window transfer here.
    Result<AlayaDB::SessionCreation> created =
        db_->CreateSession(a->request.prompt, adm.device);
    status = created.status();
    if (status.ok() && !created.value().truncated_prompt.empty() &&
        a->request.fill_prompt == nullptr) {
      // The unmatched prompt suffix must be prefilled before decoding, and
      // only the caller knows its QKV. Fail honestly instead of silently
      // attending to a context missing those tokens.
      status = Status::NotSupported(
          "prompt extends past every stored context and the request has no "
          "fill_prompt callback to prefill the suffix");
    }
    if (status.ok()) {
      AlayaDB::SessionCreation& sc = created.value();
      a->session = std::move(sc.session);
      a->context_ref = std::move(sc.context_ref);
      a->result.reused_prefix = sc.reused_prefix;
      a->result.reused_context_id = sc.context_id;
      status = BindPlacement(a, adm, sc.cross_device_transfer_bytes);
      if (status.ok()) {
        // The enqueue-time prefix probe was an estimate; the store may have
        // changed since (it will, under background materialization). Re-anchor
        // the admission reservation to the reuse the session actually got, so
        // reserved bytes/seconds track real footprints.
        scheduler_.UpdateReservation(
            adm.id, scheduler_.Estimate(a->request, sc.reused_prefix));
        // prefill_pos is always anchored to the reuse (== prompt length when
        // fully covered): the suspend path snapshots it as the resume position
        // regardless of which phase the session is in.
        a->prefill_pos = sc.reused_prefix;
        if (!sc.truncated_prompt.empty()) {
          a->state = RequestState::kPrefilling;
          // Scratch sized for the largest chunk any step can grant; a budgeted
          // step simply uses a prefix of it.
          const size_t chunk = scheduler_.options().prefill_chunk_tokens;
          a->pq.resize(chunk * qdim);
          a->pk.resize(chunk * kvdim);
          a->pv.resize(chunk * kvdim);
        } else {
          a->state = RequestState::kDecoding;
        }
      }
    }
    if (!status.ok()) Fail(a, std::move(status));

    a->q.resize(qdim);
    a->k.resize(kvdim);
    a->v.resize(kvdim);
    a->out.resize(qdim);
    a->head_stats.resize(model.num_q_heads);
    if (a->request.record_outputs) {
      a->result.outputs.reserve(a->request.max_new_tokens * qdim);
    }
    if (newly != nullptr) newly->push_back(a);
    active_.push_back(std::move(active));
    ++added;
  }
  std::lock_guard<std::mutex> lk(mu_);
  snapshot_.peak_concurrent_sessions =
      std::max(snapshot_.peak_concurrent_sessions, active_.size());
  return added;
}

Status ServingEngine::BindPlacement(ActiveSession* a,
                                    const RequestScheduler::Admitted& adm,
                                    uint64_t cross_device_transfer_bytes) {
  a->device = adm.device;
  const bool gang = adm.gang.size() > 1;
  Status bound;
  if (gang) {
    // Context parallelism: the scheduler placed this request across a device
    // gang. Bind before any KV lands — before prefill on admission, before
    // AttachFromSuspend on resume.
    bound = a->session->BindGang(
        std::make_shared<const DeviceGang>(&db_->env(), adm.gang));
  }
  // Placements count sessions that actually materialized on the device —
  // consumers gate on placements > 0 to decide whether a device was used.
  std::lock_guard<std::mutex> lk(mu_);
  DeviceServingStats& ds = device_stats_[static_cast<size_t>(adm.device)];
  ++ds.placements;
  if (cross_device_transfer_bytes > 0) {
    ++ds.cross_device_reuses;
    ds.transfer_bytes += cross_device_transfer_bytes;
  }
  if (gang && bound.ok()) {
    ++snapshot_.gang_admissions;
    for (const int m : adm.gang) {
      ++device_stats_[static_cast<size_t>(m)].gang_shards;
    }
  }
  return bound;
}

struct ServingEngine::StepState {
  /// Sessions with work this step, in stable submit order (determinism):
  /// Prefilling sessions push one budgeted prompt chunk, Decoding sessions
  /// run one lockstep token.
  std::vector<ActiveSession*> decoding, prefilling;
  /// Every session whose chunk launched this step — mid-step admissions
  /// included — for the fold after the join.
  std::vector<ActiveSession*> chunked;
  PrefillWave wave;
  size_t budget_left = 0;  ///< Unspent budget mid-step admissions draw from.
  size_t tokens = 0;
  size_t prefilled = 0;
  /// Per-device work this step (folded into device_stats_ at publish).
  std::vector<size_t> dev_tokens, dev_prefilled;
  /// Per-layer (session, kv_head) jobs: allocated once per step, refilled
  /// every layer.
  std::vector<KvGroupAttentionJob> jobs;
  std::vector<ActiveSession*> job_owner;
  std::vector<Status> job_status;
};

void ServingEngine::StepActiveSessions(const WallTimer& step_timer) {
  const uint32_t layers = db_->options().model.num_layers;
  StepState s;
  if (!BeginStep(&s)) return;
  for (uint32_t layer = 0; !s.decoding.empty() && layer < layers; ++layer) {
    DecodeLayer(&s, layer);
    // Mid-step admission poll, between layers: a request that arrived while
    // this layer ran gets its session built NOW and its first prefill chunk
    // (budget permitting) launched into the wave already in flight — it does
    // not wait for the batch to drain to a step boundary. Newly admitted
    // sessions never join the current step's decode lockstep (decode starts
    // next step), so the per-layer batch stays over a fixed set. The last
    // layer skips the poll: a chunk launched there could not overlap
    // anything and would only delay the join.
    if (layer + 1 < layers) MidStepAdmit(&s);
  }
  RetireMidStep(step_timer);
  // The wave tasks write into the sessions' scratch and chunk_status: join
  // before the fold reads them.
  JoinWave(&s);
  FoldPrefillChunks(&s);
  PublishStepCounters(s);
}

bool ServingEngine::BeginStep(StepState* s) {
  for (auto& a : active_) {
    if (a->state == RequestState::kPrefilling) {
      s->prefilling.push_back(a.get());
    } else if (a->state == RequestState::kDecoding) {
      s->decoding.push_back(a.get());
    }
  }
  if (s->decoding.empty() && s->prefilling.empty()) return false;

  // Split the step's token budget: decode is funded first (one token per
  // Decoding session — the budget throttles prefill, never TPOT), the
  // remainder is dealt to Prefilling sessions FIFO in chunks.
  std::vector<size_t> remaining(s->prefilling.size());
  for (size_t i = 0; i < s->prefilling.size(); ++i) {
    remaining[i] = s->prefilling[i]->request.prompt.size() - s->prefilling[i]->prefill_pos;
  }
  const RequestScheduler::StepPlan plan =
      scheduler_.PlanStep(s->decoding.size(), remaining);
  s->budget_left = plan.budget_left;

  // Launch this step's chunks into the wave. Prefilling and decoding sessions
  // are disjoint, so the chunks overlap the entire decode layer loop (joined
  // once, before the fold) instead of stalling every decoder's first layer
  // behind the slowest chunk.
  s->chunked.reserve(s->prefilling.size());
  for (size_t i = 0; i < s->prefilling.size(); ++i) {
    s->prefilling[i]->chunk_granted = 0;
    if (plan.chunks[i] > 0) {
      LaunchChunk(s->prefilling[i], plan.chunks[i], &s->wave);
      s->chunked.push_back(s->prefilling[i]);
    }
  }
  s->dev_tokens.assign(device_stats_.size(), 0);
  s->dev_prefilled.assign(device_stats_.size(), 0);
  const size_t group_jobs = s->decoding.size() * db_->options().model.num_kv_heads;
  s->jobs.reserve(group_jobs);
  s->job_owner.reserve(group_jobs);
  return true;
}

void ServingEngine::DecodeLayer(StepState* s, uint32_t layer) {
  const ModelConfig& model = db_->options().model;
  const size_t d = model.head_dim;
  // Update: append this step's K/V to each session-local cache. Sessions are
  // independent, so this fans out across the pool; within a session the call
  // is exclusive (no attention runs yet).
  pool_->ParallelFor(0, s->decoding.size(), [&](size_t i) {
    ActiveSession* a = s->decoding[i];
    if (a->state == RequestState::kRetiring) return;  // Failed at an earlier layer.
    a->request.fill_step(a->step, layer, a->q.data(), a->k.data(), a->v.data());
    Status st = a->session->Update(layer, a->q.data(), a->k.data(), a->v.data());
    if (!st.ok()) Fail(a, std::move(st));
  });

  // Batched attention: flatten every decoding session's (session, kv_head)
  // attention call of this layer — the query heads sharing a KV head go
  // together — into one pool batch. A job's failure fails its own session,
  // never the fleet.
  const uint32_t group = model.GroupSize();
  s->jobs.clear();
  s->job_owner.clear();
  for (ActiveSession* a : s->decoding) {
    if (a->state == RequestState::kRetiring) continue;
    std::fill(a->head_stats.begin(), a->head_stats.end(), AttentionCallStats{});
    for (uint32_t kv = 0; kv < model.num_kv_heads; ++kv) {
      const size_t first = static_cast<size_t>(kv) * group;
      s->jobs.push_back(KvGroupAttentionJob{a->session.get(), layer, kv,
                                            a->q.data() + first * d,
                                            a->out.data() + first * d,
                                            &a->head_stats[first]});
      s->job_owner.push_back(a);
    }
  }
  ExecuteKvGroupJobs(s->jobs, pool_, &s->job_status);
  for (size_t j = 0; j < s->job_status.size(); ++j) {
    if (!s->job_status[j].ok()) Fail(s->job_owner[j], s->job_status[j]);
  }

  // Accounting: fold head stats, charge the modeled device clock once per
  // session-layer (AttendKvGroup leaves it untouched); after the last layer,
  // emit the token.
  for (ActiveSession* a : s->decoding) {
    if (a->state == RequestState::kRetiring) continue;
    AttentionCallStats layer_stats;
    for (const AttentionCallStats& hs : a->head_stats) layer_stats.Add(hs);
    a->session->ChargeModeledGpuSeconds(layer_stats.modeled_gpu_seconds);
    scheduler_.RecordProgress(a->id, layer_stats.modeled_gpu_seconds);
    a->result.stats.Add(layer_stats);
    if (layer + 1 < model.num_layers) continue;
    if (a->request.record_outputs) {
      a->result.outputs.insert(a->result.outputs.end(), a->out.begin(), a->out.end());
    }
    if (a->result.steps_completed == 0) {
      a->result.ttft_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        a->submit_time)
              .count();
    }
    // Stream the finished output block before advancing the step counter:
    // callbacks observe steps 0..N-1 strictly in order, from the driver
    // thread, with the span valid only for the duration of the call.
    if (a->request.on_token != nullptr) {
      a->request.on_token(a->step, std::span<const float>(a->out.data(), a->out.size()));
    }
    ++a->result.steps_completed;
    ++a->step;
    ++s->tokens;
    ++s->dev_tokens[static_cast<size_t>(a->device)];
    if (a->step == a->request.max_new_tokens) a->state = RequestState::kRetiring;
  }
}

void ServingEngine::MidStepAdmit(StepState* s) {
  if (scheduler_.queued() == 0) return;
  std::vector<ActiveSession*> newly;
  // No preemption mid-step: suspending a session whose pointers are live in
  // the running step's decode batch would pull state out from under it.
  // Victims are advised and suspended at step boundaries only.
  const size_t admitted = AdmitInto(&newly, /*allow_preempt=*/false);
  if (admitted > 0) {
    // Published immediately — not at step end — so a live observer sees the
    // admission while the step that absorbed it is still running.
    std::lock_guard<std::mutex> lk(mu_);
    snapshot_.midstep_admissions += admitted;
  }
  for (ActiveSession* a : newly) {
    // The step's wall time after this point is attributed to the state the
    // session entered in (DriverLoop stamps continuing sessions at the top of
    // the step; mid-step arrivals are stamped here).
    a->was_prefilling = a->state == RequestState::kPrefilling;
    if (a->state != RequestState::kPrefilling) continue;
    // First chunk out of the step's unspent budget, straight into the wave
    // already in flight — the mid-step admission payoff: prefill starts now,
    // not at the next step boundary.
    const size_t need = a->request.prompt.size() - a->prefill_pos;
    const size_t grant = scheduler_.GrantChunk(need, &s->budget_left);
    if (grant > 0) {
      LaunchChunk(a, grant, &s->wave);
      s->chunked.push_back(a);
    }
  }
}

void ServingEngine::LaunchChunk(ActiveSession* a, size_t count, PrefillWave* wave) {
  SessionPrefillJob job;
  job.session = a->session.get();
  job.first_token = a->prefill_pos;
  job.count = count;
  job.fill = a->request.fill_prompt;
  job.q_scratch = a->pq.data();
  job.k_scratch = a->pk.data();
  job.v_scratch = a->pv.data();
  a->chunk_granted = count;
  a->chunk_status = Status::Ok();
  wave->Launch(job, &a->chunk_status, pool_);
}

void ServingEngine::RetireMidStep(const WallTimer& step_timer) {
  // A session whose last token just decoded is retired NOW — result
  // published, reservation released — so its slot is free for the wave-tail
  // admission polls instead of sitting occupied until the step boundary. Safe
  // here: the layer loop is done and `decoding` is not read again, and
  // erasing from active_ only moves unique_ptrs, never the sessions
  // `prefilling`/`chunked` point at. Retirement frees the retiring sessions'
  // KV before the end-of-step residency sample; take the step's high-water
  // sample first so peak_gpu_bytes still reflects the footprint this step
  // decoded at.
  {
    std::lock_guard<std::mutex> lk(mu_);
    SampleResidencyPeaksLocked();
  }
  const size_t retired = RetireSessions(&step_timer);
  if (retired > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    snapshot_.midstep_retirements += retired;
  }
}

void ServingEngine::JoinWave(StepState* s) {
  // Poll admissions while waiting out the wave — on every step, not just
  // prefill-only ones. For prefill-only steps this is the only poll site (no
  // layer loop to interleave with); for mixed steps it extends coverage past
  // the last between-layer poll into the wave-join tail, so an arrival during
  // the final decode layer or a long chunk still enters mid-step and its
  // chunk joins the same wave. The loop exits only once the wave is drained.
  while (!s->wave.WaitFor(std::chrono::microseconds(200))) MidStepAdmit(s);
}

void ServingEngine::FoldPrefillChunks(StepState* s) {
  // Charge the modeled device cost: each prompt token is one full-attention
  // pass over the context visible at its position (per layer and query head)
  // — the prefill analogue of the decode-side per-step charge.
  const ModelConfig& model = db_->options().model;
  const CostModel& cost = db_->env().cost_model();
  for (ActiveSession* a : s->chunked) {
    if (!a->chunk_status.ok()) {
      Fail(a, a->chunk_status);
      continue;
    }
    double modeled = 0;
    for (size_t t = 0; t < a->chunk_granted; ++t) {
      const double visible = static_cast<double>(a->prefill_pos + t + 1);
      modeled += cost.GpuAttentionSeconds(4.0 * visible * model.head_dim);
    }
    modeled *= static_cast<double>(model.num_q_heads) * model.num_layers;
    a->session->ChargeModeledGpuSeconds(modeled);
    scheduler_.RecordProgress(a->id, modeled);
    a->result.stats.modeled_gpu_seconds += modeled;
    a->prefill_pos += a->chunk_granted;
    a->result.prefilled_tokens += a->chunk_granted;
    s->prefilled += a->chunk_granted;
    s->dev_prefilled[static_cast<size_t>(a->device)] += a->chunk_granted;
    a->chunk_granted = 0;
    if (a->prefill_pos == a->request.prompt.size()) {
      a->state = RequestState::kDecoding;  // Decode starts next engine step.
      // The chunk scratch is dead weight for the whole decode phase; free it
      // (jobs referencing it were joined).
      a->pq = {};
      a->pk = {};
      a->pv = {};
    }
  }
}

void ServingEngine::PublishStepCounters(const StepState& s) {
  std::lock_guard<std::mutex> lk(mu_);
  snapshot_.tokens_decoded += s.tokens;
  snapshot_.tokens_prefilled += s.prefilled;
  ++snapshot_.engine_steps;
  for (size_t d = 0; d < device_stats_.size(); ++d) {
    device_stats_[d].tokens_decoded += s.dev_tokens[d];
    device_stats_[d].tokens_prefilled += s.dev_prefilled[d];
  }
  // Sampled on every step — prefill-only steps included, so residency grown by
  // UpdateBatch (the prompt suffix landing in session-local KV) is observed
  // even when no session decoded this step.
  SampleResidencyPeaksLocked();
}

void ServingEngine::SampleResidencyPeaksLocked() {
  // The fleet peak sums the devices' simultaneous residency (with one device:
  // exactly the per-step sample); each device's own peak is tracked alongside.
  uint64_t fleet_bytes = 0;
  for (size_t d = 0; d < device_stats_.size(); ++d) {
    const uint64_t current = db_->env().device(d).memory().current();
    fleet_bytes += current;
    device_stats_[d].peak_gpu_bytes =
        std::max(device_stats_[d].peak_gpu_bytes, current);
  }
  snapshot_.peak_gpu_bytes = std::max(snapshot_.peak_gpu_bytes, fleet_bytes);
}

void ServingEngine::FinishSession(ActiveSession* active) {
  if (active->result.status.ok() && active->request.store_on_finish) {
    // DB.Store expects ids for every session-local token: the prefilled prompt
    // suffix first (its ids are right there in the request), then the decoded
    // tail. Failed, cancelled and deadline-exceeded sessions never reach this
    // branch (their status is not Ok): a partial decode must not publish a
    // context.
    const std::vector<int32_t>& prompt = active->request.prompt;
    const size_t suffix_begin = active->result.reused_prefix;
    const size_t suffix_end = suffix_begin + active->result.prefilled_tokens;
    std::vector<int32_t> new_tokens;
    new_tokens.reserve(active->result.prefilled_tokens + active->step);
    new_tokens.insert(new_tokens.end(),
                      prompt.begin() + static_cast<long>(suffix_begin),
                      prompt.begin() + static_cast<long>(suffix_end));
    for (size_t s = 0; s < active->step; ++s) {
      // Default ids are salted with the request id: two sessions storing over
      // the same base context must not produce identical token sequences with
      // different KV, or later prompts would silently match the wrong one.
      new_tokens.push_back(active->request.token_at != nullptr
                               ? active->request.token_at(s)
                               : SyntheticStoredTokenId(active->id, s));
    }
    // Hand the session's KV, ids and recorded queries to a background
    // materialization job and retire immediately — the index build never
    // blocks the step loop. The reserved context id is reported right away;
    // it becomes matchable once the job publishes (observe via Drain()).
    Result<uint64_t> stored = db_->StoreAsync(
        active->session.get(), std::move(new_tokens), active->context_ref);
    if (stored.ok()) {
      active->result.stored_context_id = stored.value();
    } else {
      active->result.status = stored.status();
    }
  }
  if (active->session != nullptr && active->session->gang() != nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    snapshot_.gang_ring_transfer_bytes +=
        active->session->gang_ring_transfer_bytes();
  }
  // Free the session (and its device reservation) before returning the
  // admission reservation, so the next admit sees consistent accounting; and
  // publish the result before Release, so a WaitIdle() that observes zero
  // reservations also observes every finished result.
  active->session.reset();
  active->context_ref.reset();
  FinalizeResult(active->id, std::move(active->result));
  scheduler_.Release(active->id);
}

size_t ServingEngine::RetireSessions(const WallTimer* midstep_timer) {
  size_t retired = 0;
  auto it = active_.begin();
  while (it != active_.end()) {
    ActiveSession* a = it->get();
    if (a->state != RequestState::kRetiring ||
        (midstep_timer != nullptr && !a->result.status.ok())) {
      ++it;
      continue;
    }
    if (midstep_timer != nullptr) {
      // The driver's post-step attribution loop no longer sees this session;
      // attribute its partial-step wall time before finalizing.
      a->result.decode_wall_seconds += midstep_timer->ElapsedSeconds();
    }
    FinishSession(a);
    it = active_.erase(it);
    ++retired;
  }
  return retired;
}

void ServingEngine::DriverLoop() {
  Status status;  // Engine-level; per-request failures live in their results.
  for (;;) {
    StopMode stop;
    {
      std::lock_guard<std::mutex> lk(life_mu_);
      stop = stop_mode_;
    }
    if (stop == StopMode::kAbort) break;

    // Step boundary: retire cancellations/expiries first (their reservations
    // free capacity), then admit — requests submitted while the engine runs
    // enter here, the continuous-batching entry point.
    SweepCancellations();
    RetireSessions(nullptr);
    AdmitInto(nullptr, /*allow_preempt=*/true);

    if (active_.empty()) {
      if (scheduler_.queued() == 0) {
        if (stop == StopMode::kDrain) break;
        // Idle: announce it (WaitIdle waiters) and sleep until a Submit,
        // Cancel or stop request arrives.
        std::unique_lock<std::mutex> lk(life_mu_);
        life_cv_.notify_all();
        life_cv_.wait(lk, [&] {
          return stop_mode_ != StopMode::kNone || scheduler_.queued() > 0;
        });
        continue;
      }
      // A concurrent Submit landed between Admit() and queued(); having
      // observed a non-empty queue on an idle system, a second Admit() must
      // pull its head (Enqueue guarantees it fits). A concurrent Cancel can
      // instead empty the queue — loop around. If neither happened, it's an
      // internal accounting bug — fail loudly, don't spin.
      AdmitInto(nullptr, /*allow_preempt=*/true);
      if (active_.empty()) {
        if (scheduler_.queued() == 0) continue;
        status = Status::Internal("queued requests but none admissible on idle system");
        break;
      }
    }

    for (auto& a : active_) {
      a->was_prefilling = a->state == RequestState::kPrefilling;
    }
    WallTimer step_timer;
    StepActiveSessions(step_timer);
    const double step_seconds = step_timer.ElapsedSeconds();
    for (auto& a : active_) {
      if (!a->result.status.ok()) continue;
      if (a->was_prefilling) {
        a->result.prefill_wall_seconds += step_seconds;
      } else {
        a->result.decode_wall_seconds += step_seconds;
      }
    }
    RetireSessions(nullptr);
  }

  // Terminal sweep: an abort (or an engine-level error) fails everything the
  // engine still owns, so every handle reaches a terminal state. A graceful
  // drain arrives here with nothing active or queued (a Submit racing the
  // final check stays queued for the next Start — exactly the old
  // RunToCompletion contract the stress tests rely on).
  StopMode final_stop;
  {
    std::lock_guard<std::mutex> lk(life_mu_);
    final_stop = stop_mode_;
  }
  if (!status.ok() || final_stop == StopMode::kAbort) {
    const Status reason = status.ok() ? Status::Cancelled("engine aborted") : status;
    for (auto& a : active_) Fail(a.get(), reason);
    RetireSessions(nullptr);
    finalizing_.fetch_add(1);  // Covers the dequeue-to-publication window.
    for (RequestScheduler::Admitted& adm : scheduler_.TakeAllQueued()) {
      FinalizeDequeued(std::move(adm), reason);
    }
    // Belt and braces: every suspended request has a resume entry (the
    // invariant), so the loop above drained suspended_ — but a request whose
    // entry was lost must still reach a terminal state.
    while (!suspended_.empty()) {
      FinalizeSuspended(suspended_.begin()->first, reason);
    }
    finalizing_.fetch_sub(1);
  }

  FinalizeRun();
  std::lock_guard<std::mutex> lk(life_mu_);
  run_status_ = status;
  state_ = State::kStopped;
  life_cv_.notify_all();
}

void ServingEngine::FinalizeRun() {
  // Barrier: every store_on_finish materialization handed off during the run
  // must publish before the engine reports stopped — callers (and tests)
  // observe a store whose contexts are all fully built. A failed
  // materialization loses one context, never the run: it is counted in
  // snapshot().materializations_failed, and db.materialization_errors() maps
  // the result's stored_context_id (a reservation ticket that will now never
  // publish) to the failure. Published results are deliberately NOT amended:
  // they are immutable once a handle's Wait/TryWait returns, so live callers
  // can read them without synchronizing against Shutdown.
  (void)db_->Drain();
  std::lock_guard<std::mutex> lk(mu_);
  snapshot_.serve_wall_seconds += run_timer_.ElapsedSeconds();
  // Instant runs can round the wall clock to zero even though tokens were
  // decoded; clamp the denominator so the reported throughput stays finite
  // (and zero only when nothing was decoded).
  snapshot_.tokens_per_second =
      snapshot_.tokens_decoded > 0
          ? static_cast<double>(snapshot_.tokens_decoded) /
                std::max(snapshot_.serve_wall_seconds, 1e-9)
          : 0;
}

const RequestResult* ServingEngine::result(uint64_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = results_.find(id);
  // The shared_ptr target is immutable and stays alive until the id is
  // evicted (see result_retention): the pointer outlives the lock.
  return it == results_.end() ? nullptr : it->second.get();
}

ServingSnapshot ServingEngine::snapshot() const {
  const AlayaDB::MaterializationStats mat = db_->materialization_stats();
  const std::vector<DeviceLoad> loads = scheduler_.DeviceLoads();
  const TenantLedger ledger = scheduler_.TenantLedgerSnapshot();
  ServingSnapshot out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = snapshot_;
    out.devices = device_stats_;
    // Classes and tenants: engine-side terminal counters first (std::map →
    // ascending key order)...
    out.classes.reserve(class_stats_.size());
    for (const auto& [priority, cs] : class_stats_) out.classes.push_back(cs);
    out.tenants.reserve(std::max(tenant_stats_.size(), ledger.size()));
    for (const auto& [tid, ts] : tenant_stats_) out.tenants.push_back(ts);
  }
  // ...then the scheduler's live fair-share ledger merged over them (a tenant
  // can exist in the ledger before any of its requests reached a terminal
  // state, and vice versa on a fresh scheduler).
  for (const auto& [tid, share] : ledger) {
    auto it = std::find_if(out.tenants.begin(), out.tenants.end(),
                           [tid = tid](const TenantServingStats& t) {
                             return t.tenant_id == tid;
                           });
    if (it == out.tenants.end()) {
      TenantServingStats fresh;
      fresh.tenant_id = tid;
      it = out.tenants.insert(
          std::upper_bound(out.tenants.begin(), out.tenants.end(), fresh,
                           [](const TenantServingStats& a, const TenantServingStats& b) {
                             return a.tenant_id < b.tenant_id;
                           }),
          fresh);
    }
    it->weight = share.weight;
    it->deficit_seconds = share.deficit_seconds;
    it->admitted_seconds = share.admitted_seconds;
    it->admitted = share.admitted;
  }
  out.submitted = submitted_.load();
  out.rejected = rejected_.load();
  out.materializations_pending = mat.pending;
  out.materializations_completed = mat.completed;
  out.materializations_failed = mat.failed;
  if (const TieredContextStore* tiers = db_->tiers()) {
    const TieredContextStore::Stats ts = tiers->stats();
    out.tier_spills = ts.spills;
    out.tier_page_ins = ts.page_ins;
    out.tier_prefetches = ts.prefetches;
    out.tier_resident_contexts = ts.resident_contexts;
    out.tier_spilled_contexts = ts.spilled_contexts;
    out.tier_resident_kv_bytes = ts.resident_kv_bytes;
  }
  // Merge live per-device state: what the scheduler currently reserves on
  // each device, and each device clock's modeled busy seconds (utilization).
  for (DeviceServingStats& ds : out.devices) {
    const size_t d = static_cast<size_t>(ds.device);
    if (d < loads.size()) {
      ds.reserved_bytes = loads[d].reserved_bytes;
      ds.active_sessions = loads[d].active_sessions;
    }
    ds.modeled_busy_seconds = db_->env().device(d).clock().Seconds();
  }
  return out;
}

}  // namespace alaya
