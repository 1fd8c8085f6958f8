// Batched prefill execution for multi-session serving — the companion of
// batched_diprs.h for the *prompt* side of a request.
//
// A request whose prompt extends past every stored context must push the
// unmatched suffix through the model before it can decode: per prompt token
// and layer, the session's KV cache grows by one entry and the query vector is
// recorded for index training (RoarGraph is query-trained, §7.2). Distinct
// sessions' prefill chunks are fully independent — of each other AND of every
// decoding session — so the serving engine batches all prefilling sessions'
// current chunks onto the shared ThreadPool (the same cross-session
// flattening batched_diprs applies to decode-step retrievals), overlapping
// them with the decode layer loop on mixed steps.
//
// Within one job the layers run sequentially (Session::UpdateBatch is
// exclusive per session), so a job is race-free without any session locking;
// parallelism comes from batching jobs of different sessions.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "src/common/thread_pool.h"
#include "src/core/session.h"

namespace alaya {

/// Fills one prompt token's QKV for one layer. `token` is the token's absolute
/// position in the request prompt (so the values are independent of how much
/// prefix was reused); q is [num_q_heads * head_dim], k and v are
/// [num_kv_heads * head_dim]. Must be deterministic in (token, layer) — the
/// serving engine's bit-identical concurrent-vs-sequential guarantee extends
/// to prefill only under this contract.
using PrefillFillFn =
    std::function<void(size_t token, uint32_t layer, float* q, float* k, float* v)>;

/// One session's prefill chunk: `count` prompt tokens starting at absolute
/// position `first_token`, pushed through every layer via UpdateBatch.
/// The scratch buffers are caller-owned, reused layer by layer, and must hold
/// `count * num_q_heads * head_dim` (q) resp. `count * num_kv_heads * head_dim`
/// (k, v) floats. One job per session per batch: a session must never appear
/// in two jobs of the same batch (UpdateBatch is not self-concurrent).
struct SessionPrefillJob {
  Session* session = nullptr;
  size_t first_token = 0;
  size_t count = 0;
  PrefillFillFn fill;
  float* q_scratch = nullptr;
  float* k_scratch = nullptr;
  float* v_scratch = nullptr;
};

/// Runs one job on the calling thread: for each layer, fills the chunk's QKV
/// token-major into the scratch buffers and appends it with one UpdateBatch.
/// The serving engine submits one of these per prefilling session to the
/// shared pool (PrefillWave::Launch), overlapping them with its decode layer
/// loop.
Status RunPrefillJob(const SessionPrefillJob& job);

/// Dynamic join for in-flight prefill chunks. Unlike a std::latch — whose
/// count is fixed at construction, forcing the serving engine to freeze the
/// set of prefilling sessions at the top of a step — a wave accepts Launch()
/// at any point while earlier chunks are still running. That is what makes
/// mid-step admission possible: a session admitted between decode layers gets
/// its first chunk launched into the *current* step's wave, and the step only
/// joins once at the end, right before accounting.
///
/// `*status` must outlive the wave (the serving engine points it at the
/// owning session state, which is stable for the duration of a step). A wave
/// must be drained (Wait / WaitFor true) before destruction.
class PrefillWave {
 public:
  PrefillWave() = default;
  PrefillWave(const PrefillWave&) = delete;
  PrefillWave& operator=(const PrefillWave&) = delete;
  ~PrefillWave();

  /// Runs `job` asynchronously on `pool` (nullptr -> ThreadPool::Global());
  /// the job's Status lands in `*status` before the wave counts it done.
  /// The job struct is copied; its scratch buffers stay caller-owned.
  void Launch(const SessionPrefillJob& job, Status* status, ThreadPool* pool = nullptr);

  /// Blocks until every launched chunk has completed.
  void Wait();

  /// Waits up to `timeout` for the wave to drain; returns true when no chunk
  /// is outstanding. The serving engine polls this while joining each step's
  /// wave so it can admit newly queued requests while chunks are in flight.
  bool WaitFor(std::chrono::microseconds timeout);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

}  // namespace alaya
