// Batched DIPRS execution for multi-session serving.
//
// One decode step of one session issues one attention call per (layer,
// kv_head): Session::AttendKvGroup answers every query head that shares the
// KV head, so a flat layer-0 scan streams each KV head's keys once for the
// whole group, while DIPRS (or top-k / full attention) still runs per query
// head inside it. When many sessions decode concurrently, these calls are
// independent read-only searches over shared indices, so the serving engine
// flattens all sessions' (session, layer, kv_head) jobs of the current step
// into one batch and executes it with a single ParallelFor — one scheduling
// round instead of per-session loops, and load balancing across jobs whose
// DIPRS exploration sizes differ (Observation I).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/session.h"

namespace alaya {

/// One (session, layer, kv_head) attention call of the current decode step.
/// `q` and `out` are the KV head's query-group [GroupSize() * head_dim]
/// slices and `stats` its GroupSize() per-head entries; `stats` must be
/// non-null and unique per job (jobs run concurrently).
struct KvGroupAttentionJob {
  Session* session = nullptr;
  uint32_t layer = 0;
  uint32_t kv_head = 0;
  const float* q = nullptr;
  float* out = nullptr;
  AttentionCallStats* stats = nullptr;
};

/// Executes every job on `pool` (nullptr -> ThreadPool::Global()). Jobs may
/// mix sessions and layers; all referenced sessions must be quiescent (no
/// concurrent Update). Always drains the whole batch; each job's Status lands
/// at the matching index of `*per_job` (resized to the batch), so callers
/// isolate failures per job — the serving engine fails one session, not the
/// fleet. Does not advance any GPU clock — callers aggregate per-head stats
/// and charge each session once per batch.
void ExecuteKvGroupJobs(std::span<KvGroupAttentionJob> jobs, ThreadPool* pool,
                        std::vector<Status>* per_job);

}  // namespace alaya
