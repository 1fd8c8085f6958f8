// Unit tests for the prefill-aware admission math: memory reservations count
// the prompt tokens a request will have to prefill (they land in session-local
// KV and stay device-resident), and the TPOT SLO check accounts for the
// modeled per-step cost of the prefill phase, not just steady-state decode.
#include "src/server/request_scheduler.h"

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

namespace alaya {
namespace {

using ProbeResult = RequestSchedulerOptions::PrefixProbeResult;

/// Probe reporting every prompt fully covered by a stored context.
ProbeResult FullReuse(std::span<const int32_t> tokens) { return {tokens.size()}; }

struct SchedulerFixture {
  ModelConfig model = ModelConfig::Tiny();
  WindowConfig window{8, 16};
  CostModel cost;

  RequestScheduler Make(RequestSchedulerOptions options) {
    return RequestScheduler(model, window, cost, options);
  }

  static ServingRequest MakeRequest(size_t prompt_tokens, size_t steps) {
    ServingRequest r;
    r.prompt.resize(prompt_tokens);
    for (size_t i = 0; i < prompt_tokens; ++i) r.prompt[i] = static_cast<int32_t>(i);
    r.max_new_tokens = steps;
    r.fill_step = [](size_t, uint32_t, float*, float*, float*) {};
    return r;
  }
};

TEST(RequestSchedulerTest, EstimateCountsPrefillTokensInMemory) {
  SchedulerFixture fx;
  RequestScheduler sched = fx.Make({});
  const ServingRequest req = fx.MakeRequest(/*prompt_tokens=*/200, /*steps=*/4);

  // Full reuse: only window + decoded tail are device-resident.
  const AdmissionEstimate full = sched.Estimate(req, /*reused_prefix=*/200);
  EXPECT_EQ(full.prefill_tokens, 0u);
  EXPECT_EQ(full.prefill_step_gpu_seconds, 0.0);
  EXPECT_EQ(full.prefill_total_gpu_seconds, 0.0);
  const size_t window_tokens = WindowCache(fx.window).Size(204);
  EXPECT_EQ(full.gpu_bytes,
            std::max(window_tokens, size_t{4}) * fx.model.KvBytesPerToken());

  // No reuse: the entire prompt prefills into session-local KV and stays on
  // device — the footprint covers every token.
  const AdmissionEstimate none = sched.Estimate(req, /*reused_prefix=*/0);
  EXPECT_EQ(none.prefill_tokens, 200u);
  EXPECT_EQ(none.gpu_bytes, 204u * fx.model.KvBytesPerToken());
  EXPECT_GT(none.gpu_bytes, full.gpu_bytes);
  EXPECT_GT(none.prefill_total_gpu_seconds, 0.0);

  // Partial reuse sits in between, proportional to the unmatched suffix.
  const AdmissionEstimate half = sched.Estimate(req, /*reused_prefix=*/100);
  EXPECT_EQ(half.prefill_tokens, 100u);
  EXPECT_GT(half.gpu_bytes, full.gpu_bytes);
  EXPECT_LT(half.gpu_bytes, none.gpu_bytes);
  EXPECT_LT(half.prefill_total_gpu_seconds, none.prefill_total_gpu_seconds);
}

TEST(RequestSchedulerTest, PrefillStepSecondsCappedByChunk) {
  SchedulerFixture fx;
  RequestSchedulerOptions small, large;
  small.prefill_chunk_tokens = 4;
  large.prefill_chunk_tokens = 64;
  RequestScheduler sched_small = fx.Make(small);
  RequestScheduler sched_large = fx.Make(large);
  const ServingRequest req = fx.MakeRequest(48, 2);

  const AdmissionEstimate e_small = sched_small.Estimate(req, 0);
  const AdmissionEstimate e_large = sched_large.Estimate(req, 0);
  // Total projected prefill latency is chunking-independent...
  EXPECT_DOUBLE_EQ(e_small.prefill_total_gpu_seconds,
                   e_large.prefill_total_gpu_seconds);
  // ...but the per-engine-step contribution scales with the chunk (capped at
  // the actual number of prefill tokens: 48 < 64).
  EXPECT_DOUBLE_EQ(e_small.prefill_step_gpu_seconds * (48.0 / 4.0),
                   e_large.prefill_step_gpu_seconds);
  EXPECT_GT(e_large.EffectiveStepSeconds(), e_small.EffectiveStepSeconds());
}

TEST(RequestSchedulerTest, EffectiveStepSecondsIsWorstPhase) {
  AdmissionEstimate e;
  e.step_gpu_seconds = 2.0;
  e.prefill_step_gpu_seconds = 5.0;
  EXPECT_DOUBLE_EQ(e.EffectiveStepSeconds(), 5.0);
  e.prefill_step_gpu_seconds = 0.5;
  EXPECT_DOUBLE_EQ(e.EffectiveStepSeconds(), 2.0);
}

TEST(RequestSchedulerTest, PrefixProbeDrivesEnqueueEstimate) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.prefix_probe = [](std::span<const int32_t> tokens) -> ProbeResult {
    return {tokens.size() / 2};  // Pretend half of every prompt is stored.
  };
  RequestScheduler sched = fx.Make(options);
  auto id = sched.Enqueue(fx.MakeRequest(100, 2));
  ASSERT_TRUE(id.ok());
  auto admitted = sched.Admit().admitted;
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].estimate.prefill_tokens, 50u);
}

TEST(RequestSchedulerTest, NoProbeAssumesFullPrefill) {
  SchedulerFixture fx;
  RequestScheduler sched = fx.Make({});
  const AdmissionEstimate e = sched.Estimate(fx.MakeRequest(100, 2));
  EXPECT_EQ(e.prefill_tokens, 100u);
}

TEST(RequestSchedulerTest, PrefillFootprintRejectedAtEnqueue) {
  SchedulerFixture fx;
  const ServingRequest req = fx.MakeRequest(200, 4);

  // Budget sized for the full-reuse footprint only.
  RequestSchedulerOptions options;
  RequestScheduler probe_free = fx.Make(options);
  options.gpu_budget_bytes = probe_free.Estimate(req, /*reused_prefix=*/200).gpu_bytes;

  // Without reuse information the prompt is assumed to fully prefill, and
  // that footprint can never fit: fail fast at the front door.
  RequestScheduler pessimistic = fx.Make(options);
  auto rejected = pessimistic.Enqueue(fx.MakeRequest(200, 4));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNeverFits);

  // With a probe reporting the prompt fully stored, the same request fits.
  options.prefix_probe = FullReuse;
  RequestScheduler informed = fx.Make(options);
  EXPECT_TRUE(informed.Enqueue(fx.MakeRequest(200, 4)).ok());
}

TEST(RequestSchedulerTest, PrefillTimeBlocksCoAdmissionUnderTpotSlo) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.prefill_chunk_tokens = 32;
  // Probe: prompts of >= 100 tokens are unmatched (heavy prefill), shorter
  // ones fully stored.
  options.prefix_probe = [](std::span<const int32_t> tokens) -> ProbeResult {
    return {tokens.size() >= 100 ? 0 : tokens.size()};
  };

  // Calibrate the SLO: two decode-only requests fit together, but a decode
  // request + the prefill-heavy request's chunk time does not.
  RequestScheduler calibrate = fx.Make(options);
  const AdmissionEstimate decode_only =
      calibrate.Estimate(fx.MakeRequest(50, 4), 50);
  const AdmissionEstimate prefill_heavy =
      calibrate.Estimate(fx.MakeRequest(400, 4), 0);
  ASSERT_GT(prefill_heavy.prefill_step_gpu_seconds,
            prefill_heavy.step_gpu_seconds);
  options.tpot_slo_seconds = decode_only.EffectiveStepSeconds() * 2 +
                             prefill_heavy.step_gpu_seconds;
  ASSERT_LT(options.tpot_slo_seconds, decode_only.EffectiveStepSeconds() +
                                          prefill_heavy.EffectiveStepSeconds());

  RequestScheduler sched = fx.Make(options);
  ASSERT_TRUE(sched.Enqueue(fx.MakeRequest(50, 4)).ok());     // Decode-only.
  auto heavy_id = sched.Enqueue(fx.MakeRequest(400, 4));      // Prefill-heavy.
  ASSERT_TRUE(heavy_id.ok());
  ASSERT_TRUE(sched.Enqueue(fx.MakeRequest(50, 4)).ok());     // Decode-only.

  // First round: the decode request is admitted; the prefill-heavy one would
  // blow the per-step budget while it prefills, so it queues (and, FIFO, so
  // does everything behind it).
  auto first = sched.Admit().admitted;
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].estimate.prefill_tokens, 0u);
  EXPECT_EQ(sched.queued(), 2u);

  // Once the decoding session finishes, the prefill-heavy request runs — on
  // its own: its projected chunk time exceeds what the SLO leaves for a
  // companion, so the trailing decode request keeps waiting.
  sched.Release(first[0].id);
  auto second = sched.Admit().admitted;
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, heavy_id.value());
  EXPECT_EQ(sched.queued(), 1u);

  sched.Release(second[0].id);
  EXPECT_EQ(sched.Admit().admitted.size(), 1u);
  EXPECT_EQ(sched.queued(), 0u);
}

TEST(RequestSchedulerTest, UpdateReservationReanchorsToActualMatch) {
  // The enqueue-time probe is a TOCTOU estimate: the store can change before
  // admission (guaranteed under background Store). The engine re-estimates at
  // session-creation time and calls UpdateReservation so reserved bytes and
  // step-seconds track the reuse the session really got.
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  // Probe promises full reuse at enqueue...
  options.prefix_probe = FullReuse;
  RequestScheduler sched = fx.Make(options);
  const ServingRequest req = fx.MakeRequest(/*prompt_tokens=*/200, /*steps=*/4);

  auto id = sched.Enqueue(fx.MakeRequest(200, 4));
  ASSERT_TRUE(id.ok());
  auto admitted = sched.Admit().admitted;
  ASSERT_EQ(admitted.size(), 1u);
  const AdmissionEstimate promised = admitted[0].estimate;
  EXPECT_EQ(promised.prefill_tokens, 0u);
  EXPECT_EQ(sched.reserved_gpu_bytes(), promised.gpu_bytes);

  // ...but by admit time the matching context is gone: the session actually
  // has to prefill everything. The reservation must grow to the real footprint.
  const AdmissionEstimate actual = sched.Estimate(req, /*reused_prefix=*/0);
  ASSERT_GT(actual.gpu_bytes, promised.gpu_bytes);
  sched.UpdateReservation(admitted[0].id, actual);
  EXPECT_EQ(sched.reserved_gpu_bytes(), actual.gpu_bytes);
  EXPECT_DOUBLE_EQ(sched.reserved_step_seconds(), actual.EffectiveStepSeconds());

  // Release returns exactly the updated reservation — no divergence leaks.
  sched.Release(admitted[0].id);
  EXPECT_EQ(sched.reserved_gpu_bytes(), 0u);
  EXPECT_NEAR(sched.reserved_step_seconds(), 0.0, 1e-15);

  // Unknown ids are a no-op (the request may have already been released).
  sched.UpdateReservation(9999, actual);
  EXPECT_EQ(sched.reserved_gpu_bytes(), 0u);
}

TEST(RequestSchedulerTest, DeadlineHandlesZeroAndAstronomicalBudgets) {
  SchedulerFixture fx;
  RequestScheduler sched = fx.Make({});
  const auto far_future =
      std::chrono::steady_clock::now() + std::chrono::hours(24 * 365);

  ServingRequest none = fx.MakeRequest(10, 2);  // deadline_seconds == 0.
  ASSERT_TRUE(sched.Enqueue(std::move(none)).ok());
  ServingRequest small = fx.MakeRequest(10, 2);
  small.deadline_seconds = 0.5;
  ASSERT_TRUE(sched.Enqueue(std::move(small)).ok());
  // Astronomical budgets would overflow the clock's integer duration if cast
  // naively (UB wrapping into the past -> instant expiry); they must behave
  // as "no deadline" instead.
  ServingRequest huge = fx.MakeRequest(10, 2);
  huge.deadline_seconds = 1e12;
  ASSERT_TRUE(sched.Enqueue(std::move(huge)).ok());

  // Nothing expires at the enqueue horizon: the admission round's expiry
  // sweep agrees. The default policy admits the finite-deadline request
  // first (EDF within the class); restore arrival order so the indices below
  // stay meaningful.
  RequestScheduler::AdmitRound round = sched.Admit();
  EXPECT_TRUE(round.expired.empty());
  auto admitted = std::move(round.admitted);
  std::sort(admitted.begin(), admitted.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  ASSERT_EQ(admitted.size(), 3u);
  EXPECT_GT(admitted[0].Deadline(), far_future);  // None.
  EXPECT_LT(admitted[1].Deadline(), far_future);  // Real, finite.
  EXPECT_GT(admitted[1].Deadline(), std::chrono::steady_clock::now());
  EXPECT_GT(admitted[2].Deadline(), far_future);  // Clamped, never expired.
}

TEST(RequestSchedulerTest, ExpiredBehindBlockedHeadIsSwept) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.max_concurrent_sessions = 1;
  RequestScheduler sched = fx.Make(options);
  ASSERT_TRUE(sched.Enqueue(fx.MakeRequest(10, 2)).ok());  // Takes the slot.
  ASSERT_TRUE(sched.Enqueue(fx.MakeRequest(10, 2)).ok());  // Slot-blocked head.
  // A lower class the policy never picks while the head waits: only the
  // round-wide expiry sweep can reach it.
  ServingRequest doomed = fx.MakeRequest(10, 2);
  doomed.priority = -1;
  doomed.deadline_seconds = 1e-6;
  auto doomed_id = sched.Enqueue(std::move(doomed));
  ASSERT_TRUE(doomed_id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  const RequestScheduler::AdmitRound first = sched.Admit();
  ASSERT_EQ(first.admitted.size(), 1u);
  ASSERT_EQ(first.expired.size(), 1u);
  EXPECT_EQ(first.expired[0].id, doomed_id.value());
  EXPECT_EQ(sched.queued(), 1u);  // Only the blocked head remains.

  const RequestScheduler::AdmitRound second = sched.Admit();
  EXPECT_TRUE(second.admitted.empty());
  EXPECT_TRUE(second.expired.empty());  // Reported exactly once.
  EXPECT_EQ(sched.queued(), 1u);
}

// --- Deficit round-robin: a tenant whose queue drains forfeits its banked
// --- credit, whichever way its last entry leaves the queue.

/// Two tenants contend for one slot: tenant 1's cheap request admits, tenant
/// 2's costlier request stays queued holding the top-up credit it earned.
/// Returns tenant 2's queued request id.
uint64_t QueueTenantWithDeficit(RequestScheduler* sched, double deadline_seconds) {
  ServingRequest cheap = SchedulerFixture::MakeRequest(10, 2);
  cheap.tenant_id = 1;
  ServingRequest costly = SchedulerFixture::MakeRequest(200, 8);
  costly.tenant_id = 2;
  costly.deadline_seconds = deadline_seconds;
  EXPECT_TRUE(sched->Enqueue(std::move(cheap)).ok());
  auto id = sched->Enqueue(std::move(costly));
  EXPECT_TRUE(id.ok());
  EXPECT_EQ(sched->Admit().admitted.size(), 1u);
  EXPECT_EQ(sched->queued(), 1u);
  EXPECT_GT(sched->TenantLedgerSnapshot().at(2).deficit_seconds, 0.0);
  return id.value();
}

TEST(RequestSchedulerTest, RemoveQueuedResetsDrainedTenantDeficit) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.max_concurrent_sessions = 1;
  RequestScheduler sched = fx.Make(options);
  const uint64_t queued_id = QueueTenantWithDeficit(&sched, /*deadline_seconds=*/0);

  ASSERT_TRUE(sched.RemoveQueued(queued_id).has_value());  // Cancelled.
  EXPECT_EQ(sched.TenantLedgerSnapshot().at(2).deficit_seconds, 0.0);
}

TEST(RequestSchedulerTest, ExpirySweepResetsDrainedTenantDeficit) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.max_concurrent_sessions = 1;
  RequestScheduler sched = fx.Make(options);
  // Long enough to survive the first round, short enough to expire before
  // the next one.
  QueueTenantWithDeficit(&sched, /*deadline_seconds=*/0.2);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  EXPECT_EQ(sched.Admit().expired.size(), 1u);
  EXPECT_EQ(sched.queued(), 0u);
  EXPECT_EQ(sched.TenantLedgerSnapshot().at(2).deficit_seconds, 0.0);
}

TEST(RequestSchedulerTest, ReleaseRestoresPrefillAwareReservation) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.tpot_slo_seconds = 1e9;  // Irrelevantly large; just track sums.
  RequestScheduler sched = fx.Make(options);

  auto a = sched.Enqueue(fx.MakeRequest(120, 3));  // Fully prefills (no probe).
  auto b = sched.Enqueue(fx.MakeRequest(40, 3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto admitted = sched.Admit().admitted;
  ASSERT_EQ(admitted.size(), 2u);

  const double expected_seconds = admitted[0].estimate.EffectiveStepSeconds() +
                                  admitted[1].estimate.EffectiveStepSeconds();
  const uint64_t expected_bytes =
      admitted[0].estimate.gpu_bytes + admitted[1].estimate.gpu_bytes;
  EXPECT_DOUBLE_EQ(sched.reserved_step_seconds(), expected_seconds);
  EXPECT_EQ(sched.reserved_gpu_bytes(), expected_bytes);

  // The running sum accumulates (a + b) - a - b style floating-point residue;
  // compare with a tolerance far below any real per-step estimate.
  sched.Release(admitted[0].id);
  EXPECT_NEAR(sched.reserved_step_seconds(),
              admitted[1].estimate.EffectiveStepSeconds(), 1e-15);
  sched.Release(admitted[1].id);
  EXPECT_NEAR(sched.reserved_step_seconds(), 0.0, 1e-15);
  EXPECT_EQ(sched.reserved_gpu_bytes(), 0u);
}

// --- Step planning (continuous batching): the per-step token budget funds
// --- decode first, then deals chunks to prefilling sessions FIFO, with a
// --- forward-progress floor for the head prefiller.

TEST(RequestSchedulerTest, PlanStepUnlimitedBudgetGrantsFullChunks) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.prefill_chunk_tokens = 16;
  RequestScheduler sched = fx.Make(options);  // step_token_budget = 0.

  const size_t remaining[] = {40, 9, 0};
  const RequestScheduler::StepPlan plan = sched.PlanStep(3, remaining);
  EXPECT_EQ(plan.decode_tokens, 3u);
  ASSERT_EQ(plan.chunks.size(), 3u);
  EXPECT_EQ(plan.chunks[0], 16u);  // Chunk-capped.
  EXPECT_EQ(plan.chunks[1], 9u);   // Need-capped.
  EXPECT_EQ(plan.chunks[2], 0u);   // Nothing left to prefill.
  EXPECT_GT(plan.budget_left, 1u << 20);  // Effectively unlimited.
}

TEST(RequestSchedulerTest, PlanStepBudgetFundsDecodeFirstThenPrefillFifo) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.prefill_chunk_tokens = 8;
  options.step_token_budget = 16;
  RequestScheduler sched = fx.Make(options);

  // 6 decoders cost 6 tokens; 10 left fund the head prefiller's full chunk
  // (8) and leave the second with the 2-token remainder.
  const size_t remaining[] = {32, 32, 32};
  const RequestScheduler::StepPlan plan = sched.PlanStep(6, remaining);
  EXPECT_EQ(plan.decode_tokens, 6u);
  ASSERT_EQ(plan.chunks.size(), 3u);
  EXPECT_EQ(plan.chunks[0], 8u);
  EXPECT_EQ(plan.chunks[1], 2u);
  EXPECT_EQ(plan.chunks[2], 0u);
  EXPECT_EQ(plan.budget_left, 0u);
}

TEST(RequestSchedulerTest, PlanStepFloorsHeadPrefillerWhenDecodeSaturates) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.prefill_chunk_tokens = 8;
  options.step_token_budget = 4;
  RequestScheduler sched = fx.Make(options);

  // Decode alone eats the whole budget, but the head prefiller still gets its
  // one-token floor — otherwise a full decode batch would livelock every
  // prefill.
  const size_t remaining[] = {32, 32};
  const RequestScheduler::StepPlan plan = sched.PlanStep(10, remaining);
  EXPECT_EQ(plan.decode_tokens, 10u);
  EXPECT_EQ(plan.chunks[0], 1u);
  EXPECT_EQ(plan.chunks[1], 0u);
  EXPECT_EQ(plan.budget_left, 0u);
}

TEST(RequestSchedulerTest, GrantChunkDrawsFromUnspentBudgetWithoutFloor) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.prefill_chunk_tokens = 8;
  options.step_token_budget = 32;
  RequestScheduler sched = fx.Make(options);

  size_t budget_left = 10;
  EXPECT_EQ(sched.GrantChunk(32, &budget_left), 8u);  // Chunk-capped.
  EXPECT_EQ(budget_left, 2u);
  EXPECT_EQ(sched.GrantChunk(32, &budget_left), 2u);  // Budget-capped.
  EXPECT_EQ(budget_left, 0u);
  // A dry budget grants nothing — no floor for mid-step admissions; the next
  // step's PlanStep funds them.
  EXPECT_EQ(sched.GrantChunk(32, &budget_left), 0u);
  EXPECT_EQ(budget_left, 0u);
}

TEST(RequestSchedulerTest, EstimateChunkCappedByStepBudget) {
  SchedulerFixture fx;
  RequestSchedulerOptions wide, tight;
  wide.prefill_chunk_tokens = 64;
  tight.prefill_chunk_tokens = 64;
  tight.step_token_budget = 8;
  RequestScheduler sched_wide = fx.Make(wide);
  RequestScheduler sched_tight = fx.Make(tight);

  // A step budget below the chunk size shrinks the modeled per-step prefill
  // cost: admission reasons about the chunks the engine will actually run.
  const ServingRequest r = SchedulerFixture::MakeRequest(256, 4);
  EXPECT_LT(sched_tight.Estimate(r).prefill_step_gpu_seconds,
            sched_wide.Estimate(r).prefill_step_gpu_seconds);
}

}  // namespace
}  // namespace alaya
