// Cost-aware preemption victim ranking: FairSharePolicy::RankVictims weighs a
// suspension's park cost (device-resident KV moved out now and back at
// resume, ~ gpu_bytes) against the device time the victim's REMAINING work
// would have held. The bargain victim is the long-running request with modest
// KV; the anti-victim is the heavyweight about to finish (its slot frees soon
// anyway — parking its KV is pure waste). Also covers the scheduler-level
// plumbing: RecordProgress shrinks a victim's remaining seconds and thereby
// changes who Admit() advises suspending.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "src/device/device.h"
#include "src/server/request_scheduler.h"
#include "src/server/scheduling_policy.h"

namespace alaya {
namespace {

RunningRequestView View(uint64_t id, int priority, uint64_t gpu_bytes,
                        double remaining_seconds, uint64_t admit_order = 0) {
  RunningRequestView v;
  v.id = id;
  v.priority = priority;
  v.gpu_bytes = gpu_bytes;
  v.remaining_seconds = remaining_seconds;
  v.admit_order = admit_order;
  return v;
}

QueuedRequestView Blocked(int priority) {
  QueuedRequestView q;
  q.id = 999;
  q.priority = priority;
  return q;
}

TEST(VictimRankingTest, CheaperParkCostPerRemainingSecondWinsOverLessWork) {
  FairSharePolicy policy;
  // Victim 1: large KV but a long decode ahead (score 1000/10 = 100 bytes/s).
  // Victim 2: smaller KV yet nearly done (score 800/0.5 = 1600 bytes/s) —
  // under the old (priority, deadline, age) tuple its age would have decided;
  // cost-aware ranking parks the long-runner instead.
  const std::vector<RunningRequestView> running = {
      View(/*id=*/1, /*priority=*/0, /*gpu_bytes=*/1000, /*remaining=*/10.0),
      View(/*id=*/2, /*priority=*/0, /*gpu_bytes=*/800, /*remaining=*/0.5),
  };
  const std::vector<uint64_t> ranked = policy.RankVictims(Blocked(1), running);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 1u);
  EXPECT_EQ(ranked[1], 2u);
}

TEST(VictimRankingTest, OnlyStrictlyLowerClassesAreRanked) {
  FairSharePolicy policy;
  const std::vector<RunningRequestView> running = {
      View(1, /*priority=*/0, 100, 1.0),
      View(2, /*priority=*/1, 100, 1.0),  // Same class as blocked: untouchable.
      View(3, /*priority=*/2, 100, 1.0),  // Higher class: untouchable.
  };
  const std::vector<uint64_t> ranked = policy.RankVictims(Blocked(1), running);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0], 1u);
}

TEST(VictimRankingTest, LowerClassOutranksScoreAndTiesFallBackDeterministic) {
  FairSharePolicy policy;
  // Class trumps cost: a priority-0 victim ranks before a cheaper priority-1
  // victim when priority-2 is blocked.
  const std::vector<RunningRequestView> by_class = {
      View(1, /*priority=*/1, /*gpu_bytes=*/10, /*remaining=*/10.0),  // score 1
      View(2, /*priority=*/0, /*gpu_bytes=*/1000, /*remaining=*/1.0),  // 1000
  };
  const std::vector<uint64_t> ranked = policy.RankVictims(Blocked(2), by_class);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 2u);

  // Identical scores (equal geometry): the most recently admitted parks first
  // (least sunk work), keeping the ranking deterministic.
  const std::vector<RunningRequestView> tied = {
      View(1, 0, 100, 1.0, /*admit_order=*/1),
      View(2, 0, 100, 1.0, /*admit_order=*/2),
  };
  const std::vector<uint64_t> tie_ranked = policy.RankVictims(Blocked(1), tied);
  ASSERT_EQ(tie_ranked.size(), 2u);
  EXPECT_EQ(tie_ranked[0], 2u);
  EXPECT_EQ(tie_ranked[1], 1u);
}

TEST(VictimRankingTest, ZeroRemainingDoesNotDivide) {
  FairSharePolicy policy;
  // A victim whose modeled work is fully consumed (remaining 0) must rank
  // LAST — it retires imminently on its own — and must not trip the division.
  const std::vector<RunningRequestView> running = {
      View(1, 0, 100, 0.0),
      View(2, 0, 100, 5.0),
  };
  const std::vector<uint64_t> ranked = policy.RankVictims(Blocked(1), running);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 2u);
  EXPECT_EQ(ranked[1], 1u);
}

/// End-to-end through the scheduler: RecordProgress feeds
/// RunningRequestView::remaining_seconds, so progress on one of two identical
/// victims flips which one Admit() advises suspending.
TEST(VictimRankingTest, RecordedProgressChangesAdvisedVictim) {
  const ModelConfig model = ModelConfig::Tiny();
  SimEnvironment env;
  auto make_request = [] {
    ServingRequest r;
    r.prompt.assign(64, 7);
    r.max_new_tokens = 16;
    r.fill_step = [](size_t, uint32_t, float*, float*, float*) {};
    r.fill_prompt = [](size_t, uint32_t, float*, float*, float*) {};
    return r;
  };

  auto run_scenario = [&](bool progress_on_second) -> std::vector<uint64_t> {
    RequestSchedulerOptions opts;
    opts.max_concurrent_sessions = 2;
    RequestScheduler sched(model, WindowConfig{8, 16}, env.cost_model(), opts);
    auto a = sched.Enqueue(make_request());
    auto b = sched.Enqueue(make_request());
    EXPECT_TRUE(a.ok() && b.ok());
    const std::vector<RequestScheduler::Admitted> admitted = sched.Admit().admitted;
    EXPECT_EQ(admitted.size(), 2u);
    if (progress_on_second) {
      // Half of the second request's modeled work is done: its remaining
      // seconds halve, its park score doubles, and it stops being the
      // preferred victim despite being the most recently admitted.
      sched.RecordProgress(b.value(),
                           admitted[1].estimate.total_gpu_seconds / 2);
    }
    ServingRequest high = make_request();
    high.priority = 1;
    EXPECT_TRUE(sched.Enqueue(std::move(high)).ok());
    // Slots full: must advise.
    RequestScheduler::AdmitRound blocked = sched.Admit(/*advise_preemption=*/true);
    EXPECT_TRUE(blocked.admitted.empty());
    return blocked.victims;
  };

  // Baseline: identical victims tie on score; the newest admission (the
  // second request, id 2) parks first.
  const std::vector<uint64_t> untouched = run_scenario(false);
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0], 2u);

  // With progress recorded on the second request, the first one becomes the
  // cheaper park (more remaining work for the same KV) and is advised instead.
  const std::vector<uint64_t> progressed = run_scenario(true);
  ASSERT_EQ(progressed.size(), 1u);
  EXPECT_EQ(progressed[0], 1u);
}

}  // namespace
}  // namespace alaya
