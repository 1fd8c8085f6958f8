// Preemptive multi-tenant scheduling: priority classes, suspend/resume with
// zero recompute (the resumed decode is bit-identical to an uninterrupted
// one), a high-priority burst finishing ahead of the long low-priority
// decodes it preempted, FairSharePolicy's exact-FIFO degeneracy on
// single-class traffic, and the suspended-state edge cases —
// cancel-while-suspended, deadline-expiry-while-suspended, suspension racing
// retirement. The storm test races caller threads against the preempting
// driver and runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

struct PreemptFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t context_tokens = 160;
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  uint64_t context_id = 0;
  ThreadPool pool{4};

  ServingEngineOptions EngineOptions(size_t max_concurrent) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.pool = &pool;
    return o;
  }

  PreemptFixture() {
    options.model = model;
    options.session.optimizer.short_context_threshold = 64;
    options.session.window = WindowConfig{8, 16};
    options.materialize_pool = &pool;
    db = std::make_unique<AlayaDB>(options, &env);
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(1);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < context_tokens; ++t) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    auto imported = db->Import(ContextTokens(), std::move(kv));
    EXPECT_TRUE(imported.ok()) << imported.status().ToString();
    context_id = imported.ValueOr(0);
  }

  std::vector<int32_t> ContextTokens() const {
    std::vector<int32_t> t(context_tokens);
    for (size_t i = 0; i < context_tokens; ++i) t[i] = 100 + static_cast<int32_t>(i);
    return t;
  }

  /// A request whose prompt extends `suffix` tokens past the stored context
  /// (prefill work) and decodes `steps` tokens. Deterministic fill callbacks
  /// keyed by `seed`: any schedule — preempted or not — must produce
  /// identical outputs.
  ServingRequest MakeRequest(uint64_t seed, size_t steps, size_t suffix = 0) const {
    ServingRequest r;
    r.prompt = ContextTokens();
    for (size_t i = 0; i < suffix; ++i) {
      r.prompt.push_back(5000 + static_cast<int32_t>(seed * 100 + i));
    }
    r.max_new_tokens = steps;
    const ModelConfig m = model;
    r.fill_step = [m, seed](size_t step, uint32_t layer, float* q, float* k,
                            float* v) {
      Rng rng(seed * 1000003ull + step * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
    };
    if (suffix > 0) {
      r.fill_prompt = [m, seed](size_t token, uint32_t layer, float* q, float* k,
                                float* v) {
        Rng rng(seed * 2000003ull + token * 137ull + layer);
        rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
        rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
        rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      };
    }
    return r;
  }
};

// The tentpole golden: a low-priority request preempted mid-decode by a
// high-priority one resumes with ZERO recompute and finishes bit-identical to
// an uninterrupted solo run — same outputs, and prefilled_tokens exactly the
// uncovered suffix length (nothing was prefilled twice).
TEST(ServingPreemptTest, PreemptedDecodeResumesBitIdenticalWithZeroRecompute) {
  constexpr size_t kSteps = 48;
  constexpr size_t kSuffix = 24;
  constexpr uint64_t kSeed = 7;

  // Solo golden: the same request, alone, never preempted.
  std::vector<float> golden;
  {
    PreemptFixture fx;
    ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
    ServingRequest req = fx.MakeRequest(kSeed, kSteps, kSuffix);
    req.record_outputs = true;
    auto h = engine.Submit(std::move(req));
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(engine.RunToCompletion().ok());
    const RequestResult* r = h.value().TryWait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_EQ(r->prefilled_tokens, kSuffix);
    golden = r->outputs;
    ASSERT_EQ(golden.size(),
              kSteps * static_cast<size_t>(fx.model.num_q_heads) * fx.model.head_dim);
  }

  // Contended: one slot; the low request is provably mid-decode (first-token
  // latch) when the high-priority one arrives and takes the slot from it.
  PreemptFixture fx;
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  ASSERT_TRUE(engine.Start().ok());

  std::latch first_token(1);
  ServingRequest low = fx.MakeRequest(kSeed, kSteps, kSuffix);
  low.record_outputs = true;
  low.priority = 0;
  low.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) first_token.count_down();
    // Pace the early steps so the high request lands mid-decode, well before
    // the low one finishes; the tail runs at full speed.
    if (step < kSteps / 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  auto low_h = engine.Submit(std::move(low));
  ASSERT_TRUE(low_h.ok());
  first_token.wait();

  ServingRequest high = fx.MakeRequest(99, 4);
  high.priority = 1;
  auto high_h = engine.Submit(std::move(high));
  ASSERT_TRUE(high_h.ok());

  const RequestResult* hr = high_h.value().Wait();
  ASSERT_NE(hr, nullptr);
  EXPECT_TRUE(hr->status.ok()) << hr->status.ToString();
  EXPECT_EQ(hr->priority, 1);

  const RequestResult* lr = low_h.value().Wait();
  ASSERT_NE(lr, nullptr);
  ASSERT_TRUE(lr->status.ok()) << lr->status.ToString();
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());

  // The low request was actually suspended and resumed...
  EXPECT_GE(lr->preemptions, 1u);
  EXPECT_EQ(lr->resumes, lr->preemptions);
  // ...prefilled exactly its uncovered suffix once (zero recompute)...
  EXPECT_EQ(lr->prefilled_tokens, kSuffix);
  EXPECT_EQ(lr->steps_completed, kSteps);
  // ...and decoded bit-identical to the uninterrupted solo run.
  EXPECT_EQ(lr->outputs, golden);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.preemptions, 1u);
  EXPECT_EQ(snap.resumes, snap.preemptions);
  // Per-class accounting saw both classes complete and the preemption.
  ASSERT_EQ(snap.classes.size(), 2u);
  EXPECT_EQ(snap.classes[0].priority, 0);
  EXPECT_EQ(snap.classes[0].completed, 1u);
  EXPECT_GE(snap.classes[0].preempted, 1u);
  EXPECT_EQ(snap.classes[1].priority, 1);
  EXPECT_EQ(snap.classes[1].completed, 1u);
  EXPECT_EQ(snap.classes[1].preempted, 0u);
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
}

// Priority burst: with every slot holding a long low-priority decode, a burst
// of high-priority requests preempts its way in — every high finishes before
// any low, and every low still completes all its steps after resuming. Host
// independent: the driver parks inside a step (in a low's token callback)
// until the whole burst is queued, and finish order is read from the driver's
// own token stream, not from wall-clock TTFT.
TEST(ServingPreemptTest, PriorityBurstFinishesBeforeAnyPreemptedLow) {
  constexpr size_t kSlots = 4, kLows = 4, kHighs = 6;
  constexpr size_t kLowSteps = 64, kHighSteps = 4;
  PreemptFixture fx;
  ServingEngine engine(fx.db.get(), fx.EngineOptions(kSlots));

  // Finish order: on_token runs on the driver thread, so one counter bumped
  // at each request's last token totally orders completions.
  std::atomic<size_t> finish_seq{0};
  std::vector<size_t> low_done(kLows), high_done(kHighs);
  std::atomic<size_t> lows_decoding{0};
  std::promise<void> all_lows_decoding, burst_queued;
  std::shared_future<void> burst = burst_queued.get_future().share();

  std::vector<RequestHandle> lows, highs;
  for (size_t i = 0; i < kLows; ++i) {
    ServingRequest r = fx.MakeRequest(800 + i, kLowSteps);
    r.priority = 0;
    r.on_token = [&, i](size_t step, std::span<const float>) {
      // The last low to stream its first token parks the driver mid-step:
      // all four slots are now provably mid-decode.
      if (step == 0 && lows_decoding.fetch_add(1) + 1 == kLows) {
        all_lows_decoding.set_value();
        burst.wait();
      }
      if (step + 1 == kLowSteps) low_done[i] = finish_seq.fetch_add(1);
    };
    auto h = engine.Submit(std::move(r));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    lows.push_back(h.value());
  }
  ASSERT_TRUE(engine.Start().ok());
  all_lows_decoding.get_future().wait();
  for (size_t i = 0; i < kHighs; ++i) {
    ServingRequest r = fx.MakeRequest(900 + i, kHighSteps);
    r.priority = 1;
    r.on_token = [&, i](size_t step, std::span<const float>) {
      if (step + 1 == kHighSteps) high_done[i] = finish_seq.fetch_add(1);
    };
    auto h = engine.Submit(std::move(r));
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    if (h.ok()) highs.push_back(h.value());
  }
  burst_queued.set_value();  // Unpark the driver: the burst is queued.
  ASSERT_EQ(highs.size(), kHighs);

  for (size_t i = 0; i < kHighs; ++i) {
    const RequestResult* r = highs[i].Wait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << "high " << i << ": " << r->status.ToString();
    EXPECT_EQ(r->steps_completed, kHighSteps) << "high " << i;
  }
  size_t low_preemptions = 0;
  for (size_t i = 0; i < kLows; ++i) {
    const RequestResult* r = lows[i].Wait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << "low " << i << ": " << r->status.ToString();
    // Suspension loses no work: the full decode completes after resuming.
    EXPECT_EQ(r->steps_completed, kLowSteps) << "low " << i;
    EXPECT_EQ(r->resumes, r->preemptions) << "low " << i;
    low_preemptions += r->preemptions;
  }
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());

  EXPECT_GE(low_preemptions, 1u);
  EXPECT_GE(engine.snapshot().preemptions, 1u);
  const size_t last_high = *std::max_element(high_done.begin(), high_done.end());
  const size_t first_low = *std::min_element(low_done.begin(), low_done.end());
  EXPECT_LT(last_high, first_low) << "a low finished before the high burst drained";
}

// FairSharePolicy degenerates to exact FIFO on single-class traffic: with one
// tenant, one priority and no deadlines, every round picks the arrival head
// and nothing is ever ranked for preemption — whatever the request costs and
// the ledger's balance. Seeded random queues grow and drain round by round.
TEST(ServingPreemptTest, FairShareDegeneratesToFifoOnSingleClassTraffic) {
  FairSharePolicy policy;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const uint64_t tenant = rng.UniformInt(8);
    const int priority = static_cast<int>(rng.UniformInt(5)) - 2;
    const double weight = rng.UniformRange(0.25, 4.0);
    TenantLedger ledger;
    ledger[tenant].weight = weight;
    auto make = [&](uint64_t id) {
      QueuedRequestView v;
      v.id = id;
      v.priority = priority;
      v.tenant_id = tenant;
      v.cost_seconds = rng.UniformRange(0.0, 1e-3);
      return v;
    };
    std::vector<QueuedRequestView> queue;
    uint64_t next_id = 1;
    for (size_t n = 1 + rng.UniformInt(12); n > 0; --n) queue.push_back(make(next_id++));
    std::vector<RunningRequestView> running(1 + rng.UniformInt(4));
    for (size_t i = 0; i < running.size(); ++i) {
      running[i].id = 1000 + i;
      running[i].priority = priority;
      running[i].tenant_id = tenant;
      running[i].gpu_bytes = 1 + rng.UniformInt(1 << 20);
      running[i].remaining_seconds = rng.UniformRange(0.0, 1.0);
      running[i].admit_order = i;
    }
    for (int round = 0; !queue.empty(); ++round) {
      ASSERT_EQ(policy.PickNext(queue, ledger), 0u) << "seed " << seed << " round " << round;
      EXPECT_TRUE(policy.RankVictims(queue.front(), running).empty()) << "seed " << seed;
      policy.OnAdmitted(queue, 0, &ledger);
      queue.erase(queue.begin());
      // Fresh arrivals join the tail between rounds.
      for (size_t n = rng.UniformInt(3); n > 0 && next_id < 64; --n) {
        queue.push_back(make(next_id++));
      }
    }
    EXPECT_EQ(ledger[tenant].admitted, next_id - 1) << "seed " << seed;
  }
}

TEST(ServingPreemptTest, CancelWhileSuspendedFinalizesAndFreesParkedState) {
  PreemptFixture fx;
  const uint64_t host_baseline = fx.env.host_memory().current();
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  ASSERT_TRUE(engine.Start().ok());

  std::latch low_started(1);
  ServingRequest low = fx.MakeRequest(400, /*steps=*/100000);
  low.priority = 0;
  low.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) low_started.count_down();
  };
  auto low_h = engine.Submit(std::move(low));
  ASSERT_TRUE(low_h.ok());
  low_started.wait();

  std::latch high_started(1);
  ServingRequest high = fx.MakeRequest(401, /*steps=*/100000);
  high.priority = 1;
  high.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) high_started.count_down();
  };
  auto high_h = engine.Submit(std::move(high));
  ASSERT_TRUE(high_h.ok());
  high_started.wait();  // High decoding on the only slot => low is suspended.

  // The caller-thread cancel cannot steal the resume entry (the driver owns
  // the suspended lifecycle); the driver's sweep finalizes it.
  EXPECT_TRUE(low_h.value().Cancel());
  const RequestResult* lr = low_h.value().Wait();
  ASSERT_NE(lr, nullptr);
  EXPECT_TRUE(lr->status.IsCancelled()) << lr->status.ToString();
  EXPECT_EQ(lr->preemptions, 1u);
  EXPECT_EQ(lr->resumes, 0u);
  EXPECT_GE(lr->steps_completed, 1u);  // Its pre-suspension tokens stand.

  EXPECT_TRUE(high_h.value().Cancel());
  ASSERT_NE(high_h.value().Wait(), nullptr);
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
  EXPECT_EQ(engine.snapshot().cancelled, 2u);
  // The parked KV's host reservation was returned: host residency is back to
  // the pre-engine baseline (the imported context only).
  EXPECT_EQ(fx.env.host_memory().current(), host_baseline);
}

TEST(ServingPreemptTest, DeadlineExpiryWhileSuspendedIsSwept) {
  PreemptFixture fx;
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  ASSERT_TRUE(engine.Start().ok());

  std::latch low_started(1);
  ServingRequest low = fx.MakeRequest(500, /*steps=*/100000);
  low.priority = 0;
  low.deadline_seconds = 0.15;  // Plenty to admit + decode; hopeless for 1e5.
  low.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) low_started.count_down();
  };
  auto low_h = engine.Submit(std::move(low));
  ASSERT_TRUE(low_h.ok());
  low_started.wait();

  // The hog never finishes on its own, so the low request can never resume:
  // its deadline expires while it waits suspended.
  ServingRequest high = fx.MakeRequest(501, /*steps=*/100000);
  high.priority = 1;
  auto high_h = engine.Submit(std::move(high));
  ASSERT_TRUE(high_h.ok());

  const RequestResult* lr = low_h.value().Wait();
  ASSERT_NE(lr, nullptr);
  EXPECT_TRUE(lr->status.IsDeadlineExceeded()) << lr->status.ToString();
  EXPECT_GE(lr->preemptions, 1u);
  EXPECT_EQ(lr->resumes, 0u);

  EXPECT_TRUE(high_h.value().Cancel());
  ASSERT_NE(high_h.value().Wait(), nullptr);
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
  EXPECT_EQ(engine.snapshot().deadline_exceeded, 1u);
}

// Suspension racing retirement: victims picked from a stale running view may
// already be terminal when the suspension lands — they must retire normally
// (never strand in suspended_), and every other request must still reach a
// typed terminal state. Mixed priorities/tenants/deadlines/cancels racing the
// preempting driver from multiple threads; runs under TSan in CI.
TEST(ServingPreemptTest, PreemptionStormRacesDriver) {
  constexpr size_t kRequests = 30;
  PreemptFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(3);
  opts.scheduler.tenant_weights[1] = 2.0;
  ServingEngine engine(fx.db.get(), opts);
  ASSERT_TRUE(engine.Start().ok());

  std::vector<RequestHandle> handles(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    // Short decodes (1–6 steps) keep retirement racing suspension: a victim
    // advised this boundary is often terminal by the time it would suspend.
    ServingRequest req = fx.MakeRequest(600 + i, 1 + i % 6);
    req.priority = static_cast<int>(i % 3);
    req.tenant_id = i % 3;
    if (i % 5 == 1) req.deadline_seconds = 0.002 * static_cast<double>(1 + i % 7);
    auto h = engine.Submit(std::move(req));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles[i] = h.value();
  }

  std::vector<std::thread> cancellers;
  for (int t = 0; t < 2; ++t) {
    cancellers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < kRequests; i += 2) {
        if (i % 5 == 2) handles[i].Cancel();
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : cancellers) th.join();

  size_t ok = 0, cancelled = 0, expired = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    const RequestResult* r = handles[i].Wait();
    ASSERT_NE(r, nullptr) << "request " << i;
    if (r->status.ok()) {
      ++ok;
      EXPECT_EQ(r->steps_completed, 1 + i % 6) << "request " << i;
    } else if (r->status.IsCancelled()) {
      ++cancelled;
    } else if (r->status.IsDeadlineExceeded()) {
      ++expired;
    } else {
      FAIL() << "untyped terminal status: " << r->status.ToString();
    }
  }
  EXPECT_EQ(ok + cancelled + expired, kRequests);
  EXPECT_GT(ok, 0u);

  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());
  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.completed, kRequests);
  EXPECT_EQ(snap.cancelled, cancelled);
  EXPECT_EQ(snap.deadline_exceeded, expired);
  // A preempted request either resumed or was finalized while suspended —
  // resumes can never exceed preemptions.
  EXPECT_LE(snap.resumes, snap.preemptions);
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
  // No starvation: every tenant that submitted work was admitted, and the
  // ledger proves it.
  ASSERT_EQ(snap.tenants.size(), 3u);
  for (const TenantServingStats& t : snap.tenants) {
    EXPECT_GT(t.admitted, 0u) << "tenant " << t.tenant_id;
    EXPECT_GT(t.completed, 0u) << "tenant " << t.tenant_id;
  }
  EXPECT_DOUBLE_EQ(snap.tenants[1].weight, 2.0);
}

}  // namespace
}  // namespace alaya
