// Device gangs: context parallelism for prompts whose KV footprint exceeds
// any single device's budget. The acceptance bar: a devices=4 gang decode of
// a budget-exceeding prompt is BIT-IDENTICAL to the single-device run of the
// same prompt — the shard map assigns whole accumulation blocks and the
// ring-merged partial softmax is exact, so ganging moves residency, never
// math. Also: smallest-sufficient-gang admission (a subset budget gangs 2,
// not 4), the kNeverFits gate relaxing to the largest permitted gang's
// combined budget (the max servable context scales with gang size), and a
// TSan-targeted multi-gang stress run.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

/// One stored context per tenant (prefix-disjoint token sequences); requests
/// fully reuse their tenant's context and decode a deterministic tail.
struct GangFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t context_tokens = 160;
  size_t tenants = 1;
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  std::vector<uint64_t> context_ids;
  ThreadPool pool{4};

  explicit GangFixture(size_t num_tenants = 1) : tenants(num_tenants) {
    options.model = model;
    options.session.optimizer.short_context_threshold = 64;
    options.session.window = WindowConfig{8, 16};
    options.materialize_pool = &pool;
    db = std::make_unique<AlayaDB>(options, &env);
    for (size_t t = 0; t < tenants; ++t) {
      auto imported = db->Import(ContextTokens(t), MakeKv(/*seed=*/1 + t));
      EXPECT_TRUE(imported.ok()) << imported.status().ToString();
      context_ids.push_back(imported.ValueOr(0));
    }
  }

  ServingEngineOptions EngineOptions(size_t max_concurrent, size_t devices,
                                     size_t max_gang = 1) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.devices = devices;
    o.scheduler.max_gang_size = max_gang;
    o.pool = &pool;
    return o;
  }

  std::vector<int32_t> ContextTokens(size_t tenant) const {
    std::vector<int32_t> t(context_tokens);
    for (size_t i = 0; i < context_tokens; ++i) {
      t[i] = static_cast<int32_t>(1000 * (tenant + 1) + i);
    }
    return t;
  }

  std::unique_ptr<KvCache> MakeKv(uint64_t seed) const {
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(seed);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < context_tokens; ++t) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    return kv;
  }

  ServingRequest MakeRequest(size_t tenant, uint64_t seed, size_t steps) const {
    ServingRequest r;
    r.prompt = ContextTokens(tenant);
    r.max_new_tokens = steps;
    r.record_outputs = true;
    const ModelConfig m = model;
    r.fill_step = [m, seed](size_t step, uint32_t layer, float* q, float* k,
                            float* v) {
      Rng rng(seed * 1000003ull + step * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
    };
    return r;
  }

  /// The projected device footprint of MakeRequest(0, ..., steps) — the
  /// number the per-device budget is sized against.
  uint64_t FootprintBytes(size_t steps) {
    ServingEngine sizer(db.get(), EngineOptions(1, 1));
    return sizer.scheduler().Estimate(MakeRequest(0, 1, steps)).gpu_bytes;
  }
};

/// Runs one request to completion and returns its result (asserting success).
const RequestResult* RunOne(ServingEngine* engine, ServingRequest request) {
  auto h = engine->Submit(std::move(request));
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  if (!h.ok()) return nullptr;
  EXPECT_TRUE(engine->RunToCompletion().ok());
  return h.value().Wait();
}

TEST(ServingGangTest, GangOfFourBitIdenticalToSingleDeviceGolden) {
  constexpr size_t kSteps = 6;

  // Golden: unbounded single device.
  GangFixture golden_fx;
  ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(1, 1));
  const RequestResult* g = RunOne(&golden, golden_fx.MakeRequest(0, 11, kSteps));
  ASSERT_NE(g, nullptr);
  ASSERT_TRUE(g->status.ok()) << g->status.ToString();

  // Gang: a per-device budget in [ceil(b/4), b/3) rejects solo and every
  // smaller gang, so placement must shard across exactly four devices.
  GangFixture fx;
  const uint64_t bytes = fx.FootprintBytes(kSteps);
  ASSERT_GT(bytes, 96u);  // The interval below needs headroom to be non-empty.
  ServingEngineOptions opts = fx.EngineOptions(1, 4, /*max_gang=*/4);
  opts.scheduler.gpu_budget_bytes = bytes * 7 / 24;
  ServingEngine engine(fx.db.get(), opts);
  const RequestResult* r = RunOne(&engine, fx.MakeRequest(0, 11, kSteps));
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->steps_completed, kSteps);

  // The core invariant: ganging is residency orchestration, not new math.
  ASSERT_EQ(r->outputs.size(), g->outputs.size());
  EXPECT_EQ(r->outputs, g->outputs);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.gang_admissions, 1u);
  EXPECT_GT(snap.gang_ring_transfer_bytes, 0u);
  ASSERT_EQ(snap.devices.size(), 4u);
  for (const DeviceServingStats& ds : snap.devices) {
    EXPECT_EQ(ds.gang_shards, 1u) << "device " << ds.device;
    EXPECT_EQ(ds.reserved_bytes, 0u) << "leaked reservation on " << ds.device;
    EXPECT_EQ(ds.active_sessions, 0u) << "device " << ds.device;
  }
}

TEST(ServingGangTest, SubsetBudgetAdmitsSmallestSufficientGang) {
  constexpr size_t kSteps = 4;
  GangFixture golden_fx;
  ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(1, 1));
  const RequestResult* g = RunOne(&golden, golden_fx.MakeRequest(0, 21, kSteps));
  ASSERT_NE(g, nullptr);

  // Budget in [ceil(b/2), b): solo never fits, a pair does — with four
  // devices available, the gang must stop at two members, leaving the rest
  // of the fleet free.
  GangFixture fx;
  const uint64_t bytes = fx.FootprintBytes(kSteps);
  ServingEngineOptions opts = fx.EngineOptions(1, 4, /*max_gang=*/4);
  opts.scheduler.gpu_budget_bytes = bytes * 3 / 4;
  ServingEngine engine(fx.db.get(), opts);
  const RequestResult* r = RunOne(&engine, fx.MakeRequest(0, 21, kSteps));
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->outputs, g->outputs);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.gang_admissions, 1u);
  size_t members = 0;
  for (const DeviceServingStats& ds : snap.devices) {
    members += ds.gang_shards;
  }
  EXPECT_EQ(members, 2u);  // Smallest sufficient gang, not the whole fleet.
}

TEST(ServingGangTest, NeverFitsGateRelaxesToLargestPermittedGang) {
  constexpr size_t kSteps = 4;
  GangFixture fx;
  const uint64_t bytes = fx.FootprintBytes(kSteps);
  const uint64_t budget = bytes / 3;  // One device can never hold it.

  // Without gangs the request is permanently unplaceable at the front door.
  ServingEngineOptions solo = fx.EngineOptions(1, 4, /*max_gang=*/1);
  solo.scheduler.gpu_budget_bytes = budget;
  {
    ServingEngine engine(fx.db.get(), solo);
    auto h = engine.Submit(fx.MakeRequest(0, 31, kSteps));
    ASSERT_FALSE(h.ok());
    EXPECT_EQ(h.status().code(), StatusCode::kNeverFits);
  }
  // With a gang of four permitted, the same request is admissible.
  ServingEngineOptions gang = fx.EngineOptions(1, 4, /*max_gang=*/4);
  gang.scheduler.gpu_budget_bytes = budget;
  {
    ServingEngine engine(fx.db.get(), gang);
    auto h = engine.Submit(fx.MakeRequest(0, 31, kSteps));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ASSERT_TRUE(engine.RunToCompletion().ok());
    EXPECT_TRUE(h.value().Wait()->status.ok());
    EXPECT_EQ(engine.snapshot().gang_admissions, 1u);
  }
}

TEST(ServingGangTest, MaxServableContextScalesWithGangSize) {
  // The admission boundary a gang relaxes: the largest zero-reuse prompt
  // Enqueue accepts (rather than rejecting kNeverFits) grows with the gang's
  // combined budget. A fresh scheduler per probe — Enqueue holds no
  // reservation, but one instance would hit max_queue_depth mid-search.
  constexpr size_t kDevices = 4;
  const ModelConfig model = ModelConfig::Tiny();
  const WindowConfig window{8, 16};
  SimEnvironment env;
  auto max_servable = [&](size_t gang) {
    RequestSchedulerOptions opts;
    opts.gpu_budget_bytes = 512 * model.KvBytesPerToken();
    opts.max_gang_size = gang;
    auto fits = [&](size_t tokens) {
      RequestScheduler sched(model, window, env.cost_model(), opts, kDevices);
      ServingRequest r;
      r.prompt.assign(tokens, 7);
      r.max_new_tokens = 1;
      r.fill_step = [](size_t, uint32_t, float*, float*, float*) {};
      return sched.Enqueue(std::move(r)).ok();
    };
    size_t lo = 1, hi = 2;  // Invariant: fits(lo) && !fits(hi).
    EXPECT_TRUE(fits(lo));
    while (fits(hi)) {
      lo = hi;
      hi *= 2;
    }
    while (lo + 1 < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      (fits(mid) ? lo : hi) = mid;
    }
    return lo;
  };
  std::vector<size_t> max_tokens;
  for (size_t gang = 1; gang <= kDevices; ++gang) {
    max_tokens.push_back(max_servable(gang));
    SCOPED_TRACE(testing::Message() << "gang " << gang);
    if (gang > 1) {
      EXPECT_GT(max_tokens[gang - 1], max_tokens[gang - 2]);
    }
  }
  const double scaling = static_cast<double>(max_tokens.back()) /
                         static_cast<double>(max_tokens.front());
  EXPECT_GE(scaling, 3.0) << "gang-1 " << max_tokens.front() << " tokens, gang-4 "
                          << max_tokens.back() << " tokens";
}

TEST(ServingGangTest, SchedulerGangKnobIsTheOnlyGangKnob) {
  // scheduler.max_gang_size alone decides ganging: on a two-device fleet
  // whose per-device budget a pair could hold, a gang size of 1 still rejects
  // the over-budget prompt permanently — nothing else widens the gang.
  constexpr size_t kSteps = 4;
  GangFixture fx;
  ServingEngineOptions opts;
  opts.pool = &fx.pool;
  opts.devices = 2;
  opts.scheduler.max_gang_size = 1;
  opts.scheduler.gpu_budget_bytes = fx.FootprintBytes(kSteps) * 3 / 4;
  ServingEngine engine(fx.db.get(), opts);
  auto h = engine.Submit(fx.MakeRequest(0, 41, kSteps));
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kNeverFits);
}

TEST(ServingGangTest, MultiGangStressAllComplete) {
  constexpr size_t kSteps = 4;
  constexpr size_t kRequests = 8;

  // Per-request goldens on an unbounded single device.
  GangFixture golden_fx(/*num_tenants=*/2);
  std::vector<std::vector<float>> goldens;
  for (size_t i = 0; i < kRequests; ++i) {
    ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(1, 1));
    const RequestResult* g =
        RunOne(&golden, golden_fx.MakeRequest(i % 2, 100 + i, kSteps));
    ASSERT_NE(g, nullptr);
    ASSERT_TRUE(g->status.ok());
    goldens.push_back(g->outputs);
  }

  // Budget in [ceil(b/2), b): no request fits solo, so every admission gangs
  // at least two devices — and concurrent residents can widen a later gang
  // (smallest sufficient given CURRENT free bytes, not geometry alone). The
  // TSan target: concurrent gang admissions, per-member charging, ring
  // accounting and release must all be race-free.
  GangFixture fx(/*num_tenants=*/2);
  const uint64_t bytes = fx.FootprintBytes(kSteps);
  ServingEngineOptions opts = fx.EngineOptions(4, 4, /*max_gang=*/4);
  opts.scheduler.gpu_budget_bytes = bytes * 3 / 4;
  ServingEngine engine(fx.db.get(), opts);
  ASSERT_TRUE(engine.Start().ok());

  std::vector<RequestHandle> handles(kRequests);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = t; i < kRequests; i += 2) {
        auto h = engine.Submit(fx.MakeRequest(i % 2, 100 + i, kSteps));
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles[i] = h.value();
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  for (size_t i = 0; i < kRequests; ++i) {
    const RequestResult* r = handles[i].Wait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << "request " << i << ": " << r->status.ToString();
    EXPECT_EQ(r->steps_completed, kSteps);
    EXPECT_EQ(r->outputs, goldens[i]) << "request " << i;
  }
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.gang_admissions, kRequests);
  size_t shards = 0;
  for (const DeviceServingStats& ds : snap.devices) shards += ds.gang_shards;
  EXPECT_GE(shards, kRequests * 2);  // Every admission spanned >= 2 members.
  EXPECT_GT(snap.gang_ring_transfer_bytes, 0u);
}

}  // namespace
}  // namespace alaya
