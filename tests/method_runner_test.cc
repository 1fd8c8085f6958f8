#include "bench/harness/method_runner.h"

#include <gtest/gtest.h>

#include <cstring>

#include "bench/harness/inference_sim.h"
#include "bench/harness/lmcache.h"

namespace alaya {
namespace {

struct RunnerFixture {
  SyntheticContextOptions opts;
  SyntheticContext ctx;
  SimEnvironment env;

  RunnerFixture() : opts(MakeOptions()), ctx(opts) {
    Status st = ctx.Generate();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  static SyntheticContextOptions MakeOptions() {
    SyntheticContextOptions o;
    o.model = ModelConfig{2, 4, 2, 64, 2};
    o.spec = FindTask(InfinityBenchSuite(0.03), "En.MC");
    return o;
  }

  float DiprBeta() const {
    return static_cast<float>(SuggestedDiprBeta(opts.spec, 64));
  }

  /// The context imported for the Top-k and DIPRS rows (built once).
  Context* Imported() {
    if (imported == nullptr) {
      auto stored = ImportContext(ctx, &env);
      EXPECT_TRUE(stored.ok()) << stored.status().ToString();
      imported = stored.TakeValue();
    }
    return imported.get();
  }

  /// The session row over the whole imported context, under MethodSpec's
  /// default window.
  std::unique_ptr<Session> DiprsSession() {
    Context* stored = Imported();
    return std::make_unique<Session>(
        opts.model, DiprsSessionOptions(MethodSpec{}.window, DiprBeta()), stored,
        stored->length(), &env);
  }

  std::shared_ptr<Context> imported;
};

TEST(MethodRunnerTest, AllMethodsProduceOutput) {
  RunnerFixture fx;
  std::vector<MethodSpec> specs = {MethodSpec::Full(), MethodSpec::Streaming(1024),
                                   MethodSpec::InfLlm(1024), MethodSpec::TopK(64)};
  std::vector<float> q(64), out(64);
  fx.ctx.MakeDecodeQuery(0, 1, 0, q.data());
  auto expect_output = [&](const AttentionSource& source) {
    MethodHeadStats stats;
    ASSERT_TRUE(source.attend(1, 0, q.data(), out.data(), &stats).ok()) << source.label;
    EXPECT_GT(stats.attended, 0u) << source.label;
    EXPECT_GT(Norm(out.data(), 64), 0.f) << source.label;
  };
  for (auto& spec : specs) {
    MethodRunner runner(fx.opts.model, spec);
    ASSERT_TRUE(runner.Prepare(fx.ctx, &fx.env, fx.Imported()).ok()) << spec.label;
    expect_output(RunnerSource(&runner));
  }
  auto session = fx.DiprsSession();
  expect_output(SessionSource(session.get(), "DIPRS"));
}

TEST(MethodRunnerTest, AttendBeforePrepareFails) {
  RunnerFixture fx;
  MethodRunner runner(fx.opts.model, MethodSpec::Full());
  std::vector<float> q(64, 1.f), out(64);
  EXPECT_EQ(runner.AttendHead(0, 0, q.data(), out.data(), nullptr).code(),
            StatusCode::kFailedPrecondition);
  // Top-k searches the imported context's graphs and has none without it.
  MethodRunner topk(fx.opts.model, MethodSpec::TopK(8));
  EXPECT_EQ(topk.Prepare(fx.ctx, &fx.env).code(), StatusCode::kFailedPrecondition);
}

TEST(MethodRunnerTest, GpuBytesOrdering) {
  RunnerFixture fx;
  auto bytes = [&](const MethodSpec& spec) {
    MethodRunner runner(fx.opts.model, spec);
    EXPECT_TRUE(runner.Prepare(fx.ctx, &fx.env).ok());
    return runner.GpuBytes();
  };
  const uint64_t full = bytes(MethodSpec::Full());
  const uint64_t streaming = bytes(MethodSpec::Streaming(512));
  // Small recent window so InfLLM's device cache stays well below the tiny
  // test context (at paper scale the default 4K window is ~2% of context).
  const uint64_t infllm = bytes(MethodSpec::InfLlm(1024, /*recent=*/256));
  auto session = fx.DiprsSession();
  const uint64_t diprs = SessionSource(session.get(), "DIPRS").gpu_bytes;
  // A fresh session holds exactly its window on device.
  EXPECT_EQ(diprs, WindowCache(MethodSpec{}.window).Size(fx.ctx.num_tokens()) *
                       fx.opts.model.KvBytesPerToken());
  // Full attention keeps everything on device; fine-grained methods only the
  // window; InfLLM sits in between (Fig. 9 / Table 1).
  EXPECT_GT(full, infllm);
  EXPECT_GT(infllm, diprs);
  EXPECT_GE(streaming, diprs / 2);  // Streaming ~ window-sized as well.
  EXPECT_LT(diprs, full / 4);
}

TEST(MethodRunnerTest, DiprsRetrievesDynamicCounts) {
  RunnerFixture fx;
  auto session = fx.DiprsSession();
  const AttentionSource source = SessionSource(session.get(), "DIPRS");
  std::vector<float> q(64), out(64);
  std::vector<size_t> counts;
  for (uint32_t h = 0; h < 4; ++h) {
    fx.ctx.MakeDecodeQuery(0, 1, h, q.data());
    MethodHeadStats stats;
    ASSERT_TRUE(source.attend(1, h, q.data(), out.data(), &stats).ok());
    counts.push_back(stats.retrieved);
  }
  // Heads have different planted critical sizes; retrieved counts vary.
  bool any_different = false;
  for (size_t i = 1; i < counts.size(); ++i) {
    if (counts[i] != counts[0]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(InferenceSimTest, SessionRowEqualsSessionAttention) {
  // The session row adds no math of its own: its per-head outputs for a step
  // are Session::Attention's for that layer, bit for bit.
  RunnerFixture fx;
  auto row_session = fx.DiprsSession();
  auto layer_session = fx.DiprsSession();
  const AttentionSource source = SessionSource(row_session.get(), "DIPRS");
  const ModelConfig& m = fx.opts.model;
  const size_t d = m.head_dim;
  std::vector<float> q(m.num_q_heads * d), want(q.size()), got(q.size());
  for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
    fx.ctx.MakeDecodeQueryLayer(0, layer, q.data());
    ASSERT_TRUE(layer_session->Attention(layer, q.data(), want.data()).ok());
    for (uint32_t h = 0; h < m.num_q_heads; ++h) {
      MethodHeadStats stats;
      ASSERT_TRUE(
          source.attend(layer, h, q.data() + h * d, got.data() + h * d, &stats).ok());
      EXPECT_GT(stats.retrieved, 0u) << "layer " << layer << " head " << h;
    }
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << "layer " << layer;
  }
}

TEST(InferenceSimTest, EvaluateProducesConsistentStats) {
  RunnerFixture fx;
  auto session = fx.DiprsSession();
  EvalOptions eopts = MakeScaledEvalOptions(fx.opts.model);
  eopts.decode_steps = 2;
  auto eval = EvaluateMethod(fx.ctx, SessionSource(session.get(), "DIPRS"), eopts);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval.value().label, "DIPRS");
  EXPECT_EQ(eval.value().gpu_bytes, session->GpuResidentBytes());
  EXPECT_GT(eval.value().fidelity, 0.5);
  EXPECT_LE(eval.value().fidelity, 1.0);
  EXPECT_GT(eval.value().tpot_seconds, 0.0);
  EXPECT_GT(eval.value().mean_attended, 0.0);
}

TEST(InferenceSimTest, ScaledOptionsMatchGeometryRatio) {
  ModelConfig bench{4, 8, 2, 128, 2};
  EvalOptions opts = MakeScaledEvalOptions(bench);
  // (32*32)/(4*8) = 32.
  EXPECT_NEAR(opts.layer_head_scale, 32.0, 1e-9);
  // KV bytes/token ratio: (2*8*128*2*32)/(2*2*128*2*4) = 32.
  EXPECT_NEAR(opts.gpu_ctx_scale, 32.0, 1e-9);
  EXPECT_NEAR(opts.gpu_fixed_scale, 32.0, 1e-9);
}

TEST(InferenceSimTest, AnchorScoresUsesFullRow) {
  std::vector<MethodEval> evals(3);
  evals[0].label = "Full Attention";
  evals[0].fidelity = 0.8;
  evals[1].label = "DIPRS";
  evals[1].fidelity = 0.9;
  evals[2].label = "StreamingLLM";
  evals[2].fidelity = 0.4;
  AnchorScores(&evals, 50.0);
  EXPECT_DOUBLE_EQ(evals[0].score, 50.0);
  EXPECT_NEAR(evals[1].score, 56.25, 1e-9);
  EXPECT_NEAR(evals[2].score, 25.0, 1e-9);
}

TEST(LmCacheTest, LoadCostsScaleWithContextLength) {
  SimEnvironment env;
  LmCacheStore store(LmCacheOptions{}, &env);
  ModelConfig m = ModelConfig::Tiny();
  for (uint64_t id = 1; id <= 2; ++id) {
    // Large enough that per-call launch overheads are negligible.
    ASSERT_TRUE(store.StoreContextBytes(id, id * 20000, m.KvBytesPerToken()).ok());
  }
  auto l1 = store.Load(1);
  auto l2 = store.Load(2);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  EXPECT_NEAR(l2.value().total_seconds / l1.value().total_seconds, 2.0, 0.2);
  EXPECT_GT(l1.value().decompress_seconds, 0.0);
  EXPECT_GT(l1.value().transfer_seconds, 0.0);
  EXPECT_FALSE(store.Load(99).ok());
  EXPECT_GT(store.StoredBytes(), 0u);
  EXPECT_GT(store.DecodeStepSeconds(2), store.DecodeStepSeconds(1));
}

TEST(LmCacheTest, HostMemorySymmetricAcrossStoreRemoveCycles) {
  SimEnvironment env;
  const uint64_t baseline = env.host_memory().current();
  {
    LmCacheStore store(LmCacheOptions{}, &env);
    ModelConfig m = ModelConfig::Tiny();
    for (int cycle = 0; cycle < 3; ++cycle) {
      ASSERT_TRUE(store.StoreContextBytes(1, 1000, m.KvBytesPerToken()).ok());
      EXPECT_GT(env.host_memory().current(), baseline);
      EXPECT_TRUE(store.RemoveContext(1));
      EXPECT_EQ(env.host_memory().current(), baseline) << "cycle " << cycle;
    }
    EXPECT_FALSE(store.RemoveContext(1));  // Already gone.

    // Re-storing an id swaps the accounting instead of leaking the old entry.
    ASSERT_TRUE(store.StoreContextBytes(2, 1000, m.KvBytesPerToken()).ok());
    ASSERT_TRUE(store.StoreContextBytes(2, 500, m.KvBytesPerToken()).ok());
    EXPECT_EQ(env.host_memory().current() - baseline, store.StoredBytes());
    // Entries alive at destruction are returned by the destructor.
  }
  EXPECT_EQ(env.host_memory().current(), baseline);
}

}  // namespace
}  // namespace alaya
