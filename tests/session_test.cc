#include "src/core/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/attention/attention_engine.h"
#include "src/common/rng.h"

namespace alaya {
namespace {

struct SessionFixture {
  ModelConfig model = ModelConfig::Tiny();
  SimEnvironment env;
  Rng rng{1234};

  std::unique_ptr<KvCache> MakeKv(size_t tokens, uint64_t seed) {
    auto kv = std::make_unique<KvCache>(model);
    Rng r(seed);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < tokens; ++t) {
        r.FillGaussian(k.data(), stride);
        r.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    return kv;
  }

  /// Reference output: exact attention over context prefix + session local.
  void Reference(const Context* ctx, size_t prefix, const KvCache& local,
                 uint32_t layer, const float* q, float* out) {
    const size_t d = model.head_dim;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    for (uint32_t h = 0; h < model.num_q_heads; ++h) {
      const uint32_t kvh = model.KvHeadForQuery(h);
      PartialAttention state(d);
      if (ctx != nullptr && prefix > 0) {
        KvPartition part{ctx->kv().Keys(layer, kvh), ctx->kv().Values(layer, kvh),
                         {}, 0, static_cast<uint32_t>(prefix)};
        AccumulatePartition(q + h * d, part, scale, &state);
      }
      if (local.NumTokens(layer) > 0) {
        KvPartition part{local.Keys(layer, kvh), local.Values(layer, kvh),
                         {}, 0, static_cast<uint32_t>(local.NumTokens(layer))};
        AccumulatePartition(q + h * d, part, scale, &state);
      }
      state.Finalize(out + h * d);
    }
  }
};

TEST(SessionTest, UpdateGrowsLocalCache) {
  SessionFixture fx;
  Session session(fx.model, SessionOptions{}, nullptr, 0, &fx.env);
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), k(stride), v(stride);
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    fx.rng.FillGaussian(k.data(), stride);
    fx.rng.FillGaussian(v.data(), stride);
    fx.rng.FillGaussian(q.data(), qstride);
    ASSERT_TRUE(session.Update(layer, q.data(), k.data(), v.data()).ok());
  }
  EXPECT_EQ(session.LocalTokens(0), 1u);
  EXPECT_EQ(session.TotalTokens(0), 1u);
  EXPECT_NE(session.recorded_queries(), nullptr);
  EXPECT_EQ(session.recorded_queries()->NumSamples(0), 1u);
  EXPECT_GT(session.GpuResidentBytes(), 0u);
}

TEST(SessionTest, ShortContextAttentionMatchesReference) {
  // The optimizer picks full attention for short contexts; the session output
  // must equal exact attention over the whole sequence.
  SessionFixture fx;
  SessionOptions opts;
  Session session(fx.model, opts, nullptr, 0, &fx.env);
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), k(stride), v(stride);
  for (int t = 0; t < 30; ++t) {
    for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
      fx.rng.FillGaussian(k.data(), stride);
      fx.rng.FillGaussian(v.data(), stride);
      fx.rng.FillGaussian(q.data(), qstride);
      ASSERT_TRUE(session.Update(layer, q.data(), k.data(), v.data()).ok());
    }
  }
  std::vector<float> out(qstride), ref(qstride);
  fx.rng.FillGaussian(q.data(), qstride);
  AttentionCallStats stats;
  ASSERT_TRUE(session.Attention(1, q.data(), out.data(), &stats).ok());
  fx.Reference(nullptr, 0, session.local_kv(), 1, q.data(), ref.data());
  for (size_t i = 0; i < qstride; ++i) EXPECT_NEAR(out[i], ref[i], 1e-4);
  EXPECT_EQ(stats.plan_explain, "full_attention");
  EXPECT_EQ(stats.attended_tokens, 30u * fx.model.num_q_heads);
}

TEST(SessionTest, ReusedContextFullAttentionMatchesReference) {
  SessionFixture fx;
  Context ctx(1, std::vector<int32_t>(50, 3), fx.MakeKv(50, 77));
  SessionOptions opts;  // Short-context threshold keeps this on full attention.
  Session session(fx.model, opts, &ctx, 50, &fx.env);
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), out(qstride), ref(qstride);
  fx.rng.FillGaussian(q.data(), qstride);
  ASSERT_TRUE(session.Attention(0, q.data(), out.data()).ok());
  fx.Reference(&ctx, 50, session.local_kv(), 0, q.data(), ref.data());
  for (size_t i = 0; i < qstride; ++i) EXPECT_NEAR(out[i], ref[i], 1e-4);
}

TEST(SessionTest, SparsePathRunsWithFineIndices) {
  SessionFixture fx;
  const size_t n = 600;
  Context ctx(1, std::vector<int32_t>(n, 3), fx.MakeKv(n, 88));
  IndexBuildOptions build;
  ASSERT_TRUE(ctx.BuildFineIndices(build, nullptr, nullptr).ok());

  SessionOptions opts;
  opts.optimizer.short_context_threshold = 128;  // Force the sparse path.
  opts.window = WindowConfig{16, 32};
  Session session(fx.model, opts, &ctx, n, &fx.env);
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), out(qstride);
  fx.rng.FillGaussian(q.data(), qstride);
  AttentionCallStats stats;
  // Layer 0 -> flat DIPR; layer 1 -> fine DIPR.
  ASSERT_TRUE(session.Attention(0, q.data(), out.data(), &stats).ok());
  EXPECT_NE(stats.plan_explain.find("flat"), std::string::npos);
  EXPECT_GT(stats.retrieved_tokens, 0u);
  ASSERT_TRUE(session.Attention(1, q.data(), out.data(), &stats).ok());
  EXPECT_NE(stats.plan_explain.find("fine"), std::string::npos);
  EXPECT_GT(stats.attended_tokens, 0u);
  EXPECT_GT(stats.search_seconds + stats.attention_seconds, 0.0);
}

TEST(SessionTest, PartialReuseNeverAttendsBeyondPrefix) {
  // Poison the stored context beyond the prefix with huge value vectors; if
  // the session ever attends them the output explodes.
  SessionFixture fx;
  const size_t n = 500, prefix = 300;
  auto kv = fx.MakeKv(n, 99);
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    for (uint32_t h = 0; h < fx.model.num_kv_heads; ++h) {
      for (size_t t = prefix; t < n; ++t) {
        float* v = kv->Head(layer, h).values.MutableVec(static_cast<uint32_t>(t));
        for (uint32_t j = 0; j < fx.model.head_dim; ++j) v[j] = 1e6f;
        // Also make their keys attractive.
        float* key = kv->Head(layer, h).keys.MutableVec(static_cast<uint32_t>(t));
        for (uint32_t j = 0; j < fx.model.head_dim; ++j) key[j] *= 10.f;
      }
    }
  }
  Context ctx(1, std::vector<int32_t>(n, 3), std::move(kv));
  ASSERT_TRUE(ctx.BuildFineIndices(IndexBuildOptions{}, nullptr, nullptr).ok());

  SessionOptions opts;
  opts.optimizer.short_context_threshold = 64;
  opts.window = WindowConfig{8, 16};
  Session session(fx.model, opts, &ctx, prefix, &fx.env);
  EXPECT_TRUE(session.partial_reuse());
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), out(qstride);
  fx.rng.FillGaussian(q.data(), qstride);
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    ASSERT_TRUE(session.Attention(layer, q.data(), out.data()).ok());
    for (size_t i = 0; i < qstride; ++i) {
      EXPECT_LT(std::abs(out[i]), 1e4f) << "layer " << layer << " i " << i;
    }
  }
}

TEST(SessionTest, GpuReservationTracksWindowAndLocal) {
  SessionFixture fx;
  SessionOptions opts;
  opts.window = WindowConfig{4, 8};
  Session session(fx.model, opts, nullptr, 0, &fx.env);
  const uint64_t before = fx.env.gpu_memory().current();
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  std::vector<float> k(stride, 1.f), v(stride, 1.f);
  for (int t = 0; t < 5; ++t) {
    for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
      ASSERT_TRUE(session.Update(layer, nullptr, k.data(), v.data()).ok());
    }
  }
  EXPECT_GT(fx.env.gpu_memory().current(), before);
  EXPECT_EQ(fx.env.gpu_memory().current() - before,
            5u * fx.model.KvBytesPerToken());
}

TEST(SessionTest, ErrorsOnBadArguments) {
  SessionFixture fx;
  Session session(fx.model, SessionOptions{}, nullptr, 0, &fx.env);
  std::vector<float> buf(fx.model.num_q_heads * fx.model.head_dim);
  EXPECT_TRUE(session.Update(99, nullptr, buf.data(), buf.data()).code() ==
              StatusCode::kOutOfRange);
  EXPECT_TRUE(session.Update(0, nullptr, nullptr, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(session.Attention(99, buf.data(), buf.data()).code() ==
              StatusCode::kOutOfRange);
  EXPECT_TRUE(session.Attention(0, nullptr, buf.data()).IsInvalidArgument());
}

TEST(SessionTest, AttendHeadRejectsOutOfRangeAndNullArguments) {
  SessionFixture fx;
  Context ctx(1, std::vector<int32_t>(40, 3), fx.MakeKv(40, 55));
  Session session(fx.model, SessionOptions{}, &ctx, 40, &fx.env);
  const size_t d = fx.model.head_dim;
  std::vector<float> q(d, 1.f), out(d);
  AttentionCallStats stats;
  EXPECT_EQ(session.AttendHead(fx.model.num_layers, 0, q.data(), out.data(), &stats).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(session.AttendHead(0, fx.model.num_q_heads, q.data(), out.data(), &stats).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(session.AttendHead(0, 0, nullptr, out.data(), &stats).IsInvalidArgument());
  EXPECT_TRUE(session.AttendHead(0, 0, q.data(), nullptr, &stats).IsInvalidArgument());
  EXPECT_TRUE(session.AttendHead(0, 0, q.data(), out.data(), nullptr).IsInvalidArgument());
  EXPECT_TRUE(session.AttendHead(0, 0, q.data(), out.data(), &stats).ok());
}

TEST(SessionTest, AttendKvGroupRejectsOutOfRangeAndNullArguments) {
  SessionFixture fx;
  Context ctx(1, std::vector<int32_t>(40, 3), fx.MakeKv(40, 55));
  Session session(fx.model, SessionOptions{}, &ctx, 40, &fx.env);
  const size_t d = fx.model.head_dim;
  const size_t group = fx.model.GroupSize();
  std::vector<float> qg(group * d, 1.f), outg(group * d);
  std::vector<AttentionCallStats> sg(group);
  EXPECT_EQ(session.AttendKvGroup(fx.model.num_layers, 0, qg.data(), outg.data(), sg.data())
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(session.AttendKvGroup(0, fx.model.num_kv_heads, qg.data(), outg.data(),
                                  sg.data())
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(
      session.AttendKvGroup(0, 0, nullptr, outg.data(), sg.data()).IsInvalidArgument());
  EXPECT_TRUE(session.AttendKvGroup(0, 0, qg.data(), nullptr, sg.data()).IsInvalidArgument());
  EXPECT_TRUE(session.AttendKvGroup(0, 0, qg.data(), outg.data(), nullptr).IsInvalidArgument());
  EXPECT_TRUE(session.AttendKvGroup(0, 1, qg.data(), outg.data(), sg.data()).ok());
}

/// Runs every KV group of `layer` through AttendKvGroup and every query head
/// through AttendHead, and expects bit-identical outputs and equal counters.
void ExpectGroupEqualsHeads(Session& session, uint32_t layer, const float* q) {
  const ModelConfig& model = session.config();
  const size_t d = model.head_dim;
  const size_t group = model.GroupSize();
  for (uint32_t kv = 0; kv < model.num_kv_heads; ++kv) {
    SCOPED_TRACE(testing::Message() << "layer " << layer << " kv_head " << kv);
    const float* qg = q + kv * group * d;
    std::vector<float> out_group(group * d);
    std::vector<AttentionCallStats> group_stats(group);
    ASSERT_TRUE(
        session.AttendKvGroup(layer, kv, qg, out_group.data(), group_stats.data()).ok());
    for (uint32_t i = 0; i < group; ++i) {
      const uint32_t h = kv * static_cast<uint32_t>(group) + i;
      std::vector<float> out_head(d);
      AttentionCallStats head_stats;
      ASSERT_TRUE(session.AttendHead(layer, h, qg + i * d, out_head.data(), &head_stats).ok());
      EXPECT_EQ(std::memcmp(out_group.data() + i * d, out_head.data(), d * sizeof(float)), 0)
          << "q_head " << h;
      const AttentionCallStats& g = group_stats[i];
      EXPECT_EQ(g.search.dist_comps, head_stats.search.dist_comps) << "q_head " << h;
      EXPECT_EQ(g.search.hops, head_stats.search.hops) << "q_head " << h;
      EXPECT_EQ(g.attended_tokens, head_stats.attended_tokens) << "q_head " << h;
      EXPECT_EQ(g.retrieved_tokens, head_stats.retrieved_tokens) << "q_head " << h;
      EXPECT_EQ(g.modeled_gpu_seconds, head_stats.modeled_gpu_seconds) << "q_head " << h;
    }
  }
}

TEST(SessionTest, KvGroupAttentionEqualsPerHeadAttention) {
  // Group sizes 1 (MHA), 2 (Tiny) and 4 (Bench), under each plan the
  // optimizer picks: layer-0 flat DIPR, layer-1 fine DIPRS, both with the
  // partial-reuse prefix filter, and short-context full attention.
  const ModelConfig mha{2, 4, 4, 16, 2};
  for (const ModelConfig& model : {mha, ModelConfig::Tiny(), ModelConfig::Bench()}) {
    SessionFixture fx;
    fx.model = model;
    SCOPED_TRACE(testing::Message() << "group " << model.GroupSize());
    const size_t n = 400;
    Context ctx(1, std::vector<int32_t>(n, 3), fx.MakeKv(n, 31));
    ASSERT_TRUE(ctx.BuildFineIndices(IndexBuildOptions{}, nullptr, nullptr).ok());
    const size_t qstride = model.num_q_heads * model.head_dim;
    const size_t kvstride = model.num_kv_heads * model.head_dim;
    std::vector<float> q(qstride), k(kvstride), v(kvstride);

    SessionOptions sparse;
    sparse.optimizer.short_context_threshold = 64;
    sparse.window = WindowConfig{8, 16};
    struct Case {
      const char* name;
      SessionOptions options;
      size_t prefix;
      const char* plan0;  // Expected substring of layer 0's plan.
      const char* plan1;
    };
    const Case cases[] = {
        {"full reuse", sparse, n, "on flat index", "on fine index"},
        {"partial reuse", sparse, 250, "attribute_filter", "attribute_filter"},
        {"short context", SessionOptions{}, n, "full_attention", "full_attention"},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      Session session(model, c.options, &ctx, c.prefix, &fx.env);
      // A local tail, so both the window prior and the device-block fold see
      // local tokens.
      for (int t = 0; t < 3; ++t) {
        for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
          fx.rng.FillGaussian(q.data(), qstride);
          fx.rng.FillGaussian(k.data(), kvstride);
          fx.rng.FillGaussian(v.data(), kvstride);
          ASSERT_TRUE(session.Update(layer, q.data(), k.data(), v.data()).ok());
        }
      }
      fx.rng.FillGaussian(q.data(), qstride);
      std::vector<float> out(qstride);
      AttentionCallStats layer_stats;
      ASSERT_TRUE(session.Attention(0, q.data(), out.data(), &layer_stats).ok());
      EXPECT_NE(layer_stats.plan_explain.find(c.plan0), std::string::npos)
          << layer_stats.plan_explain;
      ExpectGroupEqualsHeads(session, 0, q.data());
      ASSERT_TRUE(session.Attention(1, q.data(), out.data(), &layer_stats).ok());
      EXPECT_NE(layer_stats.plan_explain.find(c.plan1), std::string::npos)
          << layer_stats.plan_explain;
      ExpectGroupEqualsHeads(session, 1, q.data());
    }
  }
}

TEST(SessionTest, RecordingCapsAtMaxTokens) {
  SessionFixture fx;
  SessionOptions opts;
  opts.max_recorded_tokens = 3;
  Session session(fx.model, opts, nullptr, 0, &fx.env);
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride, 1.f), k(stride, 1.f), v(stride, 1.f);
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(session.Update(0, q.data(), k.data(), v.data()).ok());
  }
  EXPECT_EQ(session.recorded_queries()->NumSamples(0), 3u);
}

}  // namespace
}  // namespace alaya
