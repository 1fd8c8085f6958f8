// End-to-end integration: synthetic context -> DB.Import -> session reuse ->
// sparse decoding -> DB.Store -> second session over the extended context.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/alaya_db.h"
#include "src/llm/qkv_generator.h"
#include "src/llm/quality.h"

namespace alaya {
namespace {

struct E2eFixture {
  SyntheticContextOptions opts;
  SyntheticContext ctx;
  SimEnvironment env;
  DbOptions db_options;

  E2eFixture() : opts(MakeOptions()), ctx(opts) {
    Status st = ctx.Generate();
    EXPECT_TRUE(st.ok()) << st.ToString();
    db_options.model = opts.model;
    db_options.session.optimizer.short_context_threshold = 512;
    db_options.session.window = WindowConfig{32, 128};
    db_options.session.gpu_budget_bytes = 0;  // Tight budget -> DIPR plans.
  }

  static SyntheticContextOptions MakeOptions() {
    SyntheticContextOptions o;
    o.model = ModelConfig{2, 4, 2, 64, 2};
    o.spec = FindTask(InfinityBenchSuite(0.03), "En.QA");
    return o;
  }

  float DiprBeta() const {
    return static_cast<float>(SuggestedDiprBeta(opts.spec, 64));
  }
};

TEST(IntegrationTest, ImportReuseDecodeStoreRoundtrip) {
  E2eFixture fx;
  fx.db_options.session.optimizer.dipr.beta = fx.DiprBeta();
  fx.db_options.session.optimizer.dipr.l0 = 128;
  AlayaDB db(fx.db_options, &fx.env);

  // Import the long context (KV + prefill training queries).
  auto training = fx.ctx.MakeTrainingQueries(256);
  std::vector<int32_t> tokens = fx.ctx.tokens();
  auto kv_copy = std::make_unique<KvCache>(fx.opts.model);
  ASSERT_TRUE(kv_copy->AppendAllFrom(fx.ctx.kv()).ok());
  auto imported = db.Import(tokens, std::move(kv_copy), training.get());
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  // A session over the same prompt fully reuses the context.
  auto created = db.CreateSession(tokens);
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created.value().reused_prefix, tokens.size());
  Session* session = created.value().session.get();

  // Decode: session sparse attention should track the planted oracle well.
  const size_t d = fx.opts.model.head_dim;
  const size_t qstride = fx.opts.model.num_q_heads * d;
  std::vector<float> q(qstride), out(qstride), oracle(d);
  MeanAccumulator fidelity;
  AttentionCallStats stats;
  for (size_t step = 0; step < 3; ++step) {
    for (uint32_t layer = 0; layer < fx.opts.model.num_layers; ++layer) {
      fx.ctx.MakeDecodeQueryLayer(step, layer, q.data());
      ASSERT_TRUE(session->Attention(layer, q.data(), out.data(), &stats).ok());
      for (uint32_t h = 0; h < fx.opts.model.num_q_heads; ++h) {
        fx.ctx.OracleOutput(step, layer, h, oracle.data());
        fidelity.Add(CosineFidelity(out.data() + h * d, oracle.data(), d));
      }
    }
  }
  EXPECT_GT(fidelity.Mean(), 0.8) << "sparse session diverged from the oracle";
  EXPECT_GT(stats.retrieved_tokens, 0u);

  // Append a short "generation" and store; the new context is reusable.
  Rng rng(5);
  const size_t kv_stride = fx.opts.model.num_kv_heads * d;
  std::vector<float> k(kv_stride), v(kv_stride);
  std::vector<int32_t> new_tokens;
  for (int t = 0; t < 4; ++t) {
    for (uint32_t layer = 0; layer < fx.opts.model.num_layers; ++layer) {
      rng.FillGaussian(q.data(), qstride);
      rng.FillGaussian(k.data(), kv_stride);
      rng.FillGaussian(v.data(), kv_stride);
      ASSERT_TRUE(session->Update(layer, q.data(), k.data(), v.data()).ok());
    }
    new_tokens.push_back(-100 - t);
  }
  auto stored = db.Store(session, new_tokens);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();

  std::vector<int32_t> extended = tokens;
  extended.insert(extended.end(), new_tokens.begin(), new_tokens.end());
  auto again = db.CreateSession(extended);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().reused_prefix, extended.size());
}

TEST(IntegrationTest, PartialReuseSessionAnswersFromPrefixOnly) {
  E2eFixture fx;
  fx.db_options.session.optimizer.dipr.beta = fx.DiprBeta();
  AlayaDB db(fx.db_options, &fx.env);

  auto training = fx.ctx.MakeTrainingQueries(128);
  auto kv_copy = std::make_unique<KvCache>(fx.opts.model);
  ASSERT_TRUE(kv_copy->AppendAllFrom(fx.ctx.kv()).ok());
  ASSERT_TRUE(db.Import(fx.ctx.tokens(), std::move(kv_copy), training.get()).ok());

  // User B shares only 60% of the stored context.
  const size_t prefix = fx.ctx.tokens().size() * 6 / 10;
  std::vector<int32_t> prompt(fx.ctx.tokens().begin(),
                              fx.ctx.tokens().begin() + prefix);
  prompt.push_back(-1);  // New question diverges here.
  auto created = db.CreateSession(prompt);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().reused_prefix, prefix);
  Session* session = created.value().session.get();
  EXPECT_TRUE(session->partial_reuse());

  const size_t d = fx.opts.model.head_dim;
  const size_t qstride = fx.opts.model.num_q_heads * d;
  std::vector<float> q(qstride), out(qstride);
  AttentionCallStats stats;
  fx.ctx.MakeDecodeQueryLayer(0, 1, q.data());
  ASSERT_TRUE(session->Attention(1, q.data(), out.data(), &stats).ok());
  EXPECT_NE(stats.plan_explain.find("attribute_filter"), std::string::npos);
  EXPECT_GT(stats.attended_tokens, 0u);
}

TEST(IntegrationTest, SessionBeatsWindowOnlyBaseline) {
  // The AlayaDB session (DIPR retrieval) must clearly out-recover a
  // window-only configuration on a retrieval-heavy task.
  E2eFixture fx;
  fx.db_options.session.optimizer.dipr.beta = fx.DiprBeta();
  fx.db_options.session.optimizer.dipr.l0 = 128;
  AlayaDB db(fx.db_options, &fx.env);
  auto training = fx.ctx.MakeTrainingQueries(256);
  auto kv_copy = std::make_unique<KvCache>(fx.opts.model);
  ASSERT_TRUE(kv_copy->AppendAllFrom(fx.ctx.kv()).ok());
  ASSERT_TRUE(db.Import(fx.ctx.tokens(), std::move(kv_copy), training.get()).ok());

  auto with_index = db.CreateSession(fx.ctx.tokens());
  ASSERT_TRUE(with_index.ok());

  // Window-only: same session machinery with retrieval effectively disabled
  // (beta so small only the max survives).
  DbOptions window_only = fx.db_options;
  window_only.session.optimizer.dipr.beta = 0.01f;
  window_only.session.optimizer.dipr.l0 = 1;
  AlayaDB db2(window_only, &fx.env);
  auto kv_copy2 = std::make_unique<KvCache>(fx.opts.model);
  ASSERT_TRUE(kv_copy2->AppendAllFrom(fx.ctx.kv()).ok());
  ASSERT_TRUE(db2.Import(fx.ctx.tokens(), std::move(kv_copy2), training.get()).ok());
  auto windowed = db2.CreateSession(fx.ctx.tokens());
  ASSERT_TRUE(windowed.ok());

  const size_t d = fx.opts.model.head_dim;
  const size_t qstride = fx.opts.model.num_q_heads * d;
  std::vector<float> q(qstride), out(qstride), oracle(d);
  MeanAccumulator fid_index, fid_window;
  for (size_t step = 0; step < 2; ++step) {
    for (uint32_t layer = 0; layer < fx.opts.model.num_layers; ++layer) {
      fx.ctx.MakeDecodeQueryLayer(step, layer, q.data());
      ASSERT_TRUE(
          with_index.value().session->Attention(layer, q.data(), out.data()).ok());
      for (uint32_t h = 0; h < fx.opts.model.num_q_heads; ++h) {
        fx.ctx.OracleOutput(step, layer, h, oracle.data());
        fid_index.Add(CosineFidelity(out.data() + h * d, oracle.data(), d));
      }
      ASSERT_TRUE(
          windowed.value().session->Attention(layer, q.data(), out.data()).ok());
      for (uint32_t h = 0; h < fx.opts.model.num_q_heads; ++h) {
        fx.ctx.OracleOutput(step, layer, h, oracle.data());
        fid_window.Add(CosineFidelity(out.data() + h * d, oracle.data(), d));
      }
    }
  }
  EXPECT_GT(fid_index.Mean(), fid_window.Mean() + 0.1);
}

}  // namespace
}  // namespace alaya
