#include "src/core/alaya_db.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace alaya {
namespace {

struct DbFixture {
  ModelConfig model = ModelConfig::Tiny();
  SimEnvironment env;
  DbOptions options;

  DbFixture() {
    options.model = model;
    options.build_fine_indices = true;
  }

  std::unique_ptr<KvCache> MakeKv(size_t tokens, uint64_t seed) {
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(seed);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < tokens; ++t) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    return kv;
  }

  std::vector<int32_t> TokenRange(int32_t start, size_t count) {
    std::vector<int32_t> t(count);
    for (size_t i = 0; i < count; ++i) t[i] = start + static_cast<int32_t>(i);
    return t;
  }
};

TEST(AlayaDbTest, ImportThenFullReuse) {
  DbFixture fx;
  AlayaDB db(fx.options, &fx.env);
  auto tokens = fx.TokenRange(100, 200);
  auto imported = db.Import(tokens, fx.MakeKv(200, 1));
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(db.contexts().size(), 1u);

  // A prompt extending the stored context reuses all 200 tokens.
  auto prompt = fx.TokenRange(100, 210);
  auto created = db.CreateSession(prompt);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().reused_prefix, 200u);
  EXPECT_EQ(created.value().truncated_prompt.size(), 10u);
  EXPECT_EQ(created.value().context_id, imported.value());
  EXPECT_FALSE(created.value().session->partial_reuse());
}

TEST(AlayaDbTest, PartialPrefixReuse) {
  DbFixture fx;
  AlayaDB db(fx.options, &fx.env);
  auto tokens = fx.TokenRange(100, 200);
  ASSERT_TRUE(db.Import(tokens, fx.MakeKv(200, 2)).ok());

  // Prompt shares only the first 120 tokens (e.g., same book, new question).
  auto prompt = fx.TokenRange(100, 120);
  prompt.push_back(-7);
  auto created = db.CreateSession(prompt);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().reused_prefix, 120u);
  EXPECT_EQ(created.value().truncated_prompt.size(), 1u);
  EXPECT_TRUE(created.value().session->partial_reuse());
}

TEST(AlayaDbTest, NegativeDiprBetaIsRejected) {
  // Every layer must agree on an invalid beta: the flat scan (layer 0) would
  // reject it and graph DIPRS (deeper layers) would silently retrieve nothing.
  DbFixture fx;
  fx.options.session.optimizer.dipr.beta = -1.f;
  AlayaDB db(fx.options, &fx.env);
  auto imported = db.Import(fx.TokenRange(100, 200), fx.MakeKv(200, 4));
  ASSERT_TRUE(imported.ok());
  auto created = db.CreateSession(fx.TokenRange(100, 210));
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  auto resumed = db.ResumeSession(imported.value(), 200);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST(AlayaDbTest, CrossDeviceResumeChargesSameTransferAsCreate) {
  DbFixture fx;
  fx.env.devices().EnsureAtLeast(2);
  AlayaDB db(fx.options, &fx.env);
  auto imported = db.Import(fx.TokenRange(100, 200), fx.MakeKv(200, 5));
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  const uint64_t id = imported.value();
  ASSERT_EQ(db.contexts().FindShared(id)->resident_device(), 0);

  // CreateSession on device 1 pulls the window of a context warm on device 0:
  // device 1's clock pays the transfer and the context re-homes there.
  const double create_before = fx.env.device(1).clock().Seconds();
  auto created = db.CreateSession(fx.TokenRange(100, 210), /*device=*/1);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created.value().reused_prefix, 200u);
  const uint64_t bytes = created.value().cross_device_transfer_bytes;
  EXPECT_GT(bytes, 0u);
  const double create_charge = fx.env.device(1).clock().Seconds() - create_before;
  EXPECT_GT(create_charge, 0.0);
  EXPECT_EQ(db.contexts().FindShared(id)->resident_device(), 1);

  // Resuming over the same prefix on device 0 moves the same window back:
  // same bytes, same charge on device 0's clock, and the context re-homes.
  const double resume_before = fx.env.device(0).clock().Seconds();
  auto resumed = db.ResumeSession(id, 200, /*device=*/0);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().cross_device_transfer_bytes, bytes);
  EXPECT_DOUBLE_EQ(fx.env.device(0).clock().Seconds() - resume_before, create_charge);
  EXPECT_EQ(db.contexts().FindShared(id)->resident_device(), 0);

  // A same-device resume moves nothing.
  auto again = db.ResumeSession(id, 200, /*device=*/0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().cross_device_transfer_bytes, 0u);
}

TEST(AlayaDbTest, NoMatchCreatesFreshSession) {
  DbFixture fx;
  AlayaDB db(fx.options, &fx.env);
  auto created = db.CreateSession(fx.TokenRange(5000, 10));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().reused_prefix, 0u);
  EXPECT_EQ(created.value().truncated_prompt.size(), 10u);
  EXPECT_EQ(created.value().context_id, 0u);
}

TEST(AlayaDbTest, ImportValidatesInputs) {
  DbFixture fx;
  AlayaDB db(fx.options, &fx.env);
  EXPECT_FALSE(db.Import({1, 2, 3}, nullptr).ok());
  // Token/KV length mismatch.
  EXPECT_FALSE(db.Import({1, 2, 3}, fx.MakeKv(5, 3)).ok());
}

TEST(AlayaDbTest, ImportAccountsHostMemory) {
  DbFixture fx;
  fx.options.build_fine_indices = false;  // Isolate the KV accounting.
  AlayaDB db(fx.options, &fx.env);
  const uint64_t before = fx.env.host_memory().current();
  ASSERT_TRUE(db.Import(fx.TokenRange(0, 50), fx.MakeKv(50, 4)).ok());
  EXPECT_EQ(fx.env.host_memory().current() - before,
            50u * fx.model.KvBytesPerToken());
}

TEST(AlayaDbTest, StoreMaterializesSession) {
  DbFixture fx;
  AlayaDB db(fx.options, &fx.env);
  ASSERT_TRUE(db.Import(fx.TokenRange(0, 100), fx.MakeKv(100, 5)).ok());

  auto created = db.CreateSession(fx.TokenRange(0, 100));
  ASSERT_TRUE(created.ok());
  Session* session = created.value().session.get();

  // Decode 5 new tokens into the session.
  Rng rng(6);
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), k(stride), v(stride);
  std::vector<int32_t> new_tokens;
  for (int t = 0; t < 5; ++t) {
    for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
      rng.FillGaussian(q.data(), qstride);
      rng.FillGaussian(k.data(), stride);
      rng.FillGaussian(v.data(), stride);
      ASSERT_TRUE(session->Update(layer, q.data(), k.data(), v.data()).ok());
    }
    new_tokens.push_back(1000 + t);
  }

  auto stored = db.Store(session, new_tokens);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(db.contexts().size(), 2u);
  const Context* ctx = db.contexts().FindUnsafeForTest(stored.value());
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->length(), 105u);
  EXPECT_EQ(ctx->kv().NumTokens(), 105u);
  EXPECT_TRUE(ctx->HasFineIndices());
  EXPECT_EQ(ctx->tokens()[100], 1000);

  // A future session now fully reuses the extended context.
  auto again = db.CreateSession(ctx->tokens());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().reused_prefix, 105u);
  EXPECT_TRUE(again.value().truncated_prompt.empty());
}

TEST(AlayaDbTest, StoreValidatesTokenCount) {
  DbFixture fx;
  AlayaDB db(fx.options, &fx.env);
  auto created = db.CreateSession(fx.TokenRange(0, 5));
  ASSERT_TRUE(created.ok());
  std::vector<int32_t> wrong = {1, 2, 3};
  EXPECT_FALSE(db.Store(created.value().session.get(), wrong).ok());
  EXPECT_FALSE(db.Store(nullptr, {}).ok());
}

TEST(AlayaDbTest, HostMemorySymmetricAcrossStoreRemoveCycles) {
  DbFixture fx;
  fx.options.build_fine_indices = false;  // Isolate the KV accounting.
  AlayaDB db(fx.options, &fx.env);
  const uint64_t baseline = fx.env.host_memory().current();

  // Import/remove cycles must return the tracker to baseline every time —
  // the accounting used to grow monotonically (Allocate without Free).
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto id = db.Import(fx.TokenRange(cycle * 1000, 50), fx.MakeKv(50, 20 + cycle));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(fx.env.host_memory().current() - baseline,
              50u * fx.model.KvBytesPerToken());
    ASSERT_TRUE(db.contexts().Remove(id.value()));
    EXPECT_EQ(fx.env.host_memory().current(), baseline) << "cycle " << cycle;
  }
}

TEST(AlayaDbTest, HostMemoryFreedOnlyWhenLastPinDrops) {
  DbFixture fx;
  fx.options.build_fine_indices = false;
  AlayaDB db(fx.options, &fx.env);
  const uint64_t baseline = fx.env.host_memory().current();
  auto id = db.Import(fx.TokenRange(0, 40), fx.MakeKv(40, 30));
  ASSERT_TRUE(id.ok());

  // A running session pins the context: Remove unregisters it but its host
  // bytes stay accounted until the pin drops (the storage is still alive).
  auto created = db.CreateSession(fx.TokenRange(0, 40));
  ASSERT_TRUE(created.ok());
  ASSERT_NE(created.value().context_ref, nullptr);
  ASSERT_TRUE(db.contexts().Remove(id.value()));
  EXPECT_GT(fx.env.host_memory().current(), baseline);

  created.value().session.reset();
  created.value().context_ref.reset();
  EXPECT_EQ(fx.env.host_memory().current(), baseline);
}

TEST(AlayaDbTest, CoarseIndicesBuiltWhenRequested) {
  DbFixture fx;
  fx.options.build_coarse_indices = true;
  fx.options.coarse.block_size = 16;
  AlayaDB db(fx.options, &fx.env);
  auto id = db.Import(fx.TokenRange(0, 64), fx.MakeKv(64, 7));
  ASSERT_TRUE(id.ok());
  const Context* ctx = db.contexts().FindUnsafeForTest(id.value());
  EXPECT_TRUE(ctx->HasCoarseIndices());
  EXPECT_GT(fx.env.gpu_memory().current(), 0u);  // Coarse blocks are GPU-resident.
}

}  // namespace
}  // namespace alaya
