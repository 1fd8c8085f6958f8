// Background Store(): late materialization off the decode path.
//
// Locks in the three guarantees the materialization queue makes:
//   1. equivalence — a store_on_finish run through the engine's background
//      materialization produces outputs AND stored contexts bit-identical to
//      driving the same sessions by hand and storing them with the blocking
//      AlayaDB::Store, observable after Drain();
//   2. isolation — BestPrefixMatch racing a materialization can never observe
//      a half-built context (pending ids are invisible until Publish);
//   3. index sharing — storing over a fully reused prefix extends the base
//      context's graphs instead of rebuilding them, proven by build-stats
//      counters (reused_base_nodes / zero training queries).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

struct BackgroundStoreFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t context_tokens = 160;
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  uint64_t context_id = 0;
  /// Explicit multi-thread pool: materialization jobs must be able to overlap
  /// the step loop even on single-core CI machines.
  ThreadPool pool{4};

  ServingEngineOptions EngineOptions(size_t max_concurrent) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.pool = &pool;
    return o;
  }

  BackgroundStoreFixture() {
    options.model = model;
    options.session.optimizer.short_context_threshold = 64;
    options.session.window = WindowConfig{8, 16};
    options.materialize_pool = &pool;
    db = std::make_unique<AlayaDB>(options, &env);
    auto imported = db->Import(ContextTokens(), MakeKv(context_tokens, /*seed=*/1));
    EXPECT_TRUE(imported.ok()) << imported.status().ToString();
    context_id = imported.ValueOr(0);
  }

  std::vector<int32_t> ContextTokens() const {
    std::vector<int32_t> t(context_tokens);
    for (size_t i = 0; i < context_tokens; ++i) t[i] = 100 + static_cast<int32_t>(i);
    return t;
  }

  std::unique_ptr<KvCache> MakeKv(size_t tokens, uint64_t seed) const {
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

  ServingRequest MakeRequest(uint64_t seed, size_t steps) const {
    ServingRequest r;
    r.prompt = ContextTokens();
    r.max_new_tokens = steps;
    r.record_outputs = true;
    r.store_on_finish = true;
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
};

/// Asserts two contexts are bit-identical: tokens, per-(layer, head) KV rows,
/// and per-(layer, head) fine-index adjacency.
void ExpectContextsIdentical(const ModelConfig& model, const Context& a,
                             const Context& b) {
  ASSERT_EQ(a.length(), b.length());
  EXPECT_EQ(a.tokens(), b.tokens());
  ASSERT_EQ(a.kv().NumTokens(), b.kv().NumTokens());
  for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
    for (uint32_t h = 0; h < model.num_kv_heads; ++h) {
      VectorSetView ka = a.kv().Keys(layer, h), kb = b.kv().Keys(layer, h);
      VectorSetView va = a.kv().Values(layer, h), vb = b.kv().Values(layer, h);
      ASSERT_EQ(ka.n, kb.n);
      EXPECT_EQ(std::memcmp(ka.data, kb.data, ka.n * ka.d * sizeof(float)), 0)
          << "keys layer " << layer << " head " << h;
      EXPECT_EQ(std::memcmp(va.data, vb.data, va.n * va.d * sizeof(float)), 0)
          << "values layer " << layer << " head " << h;
    }
    for (uint32_t qh = 0; qh < model.num_q_heads; ++qh) {
      const RoarGraph* ga = a.FineIndex(layer, qh);
      const RoarGraph* gb = b.FineIndex(layer, qh);
      ASSERT_EQ(ga != nullptr, gb != nullptr);
      if (ga == nullptr) continue;
      ASSERT_EQ(ga->graph().size(), gb->graph().size());
      EXPECT_EQ(ga->EntryPoint(), gb->EntryPoint());
      for (uint32_t u = 0; u < ga->graph().size(); ++u) {
        auto na = ga->graph().Neighbors(u);
        auto nb = gb->graph().Neighbors(u);
        ASSERT_EQ(na.size(), nb.size()) << "node " << u;
        for (size_t i = 0; i < na.size(); ++i) {
          ASSERT_EQ(na[i], nb[i]) << "node " << u << " edge " << i;
        }
      }
    }
  }
}

TEST(BackgroundStoreTest, BackgroundMatchesSynchronousStoreBitIdentical) {
  constexpr int kRequests = 3;
  constexpr size_t kSteps = 4;

  BackgroundStoreFixture bg_fx, sync_fx;
  ServingEngine background(bg_fx.db.get(), bg_fx.EngineOptions(kRequests));
  std::vector<RequestHandle> handles;
  for (int i = 0; i < kRequests; ++i) {
    auto h = background.Submit(bg_fx.MakeRequest(11 + i, kSteps));
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  ASSERT_TRUE(background.RunToCompletion().ok());

  // RunToCompletion drained: every materialization published.
  ASSERT_TRUE(bg_fx.db->WaitForMaterialization().ok());
  EXPECT_EQ(bg_fx.db->contexts().pending(), 0u);
  EXPECT_EQ(bg_fx.db->contexts().size(), 1u + kRequests);
  const ServingSnapshot bg_snap = background.snapshot();
  EXPECT_EQ(bg_snap.materializations_completed, static_cast<size_t>(kRequests));
  EXPECT_EQ(bg_snap.materializations_pending, 0u);
  EXPECT_EQ(bg_snap.materializations_failed, 0u);

  // Reference: the same requests driven by hand — all sessions created up
  // front (the engine admits all three together), every step's layers fed by
  // the same fill callback through Update + Attention, then each session
  // stored with the blocking AlayaDB::Store in retirement order, its decoded
  // tail carrying the synthetic ids the engine assigns.
  const ModelConfig& m = sync_fx.model;
  const size_t qdim = static_cast<size_t>(m.num_q_heads) * m.head_dim;
  const size_t kvdim = static_cast<size_t>(m.num_kv_heads) * m.head_dim;
  std::vector<AlayaDB::SessionCreation> sessions;
  std::vector<std::vector<float>> sync_outputs(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    auto created = sync_fx.db->CreateSession(sync_fx.ContextTokens());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(created.value().truncated_prompt.empty());  // Full reuse.
    sessions.push_back(std::move(created.value()));
  }
  std::vector<float> q(qdim), k(kvdim), v(kvdim), out(qdim);
  for (int i = 0; i < kRequests; ++i) {
    const ServingRequest req = sync_fx.MakeRequest(11 + i, kSteps);
    Session* session = sessions[i].session.get();
    for (size_t step = 0; step < kSteps; ++step) {
      for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
        req.fill_step(step, layer, q.data(), k.data(), v.data());
        ASSERT_TRUE(session->Update(layer, q.data(), k.data(), v.data()).ok());
        ASSERT_TRUE(session->Attention(layer, q.data(), out.data()).ok());
      }
      // record_outputs keeps the final layer's output of every step.
      sync_outputs[i].insert(sync_outputs[i].end(), out.begin(), out.end());
    }
  }

  for (int i = 0; i < kRequests; ++i) {
    const RequestResult* b = handles[i].Wait();
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->status.ok()) << b->status.ToString();
    EXPECT_EQ(b->outputs, sync_outputs[i]) << "request " << i;

    std::vector<int32_t> decoded_ids;
    for (size_t step = 0; step < kSteps; ++step) {
      decoded_ids.push_back(SyntheticStoredTokenId(b->id, step));
    }
    auto stored = sync_fx.db->Store(sessions[i].session.get(), decoded_ids);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ASSERT_NE(b->stored_context_id, 0u);
    ASSERT_EQ(b->stored_context_id, stored.value());
    const Context* bc = bg_fx.db->contexts().FindUnsafeForTest(b->stored_context_id);
    const Context* sc = sync_fx.db->contexts().FindUnsafeForTest(stored.value());
    ASSERT_NE(bc, nullptr);
    ASSERT_NE(sc, nullptr);
    ExpectContextsIdentical(bg_fx.model, *bc, *sc);
  }
  EXPECT_EQ(sync_fx.db->contexts().size(), 1u + kRequests);
}

TEST(BackgroundStoreTest, ExtendFromBaseSkipsPrefixRebuild) {
  constexpr size_t kSteps = 5;
  BackgroundStoreFixture fx;
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  auto id = engine.Submit(fx.MakeRequest(21, kSteps));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());

  const RequestResult* r = engine.result(id.value().id());
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  ASSERT_NE(r->stored_context_id, 0u);

  const Context* base = fx.db->contexts().FindUnsafeForTest(fx.context_id);
  const Context* stored = fx.db->contexts().FindUnsafeForTest(r->stored_context_id);
  ASSERT_NE(base, nullptr);
  ASSERT_NE(stored, nullptr);
  ASSERT_TRUE(stored->HasFineIndices());
  EXPECT_EQ(stored->length(), fx.context_tokens + kSteps);

  // The base was built from scratch (trained queries, nothing reused)...
  const size_t num_indices =
      static_cast<size_t>(fx.model.num_layers) * fx.model.num_kv_heads;
  EXPECT_EQ(base->build_stats().extended_indices, 0u);
  EXPECT_GT(base->build_stats().training_queries, 0u);

  // ...while the stored context provably adopted the base's graphs for the
  // whole shared prefix and inserted only the decoded suffix: no kNN stage,
  // no training queries, every index extended.
  const IndexBuildStats& stats = stored->build_stats();
  EXPECT_EQ(stats.extended_indices, num_indices);
  EXPECT_EQ(stats.reused_base_nodes, fx.context_tokens * num_indices);
  EXPECT_EQ(stats.inserted_suffix_nodes, kSteps * num_indices);
  EXPECT_EQ(stats.training_queries, 0u);
  EXPECT_EQ(stats.knn_wall_seconds, 0.0);

  // The extended context is fully serviceable: a prompt over it reuses it and
  // its indices cover every token.
  auto again = fx.db->CreateSession(stored->tokens());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().reused_prefix, fx.context_tokens + kSteps);
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    for (uint32_t qh = 0; qh < fx.model.num_q_heads; ++qh) {
      const RoarGraph* g = stored->FineIndex(layer, qh);
      ASSERT_NE(g, nullptr);
      EXPECT_EQ(g->size(), fx.context_tokens + kSteps);
      EXPECT_TRUE(g->built());
    }
  }
}

TEST(BackgroundStoreTest, StoreAsyncDetachesAndPublishesThroughDrain) {
  BackgroundStoreFixture fx;
  auto created = fx.db->CreateSession(fx.ContextTokens());
  ASSERT_TRUE(created.ok());
  Session* session = created.value().session.get();

  Rng rng(7);
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  std::vector<float> q(qstride), k(stride), v(stride);
  std::vector<int32_t> new_tokens;
  for (int t = 0; t < 3; ++t) {
    for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
      rng.FillGaussian(q.data(), qstride);
      rng.FillGaussian(k.data(), stride);
      rng.FillGaussian(v.data(), stride);
      ASSERT_TRUE(session->Update(layer, q.data(), k.data(), v.data()).ok());
    }
    new_tokens.push_back(9000 + t);
  }

  auto id = fx.db->StoreAsync(session, new_tokens, created.value().context_ref);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // The handoff severed the session: it is dead, its device bytes released.
  EXPECT_TRUE(session->detached());
  EXPECT_EQ(session->LocalTokens(), 0u);
  EXPECT_EQ(session->Update(0, q.data(), k.data(), v.data()).code(),
            StatusCode::kFailedPrecondition);
  // Storing a detached session again is refused, sync and async alike.
  EXPECT_EQ(fx.db->StoreAsync(session, {}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fx.db->Store(session, {}).status().code(),
            StatusCode::kFailedPrecondition);

  // The drain barrier observes publication; the context is whole.
  ASSERT_TRUE(fx.db->WaitForMaterialization().ok());
  const AlayaDB::MaterializationStats stats = fx.db->materialization_stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  const Context* stored = fx.db->contexts().FindUnsafeForTest(id.value());
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->length(), fx.context_tokens + 3);
  EXPECT_EQ(stored->kv().NumTokens(), fx.context_tokens + 3);
  EXPECT_TRUE(stored->HasFineIndices());
  EXPECT_EQ(stored->tokens().back(), 9002);
}

TEST(BackgroundStoreTest, StoreAsyncValidatesBeforeDetaching) {
  BackgroundStoreFixture fx;
  auto created = fx.db->CreateSession(fx.ContextTokens());
  ASSERT_TRUE(created.ok());
  Session* session = created.value().session.get();

  EXPECT_TRUE(fx.db->StoreAsync(nullptr, {}).status().IsInvalidArgument());
  // Token-count mismatch is caught synchronously, before the handoff: the
  // session survives a rejected StoreAsync.
  EXPECT_TRUE(fx.db->StoreAsync(session, {1, 2, 3}).status().IsInvalidArgument());
  EXPECT_FALSE(session->detached());
}

TEST(BackgroundStoreTest, FailedMaterializationIsAttributable) {
  // Inject a deterministic materialization failure: a session whose KV
  // geometry does not match the DB's model. Validation passes (token counts
  // agree) but the background KV clone fails — the loss must be countable
  // AND attributable to the reserved id, never silent.
  BackgroundStoreFixture fx;
  ModelConfig other = fx.model;
  other.head_dim *= 2;
  DbOptions other_options = fx.options;
  other_options.model = other;
  AlayaDB other_db(other_options, &fx.env);
  auto created = other_db.CreateSession({1, 2, 3});
  ASSERT_TRUE(created.ok());
  Session* session = created.value().session.get();

  const size_t qstride = other.num_q_heads * other.head_dim;
  const size_t stride = other.num_kv_heads * other.head_dim;
  std::vector<float> q(qstride, 0.f), k(stride, 0.f), v(stride, 0.f);
  for (uint32_t layer = 0; layer < other.num_layers; ++layer) {
    ASSERT_TRUE(session->Update(layer, q.data(), k.data(), v.data()).ok());
  }

  auto id = fx.db->StoreAsync(session, {4242});
  ASSERT_TRUE(id.ok());  // Scheduling succeeds; the job itself fails.
  EXPECT_FALSE(fx.db->WaitForMaterialization().ok());

  const AlayaDB::MaterializationStats stats = fx.db->materialization_stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_FALSE(stats.first_error.ok());
  // The reserved id never published, was aborted, and maps to its error.
  EXPECT_EQ(fx.db->contexts().FindUnsafeForTest(id.value()), nullptr);
  EXPECT_EQ(fx.db->contexts().pending(), 0u);
  auto errors = fx.db->materialization_errors();
  ASSERT_EQ(errors.count(id.value()), 1u);
  EXPECT_TRUE(errors[id.value()].IsInvalidArgument());
}

TEST(BackgroundStoreTest, InlineFallbackIsCountedAndPublished) {
  // When the session's reused context was already removed from the store and
  // the caller passes no pin, StoreAsync cannot guarantee the base outlives a
  // background job and materializes inline — still publishing through the
  // pending id and still counted in the completed total.
  BackgroundStoreFixture fx;
  auto created = fx.db->CreateSession(fx.ContextTokens());
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created.value().reused_prefix, fx.context_tokens);
  Session* session = created.value().session.get();
  // Remove the base; created.context_ref (held here) keeps it alive.
  ASSERT_TRUE(fx.db->contexts().Remove(fx.context_id));

  auto id = fx.db->StoreAsync(session, {});  // No decode; no pin passed.
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Inline path: published before StoreAsync even returned.
  ASSERT_NE(fx.db->contexts().FindUnsafeForTest(id.value()), nullptr);
  EXPECT_EQ(fx.db->contexts().FindUnsafeForTest(id.value())->length(), fx.context_tokens);
  const AlayaDB::MaterializationStats stats = fx.db->materialization_stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(BackgroundStoreTest, SyntheticTokenIdsDoNotCollide) {
  // The old salt `(id % 20'000) * 100'000 + step` collided for request ids
  // 20'000 apart and overflowed int32 for large ids. The hash must not.
  EXPECT_NE(SyntheticStoredTokenId(1, 5), SyntheticStoredTokenId(20'001, 5));
  EXPECT_NE(SyntheticStoredTokenId(7, 0), SyntheticStoredTokenId(40'007, 0));
  // Large ids stay positive and in the reserved [2^30, 2^31) band.
  const int32_t big = SyntheticStoredTokenId(10'000'000'000ull, 3);
  EXPECT_GE(big, 1 << 30);
  // Deterministic, and distinct across steps of one request.
  EXPECT_EQ(SyntheticStoredTokenId(42, 9), SyntheticStoredTokenId(42, 9));
  std::set<int32_t> seen;
  for (uint64_t id : {1ull, 2ull, 20'001ull, 20'002ull, 1ull << 40}) {
    for (size_t step = 0; step < 16; ++step) {
      const int32_t tok = SyntheticStoredTokenId(id, step);
      EXPECT_GE(tok, 1 << 30);
      seen.insert(tok);
    }
  }
  EXPECT_EQ(seen.size(), 5u * 16u);  // No collisions across the sample.
}

// Stress: BestPrefixMatch racing materializations must never see a context
// that is not fully built (runs under TSan in CI).
TEST(BackgroundStoreTest, PrefixMatchNeverObservesHalfBuiltContext) {
  constexpr int kRequests = 6;
  constexpr size_t kSteps = 3;
  BackgroundStoreFixture fx;
  ServingEngine engine(fx.db.get(), fx.EngineOptions(3));
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(engine.Submit(fx.MakeRequest(31 + i, kSteps)).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> probes{0};
  std::thread prober([&] {
    const std::vector<int32_t> prompt = fx.ContextTokens();
    while (!done.load()) {
      ContextStore::PrefixMatch m = fx.db->contexts().BestPrefixMatch(prompt);
      if (m.context != nullptr) {
        // Whatever matched must be whole: full KV and built indices. A
        // half-built context would trip one of these (or TSan).
        EXPECT_EQ(m.context->kv().NumTokens(), m.context->length());
        EXPECT_TRUE(m.context->HasFineIndices());
      }
      (void)engine.snapshot();  // Materialization counters race-free too.
      probes.fetch_add(1);
    }
  });

  Status run = engine.RunToCompletion();
  done.store(true);
  prober.join();
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_GT(probes.load(), 0u);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.completed, static_cast<size_t>(kRequests));
  EXPECT_EQ(snap.materializations_completed, static_cast<size_t>(kRequests));
  EXPECT_EQ(snap.materializations_failed, 0u);
  EXPECT_EQ(fx.db->contexts().size(), 1u + kRequests);
  EXPECT_EQ(fx.db->contexts().pending(), 0u);
  // Every stored context is complete and serviceable after the drain.
  for (uint64_t cid : fx.db->contexts().Ids()) {
    const Context* ctx = fx.db->contexts().FindUnsafeForTest(cid);
    ASSERT_NE(ctx, nullptr);
    EXPECT_EQ(ctx->kv().NumTokens(), ctx->length());
    EXPECT_TRUE(ctx->HasFineIndices());
  }
}

}  // namespace
}  // namespace alaya
