// Tiered context store: host-budget eviction, durable spill/restore, and
// restart semantics. The load-bearing assertions are bit-identical decode —
// a context that was spilled to disk and paged back must attend exactly like
// one that never left host memory — and tracker-verified peak residency.
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/vector_codec.h"
#include "src/core/alaya_db.h"
#include "src/index/flat_index.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

struct TierFixture {
  ModelConfig model = ModelConfig::Tiny();
  SimEnvironment env;
  DbOptions options;

  TierFixture() {
    options.model = model;
    options.build_fine_indices = true;
    // Force the sparse path: 200-token contexts decode through their fine
    // indices, so a restored index participates in every output we compare.
    options.session.optimizer.short_context_threshold = 64;
    options.session.window = WindowConfig{16, 64};
    options.session.gpu_budget_bytes = 0;
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

  /// Decodes `steps` tokens with queries that depend only on (step, layer) and
  /// returns every attention output, so two runs are comparable bit-for-bit.
  std::vector<float> Decode(Session* session, size_t steps) {
    const size_t qstride = static_cast<size_t>(model.num_q_heads) * model.head_dim;
    std::vector<float> q(qstride), out(qstride), all;
    for (size_t step = 0; step < steps; ++step) {
      for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
        Rng rng(0xDEC0DE ^ (step * 2654435761ull + layer));
        rng.FillGaussian(q.data(), qstride);
        EXPECT_TRUE(session->Attention(layer, q.data(), out.data()).ok());
        all.insert(all.end(), out.begin(), out.end());
      }
    }
    return all;
  }
};

void ExpectBitIdentical(const std::vector<float>& got, const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "output diverged at float " << i;
  }
}

/// mkdtemp-backed spill directory, recursively removed on scope exit.
struct TempSpillDir {
  std::string path;
  TempSpillDir() {
    char buf[] = "/tmp/alaya_tier_XXXXXX";
    char* got = mkdtemp(buf);
    EXPECT_NE(got, nullptr);
    if (got != nullptr) path = got;
  }
  ~TempSpillDir() {
    if (path.empty()) return;
    if (DIR* d = opendir(path.c_str())) {
      while (dirent* e = readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path + "/" + name).c_str());
      }
      closedir(d);
    }
    ::rmdir(path.c_str());
  }
};

// --- Acceptance: with a host budget forcing eviction, re-hitting spilled
// --- prefixes produces bit-identical outputs to the unbounded golden, and
// --- peak host bytes stay under budget (tracker-verified).

TEST(TieredStoreTest, BudgetEvictionThenPageInIsBitIdentical) {
  constexpr size_t kTokens = 200;
  constexpr size_t kSteps = 3;

  // Golden: unbounded store, nothing ever evicted.
  TierFixture golden_fx;
  std::vector<float> golden;
  {
    AlayaDB db(golden_fx.options, &golden_fx.env);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          db.Import(golden_fx.TokenRange(i * 1000, kTokens), golden_fx.MakeKv(kTokens, 50 + i))
              .ok());
    }
    auto created = db.CreateSession(golden_fx.TokenRange(0, kTokens));
    ASSERT_TRUE(created.ok());
    ASSERT_EQ(created.value().reused_prefix, kTokens);
    golden = golden_fx.Decode(created.value().session.get(), kSteps);
  }

  // Tiered: budget fits ~1.5 contexts, so the third import forces the first
  // two out; re-hitting context 0's prefix demand-pages it back from the
  // (in-memory) spill tier.
  TierFixture fx;
  const uint64_t ctx_bytes = kTokens * fx.model.KvBytesPerToken();
  fx.options.tier.host_budget_bytes = ctx_bytes + ctx_bytes / 2;
  AlayaDB db(fx.options, &fx.env);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto imported =
        db.Import(fx.TokenRange(i * 1000, kTokens), fx.MakeKv(kTokens, 50 + i));
    ASSERT_TRUE(imported.ok());
    ids.push_back(imported.value());
  }
  ASSERT_NE(db.tiers(), nullptr);
  TieredContextStore::Stats stats = db.tiers()->stats();
  EXPECT_GE(stats.spills, 2u);
  EXPECT_EQ(db.contexts().size(), 3u);       // Spilled ids stay live...
  EXPECT_GE(db.contexts().spilled(), 2u);    // ...but cold.
  EXPECT_LE(db.contexts().TotalKvBytes(), fx.options.tier.host_budget_bytes);

  // Context 0 was evicted; a session over its tokens pages it back in and
  // decodes exactly like the never-evicted golden.
  ASSERT_TRUE(db.contexts().IsSpilled(ids[0]));
  auto created = db.CreateSession(fx.TokenRange(0, kTokens));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().reused_prefix, kTokens);
  EXPECT_EQ(created.value().context_id, ids[0]);
  ASSERT_NE(created.value().context_ref, nullptr);
  EXPECT_TRUE(created.value().context_ref->fine_indices_restored());
  ExpectBitIdentical(fx.Decode(created.value().session.get(), kSteps), golden);

  stats = db.tiers()->stats();
  EXPECT_GE(stats.page_ins, 1u);
  EXPECT_GE(stats.persisted, 2u);
  // The whole run — imports, evictions, page-in — never overshot the budget:
  // headroom is made before bytes attach, so even the PEAK stays under.
  EXPECT_LE(fx.env.host_memory().peak(), fx.options.tier.host_budget_bytes);
}

/// Layer 0's key sidecars of `got` equal those of `want`: the same codes,
/// params and bounds, and a flat DIPR scan over them returns the same hits,
/// scores and counters.
void ExpectSameKeySidecars(const Context& got, const Context& want) {
  const ModelConfig& m = want.kv().config();
  EXPECT_EQ(got.KeySidecarBytes(), want.KeySidecarBytes());
  EXPECT_EQ(got.IndexBytes(), want.IndexBytes());
  for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
    SCOPED_TRACE(testing::Message() << "kv head " << h);
    const CodedVectorSet* a = got.KeySidecar(0, h);
    const CodedVectorSet* b = want.KeySidecar(0, h);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->codec(), VectorCodec::kInt8);
    ASSERT_EQ(a->size(), b->size());
    EXPECT_EQ(std::memcmp(a->I8Row(0), b->I8Row(0), a->size() * a->dim()), 0);
    EXPECT_EQ(a->params().scale, b->params().scale);
    EXPECT_EQ(a->params().zero_point, b->params().zero_point);
    EXPECT_EQ(a->max_residual(), b->max_residual());
    EXPECT_EQ(a->max_abs(), b->max_abs());
    std::vector<float> q(m.head_dim);
    Rng rng(0x51DECA5 + h);
    rng.FillGaussian(q.data(), q.size());
    for (float beta : {0.5f, 4.f}) {
      SearchResult x, y;
      ASSERT_TRUE(FlatIndex(got.kv().Keys(0, h), a).SearchDipr(q.data(), {beta}, &x).ok());
      ASSERT_TRUE(FlatIndex(want.kv().Keys(0, h), b).SearchDipr(q.data(), {beta}, &y).ok());
      ASSERT_EQ(x.hits.size(), y.hits.size());
      for (size_t i = 0; i < x.hits.size(); ++i) {
        EXPECT_EQ(x.hits[i].id, y.hits[i].id);
        EXPECT_EQ(x.hits[i].score, y.hits[i].score);
      }
      EXPECT_EQ(x.stats.dist_comps, y.stats.dist_comps);
      EXPECT_EQ(x.stats.rescored, y.stats.rescored);
      EXPECT_GT(x.stats.rescored, 0u);
    }
  }
  EXPECT_EQ(got.KeySidecar(1, 0), nullptr);  // Only layer 0 scans flat.
}

TEST(TieredStoreTest, PageInCarriesTheSameKeySidecars) {
  // A spill writes no sidecar bytes, so the disk figure is the deployed KV
  // plus the other index bytes; the page-in re-encodes sidecars equal to the
  // resident ones, and its IndexBytes() matches.
  constexpr size_t kTokens = 200;
  for (VectorCodec kv_codec : {VectorCodec::kFp32, VectorCodec::kInt8}) {
    SCOPED_TRACE(VectorCodecName(kv_codec));
    TierFixture fx;
    fx.options.quant.kv_codec = kv_codec;
    fx.options.tier.host_budget_bytes = 64ull << 20;  // Roomy: spill by hand.
    AlayaDB db(fx.options, &fx.env);
    auto imported = db.Import(fx.TokenRange(0, kTokens), fx.MakeKv(kTokens, 65));
    ASSERT_TRUE(imported.ok());
    const uint64_t id = imported.value();
    const std::shared_ptr<Context> resident = db.contexts().FindShared(id);
    ASSERT_NE(resident, nullptr);
    ASSERT_GT(resident->KeySidecarBytes(), 0u);
    ASSERT_TRUE(db.tiers()->SpillContext(id).ok());
    EXPECT_EQ(fx.env.disk_usage().current(),
              resident->kv().DeployedBytes() + resident->IndexBytes() -
                  resident->KeySidecarBytes());
    auto paged = db.tiers()->PageIn(id);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_NE(paged.value(), resident);
    EXPECT_TRUE(paged.value()->fine_indices_restored());
    ExpectSameKeySidecars(*paged.value(), *resident);
    EXPECT_EQ(db.contexts().TotalIndexBytes(), resident->IndexBytes());
  }
}

TEST(TieredStoreTest, SpillReservesNoCodedStoreBytes) {
  // A spill writes each fine index's adjacency but not the coded store an
  // int8 index_codec keeps (AdoptGraph re-encodes it on restore). The disk
  // reservation, and the manifest's index_bytes that warm start reserves
  // from, leave every coded store out.
  constexpr size_t kTokens = 200;
  TempSpillDir dir;
  ASSERT_FALSE(dir.path.empty());
  auto configure = [&](TierFixture* fx) {
    fx->options.quant.index_codec = VectorCodec::kInt8;
    fx->options.tier.spill_dir = dir.path;
    fx->options.tier.durable = true;  // Persist on publish.
  };

  TierFixture fx;
  configure(&fx);
  uint64_t want = 0;
  {
    AlayaDB db(fx.options, &fx.env);
    auto imported = db.Import(fx.TokenRange(0, kTokens), fx.MakeKv(kTokens, 71));
    ASSERT_TRUE(imported.ok());
    ASSERT_GE(db.tiers()->stats().persisted, 1u);
    const std::shared_ptr<Context> ctx = db.contexts().FindShared(imported.value());
    ASSERT_NE(ctx, nullptr);
    uint64_t graphs = 0, coded = 0;
    for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
      for (uint32_t h = 0; h < fx.model.num_kv_heads; ++h) {
        const RoarGraph* fine = ctx->FineIndex(layer, h * fx.model.GroupSize());
        ASSERT_NE(fine, nullptr);
        ASSERT_EQ(fine->codec(), VectorCodec::kInt8);
        graphs += fine->graph().MemoryBytes();
        coded += fine->MemoryBytes() - fine->graph().MemoryBytes();
      }
    }
    ASSERT_GT(coded, 0u);
    EXPECT_EQ(ctx->SpilledIndexBytes(), graphs);
    EXPECT_EQ(ctx->IndexBytes(), ctx->KeySidecarBytes() + graphs + coded);
    want = ctx->kv().DeployedBytes() + graphs;
    EXPECT_EQ(fx.env.disk_usage().current(), want);
  }

  TierFixture restarted;
  configure(&restarted);
  restarted.options.tier.warm_start = true;
  AlayaDB db(restarted.options, &restarted.env);
  ASSERT_EQ(db.tiers()->stats().warm_started, 1u);
  EXPECT_EQ(restarted.env.disk_usage().current(), want);
}

// --- Acceptance: a session pinning a context survives its eviction (the pin
// --- keeps the payload alive; the store only drops its own reference), and
// --- the later page-in decodes bit-identically.

TEST(TieredStoreTest, PinnedSessionSurvivesEviction) {
  constexpr size_t kTokens = 200;
  constexpr size_t kSteps = 3;
  TierFixture fx;
  fx.options.tier.host_budget_bytes = 64ull << 20;  // Roomy: no forced eviction.
  AlayaDB db(fx.options, &fx.env);
  auto imported = db.Import(fx.TokenRange(0, kTokens), fx.MakeKv(kTokens, 60));
  ASSERT_TRUE(imported.ok());
  const uint64_t id = imported.value();

  // Golden decode from a throwaway session while the context is resident.
  std::vector<float> golden;
  {
    auto s = db.CreateSession(fx.TokenRange(0, kTokens));
    ASSERT_TRUE(s.ok());
    golden = fx.Decode(s.value().session.get(), kSteps);
  }

  // A live session pins the context, then the tier evicts it out from under
  // the session (cost-aware eviction never picks pinned victims, but direct
  // SpillContext is the adversarial case the pin must survive).
  auto pinned = db.CreateSession(fx.TokenRange(0, kTokens));
  ASSERT_TRUE(pinned.ok());
  ASSERT_NE(pinned.value().context_ref, nullptr);
  ASSERT_TRUE(db.tiers()->SpillContext(id).ok());
  EXPECT_TRUE(db.contexts().IsSpilled(id));
  EXPECT_EQ(db.contexts().FindShared(id), nullptr);

  // The pinned session still decodes over the detached payload, unperturbed.
  ExpectBitIdentical(fx.Decode(pinned.value().session.get(), kSteps), golden);

  // And a fresh session pages the spilled copy back in, also bit-identical.
  auto again = db.CreateSession(fx.TokenRange(0, kTokens));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().reused_prefix, kTokens);
  ExpectBitIdentical(fx.Decode(again.value().session.get(), kSteps), golden);

  const TieredContextStore::Stats stats = db.tiers()->stats();
  EXPECT_EQ(stats.spills, 1u);
  EXPECT_EQ(stats.page_ins, 1u);
}

// --- Acceptance: an engine restart (new AlayaDB over the same spill dir)
// --- serves a stored prefix from disk without rebuilding its indices.

TEST(TieredStoreTest, KillRestartWarmStartServesFromDisk) {
  constexpr size_t kTokens = 200;
  constexpr size_t kSteps = 3;
  TempSpillDir dir;
  ASSERT_FALSE(dir.path.empty());

  TierFixture fx;
  fx.options.tier.spill_dir = dir.path;
  fx.options.tier.durable = true;  // Persist every published context.

  uint64_t id = 0;
  std::vector<float> golden;
  IndexBuildStats built_stats;
  {
    AlayaDB db(fx.options, &fx.env);
    auto imported = db.Import(fx.TokenRange(0, kTokens), fx.MakeKv(kTokens, 70));
    ASSERT_TRUE(imported.ok());
    id = imported.value();
    EXPECT_GE(db.tiers()->stats().persisted, 1u);
    built_stats = db.contexts().FindShared(id)->build_stats();
    EXPECT_GT(built_stats.num_indices, 0u);
    auto s = db.CreateSession(fx.TokenRange(0, kTokens));
    ASSERT_TRUE(s.ok());
    golden = fx.Decode(s.value().session.get(), kSteps);
  }  // "Kill": the first engine is gone; only the spill dir survives.

  TierFixture restarted;
  restarted.options.tier.spill_dir = dir.path;
  restarted.options.tier.durable = true;
  restarted.options.tier.warm_start = true;
  AlayaDB db(restarted.options, &restarted.env);
  ASSERT_TRUE(db.tiers()->warm_start_status().ok())
      << db.tiers()->warm_start_status().ToString();
  EXPECT_EQ(db.tiers()->stats().warm_started, 1u);
  ASSERT_EQ(db.contexts().size(), 1u);
  EXPECT_TRUE(db.contexts().IsSpilled(id));  // Id preserved across restart.
  EXPECT_EQ(restarted.env.host_memory().current(), 0u);  // Nothing resident yet.

  // First hit demand-pages the manifest's payload; the context arrives with
  // its indices RESTORED from the persisted adjacency, not rebuilt — and with
  // the build provenance it paid for at first construction.
  auto created = db.CreateSession(restarted.TokenRange(0, kTokens));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().reused_prefix, kTokens);
  EXPECT_EQ(created.value().context_id, id);
  ASSERT_NE(created.value().context_ref, nullptr);
  EXPECT_TRUE(created.value().context_ref->HasFineIndices());
  EXPECT_TRUE(created.value().context_ref->fine_indices_restored());
  const IndexBuildStats& restored = created.value().context_ref->build_stats();
  EXPECT_EQ(restored.num_indices, built_stats.num_indices);
  EXPECT_EQ(restored.index_bytes, built_stats.index_bytes);
  EXPECT_EQ(restored.reused_base_nodes, built_stats.reused_base_nodes);
  EXPECT_EQ(restored.reported_seconds, built_stats.reported_seconds);

  ExpectBitIdentical(restarted.Decode(created.value().session.get(), kSteps), golden);
  EXPECT_EQ(db.tiers()->stats().page_ins, 1u);
}

// --- Eviction policy details: pinned contexts are never picked, and when
// --- everything is pinned the tier stalls (counted) instead of thrashing.

TEST(TieredStoreTest, EvictionSkipsPinnedAndStallsWhenAllPinned) {
  constexpr size_t kTokens = 200;
  TierFixture fx;
  const uint64_t ctx_bytes = kTokens * fx.model.KvBytesPerToken();
  fx.options.tier.host_budget_bytes = ctx_bytes + ctx_bytes / 2;
  AlayaDB db(fx.options, &fx.env);
  ASSERT_TRUE(db.Import(fx.TokenRange(0, kTokens), fx.MakeKv(kTokens, 80)).ok());

  // Pin the only resident context, then import another one: the budget wants
  // a victim but the pin disqualifies it, so the tier records a stall rather
  // than evicting storage a live session depends on.
  auto pinned = db.CreateSession(fx.TokenRange(0, kTokens));
  ASSERT_TRUE(pinned.ok());
  ASSERT_NE(pinned.value().context_ref, nullptr);
  auto second = db.Import(fx.TokenRange(5000, kTokens), fx.MakeKv(kTokens, 81));
  ASSERT_TRUE(second.ok());
  const TieredContextStore::Stats stats = db.tiers()->stats();
  EXPECT_GE(stats.eviction_stalls, 1u);
  EXPECT_FALSE(db.contexts().IsSpilled(pinned.value().context_id));
  // The unpinned newcomer is the next legal victim once publish re-checks the
  // budget, so the store converges back under it.
  EXPECT_LE(db.contexts().TotalKvBytes(), fx.options.tier.host_budget_bytes);
}

// --- Torn-write safety end to end: a manifest truncated by a crash
// --- mid-persist is detected (trailer/checksum) and SKIPPED on warm start —
// --- no crash, no half-restored context — while intact neighbors still load
// --- and decode bit-identically. Re-persists after restart stamp generations
// --- past everything that survived on disk.

TEST(TieredStoreTest, TruncatedManifestSkippedOnWarmStart) {
  constexpr size_t kTokens = 200;
  constexpr size_t kSteps = 3;
  TempSpillDir dir;
  ASSERT_FALSE(dir.path.empty());

  TierFixture fx;
  fx.options.tier.spill_dir = dir.path;
  fx.options.tier.durable = true;

  uint64_t torn_id = 0, intact_id = 0;
  std::vector<float> golden;
  {
    AlayaDB db(fx.options, &fx.env);
    auto first = db.Import(fx.TokenRange(0, kTokens), fx.MakeKv(kTokens, 90));
    auto second = db.Import(fx.TokenRange(5000, kTokens), fx.MakeKv(kTokens, 91));
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    torn_id = first.value();
    intact_id = second.value();
    EXPECT_GE(db.tiers()->stats().persisted, 2u);
    auto s = db.CreateSession(fx.TokenRange(5000, kTokens));
    ASSERT_TRUE(s.ok());
    golden = fx.Decode(s.value().session.get(), kSteps);
  }  // "Kill" the engine...

  // ...mid-persist: cut torn_id's manifest in half, the residue of a crash
  // between the payload writes and the manifest commit completing.
  const std::string torn_path = dir.path + "/" +
                                ContextSerializer::ManifestName(
                                    TieredContextStore::SpillName(torn_id)) +
                                ".vf";
  struct stat st {};
  ASSERT_EQ(::stat(torn_path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(torn_path.c_str(), st.st_size / 2), 0);

  TierFixture restarted;
  restarted.options.tier.spill_dir = dir.path;
  restarted.options.tier.durable = true;
  restarted.options.tier.warm_start = true;
  AlayaDB db(restarted.options, &restarted.env);
  // The torn manifest is an expected crash residue, not an error: status
  // stays clean, the context is skipped and counted, intact neighbors load.
  EXPECT_TRUE(db.tiers()->warm_start_status().ok())
      << db.tiers()->warm_start_status().ToString();
  const TieredContextStore::Stats stats = db.tiers()->stats();
  EXPECT_EQ(stats.warm_started, 1u);
  EXPECT_EQ(stats.warm_start_skipped, 1u);
  EXPECT_EQ(db.contexts().size(), 1u);
  EXPECT_FALSE(db.contexts().IsSpilled(torn_id));   // Never resurrected...
  EXPECT_EQ(db.contexts().FindShared(torn_id), nullptr);
  EXPECT_TRUE(db.contexts().IsSpilled(intact_id));  // ...neighbor intact.

  auto created = db.CreateSession(restarted.TokenRange(5000, kTokens));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().reused_prefix, kTokens);
  EXPECT_EQ(created.value().context_id, intact_id);
  ExpectBitIdentical(restarted.Decode(created.value().session.get(), kSteps), golden);

  // A fresh durable import must stamp a generation past the survivor's — the
  // warm start re-seeded the counter from the manifests it scanned.
  ContextSerializer ser(&db.tiers()->vfs());
  auto intact_man = ser.LoadManifest(TieredContextStore::SpillName(intact_id),
                                     restarted.model);
  ASSERT_TRUE(intact_man.ok()) << intact_man.status().ToString();
  auto fresh = db.Import(restarted.TokenRange(9000, kTokens),
                         restarted.MakeKv(kTokens, 92));
  ASSERT_TRUE(fresh.ok());
  auto fresh_man = ser.LoadManifest(TieredContextStore::SpillName(fresh.value()),
                                    restarted.model);
  ASSERT_TRUE(fresh_man.ok()) << fresh_man.status().ToString();
  EXPECT_GT(fresh_man.value().generation, intact_man.value().generation);
}

// --- Eviction policy: prefix popularity DECAYS (half-life in virtual time).
// --- A context hammered long ago must lose to one hit recently — with
// --- count-forever hits the old favorite is immortal and the store evicts
// --- the currently-hot (or brand-new) context instead.

TEST(TieredStoreTest, DecayedPopularityEvictsFormerlyHot) {
  constexpr size_t kTokens = 200;
  TierFixture fx;
  const uint64_t ctx_bytes = kTokens * fx.model.KvBytesPerToken();
  fx.options.tier.host_budget_bytes = 2 * ctx_bytes + ctx_bytes / 2;
  fx.options.tier.popularity_half_life = 2;  // Aggressive: a test-scale fade.
  AlayaDB db(fx.options, &fx.env);

  auto a = db.Import(fx.TokenRange(0, kTokens), fx.MakeKv(kTokens, 100));
  auto b = db.Import(fx.TokenRange(5000, kTokens), fx.MakeKv(kTokens, 101));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // A was the early favorite (12 hits)... then the workload moved to B.
  for (int i = 0; i < 12; ++i) db.tiers()->OnPrefixHit(a.value());
  for (int i = 0; i < 3; ++i) db.tiers()->OnPrefixHit(b.value());

  // The third import needs a victim. Raw counts say A (12 hits) outranks both
  // B (3) and the newcomer; decayed counts say A's glory has faded.
  auto c = db.Import(fx.TokenRange(9000, kTokens), fx.MakeKv(kTokens, 102));
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(db.contexts().IsSpilled(a.value()));
  EXPECT_FALSE(db.contexts().IsSpilled(b.value()));
  EXPECT_FALSE(db.contexts().IsSpilled(c.value()));
  EXPECT_LE(db.contexts().TotalKvBytes(), fx.options.tier.host_budget_bytes);
}

// --- Quantized residency: at one host budget an int8 KV codec keeps more
// --- contexts resident than fp32, because a context's deployed bytes — what
// --- the budget charges — shrink with the codec width.

TEST(TieredStoreTest, Int8KeepsMoreContextsResidentThanFp32) {
  constexpr size_t kTokens = 200;
  constexpr size_t kContexts = 8;
  const uint64_t ctx_bytes = kTokens * ModelConfig::Tiny().KvBytesPerToken();
  const uint64_t budget = 2 * ctx_bytes + ctx_bytes / 2;
  // Same contexts, same budget; only the codec differs.
  auto import_all = [&](VectorCodec codec) {
    SCOPED_TRACE(VectorCodecName(codec));
    TierFixture fx;
    fx.options.tier.host_budget_bytes = budget;
    fx.options.quant.kv_codec = codec;
    AlayaDB db(fx.options, &fx.env);
    for (size_t i = 0; i < kContexts; ++i) {
      const int32_t start = static_cast<int32_t>(i) * 1000;
      EXPECT_TRUE(
          db.Import(fx.TokenRange(start, kTokens), fx.MakeKv(kTokens, 200 + i)).ok());
    }
    EXPECT_NE(db.tiers(), nullptr);
    const TieredContextStore::Stats stats =
        db.tiers() != nullptr ? db.tiers()->stats() : TieredContextStore::Stats{};
    EXPECT_EQ(stats.resident_contexts + stats.spilled_contexts, kContexts);
    EXPECT_LE(stats.resident_kv_bytes, budget);
    return stats;
  };
  const TieredContextStore::Stats fp32 = import_all(VectorCodec::kFp32);
  const TieredContextStore::Stats int8 = import_all(VectorCodec::kInt8);
  EXPECT_GE(fp32.spilled_contexts, 1u);  // The budget binds on fp32.
  EXPECT_GT(int8.resident_contexts, fp32.resident_contexts)
      << "of " << kContexts << " contexts";
}

// --- Serving over a spilling store: the engine, not a hand-driven session,
// --- re-hits spilled prefixes. Under either KV codec, the budgeted run pages
// --- contexts back in and every request's outputs match the same codec's
// --- unbudgeted run bit for bit.

class ServingOverSpillingStoreTest : public ::testing::TestWithParam<VectorCodec> {};

TEST_P(ServingOverSpillingStoreTest, PagedInOutputsMatchUnbudgeted) {
  constexpr size_t kTokens = 200;
  constexpr size_t kSteps = 3;
  constexpr int kContexts = 3;
  constexpr int kRounds = 2;  // Every prefix is hit twice.
  // One context's bytes as the budget charges them: deployed at the codec.
  std::unique_ptr<KvCache> sizer = TierFixture().MakeKv(kTokens, 0);
  sizer->QuantizeInPlace(GetParam());
  const uint64_t ctx_bytes = sizer->DeployedBytes();

  // budget 0 = unbudgeted. Returns every request's outputs in submit order.
  auto serve = [&](uint64_t budget, ServingSnapshot* snap) {
    TierFixture fx;
    fx.options.quant.kv_codec = GetParam();
    fx.options.tier.host_budget_bytes = budget;
    ThreadPool pool(4);
    fx.options.materialize_pool = &pool;
    AlayaDB db(fx.options, &fx.env);
    for (int i = 0; i < kContexts; ++i) {
      EXPECT_TRUE(
          db.Import(fx.TokenRange(i * 1000, kTokens), fx.MakeKv(kTokens, 300 + i)).ok());
    }
    ServingEngineOptions eopts;
    eopts.scheduler.max_concurrent_sessions = 2;
    eopts.pool = &pool;
    ServingEngine engine(&db, eopts);
    std::vector<RequestHandle> handles;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kContexts; ++i) {
        ServingRequest r;
        r.prompt = fx.TokenRange(i * 1000, kTokens);
        r.max_new_tokens = kSteps;
        r.record_outputs = true;
        const ModelConfig m = fx.model;
        const uint64_t seed = static_cast<uint64_t>(round * kContexts + i);
        r.fill_step = [m, seed](size_t step, uint32_t layer, float* q, float* k,
                                float* v) {
          Rng rng(seed * 1000003ull + step * 131ull + layer);
          rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
          rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
          rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
        };
        auto h = engine.Submit(std::move(r));
        EXPECT_TRUE(h.ok()) << h.status().ToString();
        if (h.ok()) handles.push_back(h.value());
      }
    }
    EXPECT_TRUE(engine.RunToCompletion().ok());
    std::vector<std::vector<float>> outputs;
    for (RequestHandle& h : handles) {
      const RequestResult* r = h.Wait();
      EXPECT_TRUE(r != nullptr && r->status.ok());
      EXPECT_EQ(r != nullptr ? r->reused_prefix : 0, kTokens);
      outputs.push_back(r != nullptr ? r->outputs : std::vector<float>{});
    }
    *snap = engine.snapshot();
    return outputs;
  };

  ServingSnapshot golden_snap, snap;
  const auto golden = serve(/*budget=*/0, &golden_snap);
  // 1.5 contexts: at most one stays resident, so later hits must page in.
  const auto outputs = serve(ctx_bytes + ctx_bytes / 2, &snap);
  EXPECT_GE(snap.tier_spills, 1u);
  EXPECT_GE(snap.tier_page_ins, 1u);
  ASSERT_EQ(outputs.size(), golden.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    ASSERT_FALSE(golden[i].empty()) << "request " << i;
    ExpectBitIdentical(outputs[i], golden[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, ServingOverSpillingStoreTest,
                         ::testing::Values(VectorCodec::kFp32, VectorCodec::kInt8),
                         [](const ::testing::TestParamInfo<VectorCodec>& info) {
                           return std::string(VectorCodecName(info.param));
                         });

// --- Concurrency: page-ins of DISTINCT contexts overlap (the io mutex is
// --- sharded per-id, not global); every load lands intact and decodes
// --- bit-identically. Run under TSan in CI.

TEST(TieredStoreTest, ConcurrentDistinctPageInsAreSafe) {
  constexpr size_t kTokens = 200;
  constexpr size_t kSteps = 2;
  constexpr int kContexts = 4;
  TierFixture fx;
  fx.options.tier.host_budget_bytes = 64ull << 20;  // Roomy: no forced eviction.
  AlayaDB db(fx.options, &fx.env);
  ASSERT_NE(db.tiers(), nullptr);

  std::vector<uint64_t> ids;
  std::vector<std::vector<float>> goldens;
  for (int i = 0; i < kContexts; ++i) {
    auto imported =
        db.Import(fx.TokenRange(i * 1000, kTokens), fx.MakeKv(kTokens, 110 + i));
    ASSERT_TRUE(imported.ok());
    ids.push_back(imported.value());
    auto s = db.CreateSession(fx.TokenRange(i * 1000, kTokens));
    ASSERT_TRUE(s.ok());
    goldens.push_back(fx.Decode(s.value().session.get(), kSteps));
  }
  for (uint64_t id : ids) {
    ASSERT_TRUE(db.tiers()->SpillContext(id).ok());
    ASSERT_TRUE(db.contexts().IsSpilled(id));
  }

  std::vector<Status> results(kContexts, Status::Internal("not run"));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kContexts; ++i) {
      threads.emplace_back([&, i] {
        auto paged = db.tiers()->PageIn(ids[i]);
        results[i] = paged.status();
      });
    }
    for (auto& t : threads) t.join();
  }
  for (int i = 0; i < kContexts; ++i) {
    EXPECT_TRUE(results[i].ok()) << results[i].ToString();
  }
  EXPECT_EQ(db.tiers()->stats().page_ins, static_cast<uint64_t>(kContexts));

  for (int i = 0; i < kContexts; ++i) {
    auto s = db.CreateSession(fx.TokenRange(i * 1000, kTokens));
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.value().reused_prefix, kTokens);
    ExpectBitIdentical(fx.Decode(s.value().session.get(), kSteps), goldens[i]);
  }
}

}  // namespace
}  // namespace alaya
