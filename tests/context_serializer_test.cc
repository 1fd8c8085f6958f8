#include "src/core/context_serializer.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "src/common/rng.h"
#include "src/index/flat_index.h"
#include "src/query/diprs.h"

namespace alaya {
namespace {

struct SerializerFixture {
  ModelConfig model = ModelConfig::Tiny();  // dim 16; VFS files use dim 16.
  VectorFileSystem vfs;

  SerializerFixture() : vfs(MakeVfsOptions()) {}

  static VectorFileSystem::Options MakeVfsOptions() {
    VectorFileSystem::Options o;
    o.in_memory = true;
    o.file.dim = 16;
    o.file.max_degree = 32;
    o.file.block_size = 4096;
    return o;
  }

  std::unique_ptr<Context> MakeContext(size_t tokens, uint64_t seed,
                                       bool build_indices) {
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(seed);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    std::vector<int32_t> ids(tokens);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < tokens; ++t) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    for (size_t t = 0; t < tokens; ++t) ids[t] = static_cast<int32_t>(100 + t);
    auto ctx = std::make_unique<Context>(1, std::move(ids), std::move(kv));
    if (build_indices) {
      EXPECT_TRUE(ctx->BuildFineIndices(IndexBuildOptions{}, nullptr, nullptr).ok());
    }
    return ctx;
  }
};

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

TEST(ContextSerializerTest, LoadReencodesTheSameKeySidecars) {
  // The sidecars are not persisted: Load re-encodes them from the restored
  // keys (with the persisted params under int8 KV), and the result is the
  // resident context's, code for code. The manifest records the index bytes
  // the spill wrote, which leave the sidecars out.
  for (VectorCodec kv_codec : {VectorCodec::kFp32, VectorCodec::kInt8}) {
    SCOPED_TRACE(VectorCodecName(kv_codec));
    SerializerFixture fx;
    auto original = fx.MakeContext(300, 11, /*build_indices=*/false);
    original->mutable_kv().QuantizeInPlace(kv_codec);
    ASSERT_TRUE(original->BuildFineIndices(IndexBuildOptions{}, nullptr, nullptr).ok());
    ASSERT_GT(original->KeySidecarBytes(), 0u);
    EXPECT_EQ(original->KeySidecarBytes(),
              uint64_t{fx.model.num_kv_heads} * 300 * fx.model.head_dim);
    ContextSerializer ser(&fx.vfs);
    ASSERT_TRUE(ser.Persist(*original, "sidecar").ok());
    auto man = ser.LoadManifest("sidecar", fx.model);
    ASSERT_TRUE(man.ok()) << man.status().ToString();
    EXPECT_EQ(man.value().index_bytes,
              original->IndexBytes() - original->KeySidecarBytes());
    auto loaded = ser.Load("sidecar", 3, fx.model, RoarGraphOptions{});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSameKeySidecars(*loaded.value(), *original);
  }
}

TEST(ContextSerializerTest, RoundtripKvAndTokens) {
  SerializerFixture fx;
  auto original = fx.MakeContext(120, 1, /*build_indices=*/false);
  ContextSerializer ser(&fx.vfs);
  ASSERT_TRUE(ser.Persist(*original, "ctx1").ok());

  auto loaded = ser.Load("ctx1", 7, fx.model, RoarGraphOptions{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Context& ctx = *loaded.value();
  EXPECT_EQ(ctx.id(), 7u);
  EXPECT_EQ(ctx.tokens(), original->tokens());
  EXPECT_EQ(ctx.kv().NumTokens(), 120u);
  EXPECT_FALSE(ctx.HasFineIndices());
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    for (uint32_t h = 0; h < fx.model.num_kv_heads; ++h) {
      for (uint32_t t = 0; t < 120; t += 17) {
        for (uint32_t j = 0; j < fx.model.head_dim; ++j) {
          EXPECT_EQ(ctx.kv().Keys(layer, h).Vec(t)[j],
                    original->kv().Keys(layer, h).Vec(t)[j]);
          EXPECT_EQ(ctx.kv().Values(layer, h).Vec(t)[j],
                    original->kv().Values(layer, h).Vec(t)[j]);
        }
      }
    }
  }
}

TEST(ContextSerializerTest, RoundtripWithFineIndices) {
  SerializerFixture fx;
  auto original = fx.MakeContext(200, 2, /*build_indices=*/true);
  ContextSerializer ser(&fx.vfs);
  ASSERT_TRUE(ser.Persist(*original, "ctx2").ok());

  auto loaded = ser.Load("ctx2", 9, fx.model, RoarGraphOptions{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Context& ctx = *loaded.value();
  ASSERT_TRUE(ctx.HasFineIndices());

  // Adjacency restored exactly for every (layer, kv head).
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    for (uint32_t h = 0; h < fx.model.num_kv_heads; ++h) {
      const RoarGraph* a = original->FineIndex(layer, h * fx.model.GroupSize());
      const RoarGraph* b = ctx.FineIndex(layer, h * fx.model.GroupSize());
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      ASSERT_EQ(a->graph().size(), b->graph().size());
      for (uint32_t u = 0; u < a->graph().size(); u += 13) {
        auto na = a->graph().Neighbors(u);
        auto nb = b->graph().Neighbors(u);
        ASSERT_EQ(na.size(), nb.size()) << "node " << u;
        for (size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
      }
    }
  }

  // The restored index answers searches (smoke: DIPR runs and returns hits).
  const RoarGraph* fine = ctx.FineIndex(1, 0);
  std::vector<float> q(fx.model.head_dim, 0.5f);
  SearchResult res;
  ASSERT_TRUE(fine->SearchDipr(q.data(), DiprParams{1e6f, 16, 0}, &res).ok());
  EXPECT_GT(res.hits.size(), 0u);
}

TEST(ContextSerializerTest, RoundtripPreservesDeviceAndBuildStats) {
  // Spill/restore must not launder accounting: a context paged back in keeps
  // its placement and the (possibly expensive) build provenance it paid for,
  // otherwise eviction scoring and per-device schedulers see fresh-born state.
  SerializerFixture fx;
  auto original = fx.MakeContext(200, 4, /*build_indices=*/true);
  original->set_resident_device(1);
  IndexBuildStats stats = original->build_stats();
  stats.knn_wall_seconds = 1.25;
  stats.project_wall_seconds = 0.5;
  stats.modeled_gpu_seconds = 0.0625;
  stats.modeled_transfer_seconds = 0.03125;
  stats.reported_seconds = 2.75;
  // A value past 2^24 would be corrupted by a float cast; the manifest must
  // carry it bit-exactly.
  stats.index_bytes = (1ull << 33) + 12345;
  stats.num_indices = 4;
  stats.training_queries = 77;
  stats.extended_indices = 3;
  stats.reused_base_nodes = (1ull << 26) + 9;
  stats.inserted_suffix_nodes = 41;
  original->set_build_stats(stats);

  ContextSerializer ser(&fx.vfs);
  ASSERT_TRUE(ser.Persist(*original, "ctx4").ok());

  // The manifest alone (warm-start path) exposes the snapshot without paying
  // for KV or adjacency loads.
  auto man = ser.LoadManifest("ctx4", fx.model);
  ASSERT_TRUE(man.ok()) << man.status().ToString();
  EXPECT_EQ(man.value().resident_device, 1);
  EXPECT_EQ(man.value().length, 200u);
  EXPECT_TRUE(man.value().has_fine);
  EXPECT_EQ(man.value().build_stats.index_bytes, stats.index_bytes);
  EXPECT_EQ(man.value().tokens, original->tokens());

  auto loaded = ser.Load("ctx4", 11, fx.model, RoarGraphOptions{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Context& ctx = *loaded.value();
  EXPECT_EQ(ctx.resident_device(), 1);
  EXPECT_TRUE(ctx.fine_indices_restored());  // Restored, not rebuilt.
  const IndexBuildStats& got = ctx.build_stats();
  EXPECT_EQ(got.knn_wall_seconds, stats.knn_wall_seconds);
  EXPECT_EQ(got.project_wall_seconds, stats.project_wall_seconds);
  EXPECT_EQ(got.modeled_gpu_seconds, stats.modeled_gpu_seconds);
  EXPECT_EQ(got.modeled_transfer_seconds, stats.modeled_transfer_seconds);
  EXPECT_EQ(got.reported_seconds, stats.reported_seconds);
  EXPECT_EQ(got.index_bytes, stats.index_bytes);
  EXPECT_EQ(got.num_indices, stats.num_indices);
  EXPECT_EQ(got.training_queries, stats.training_queries);
  EXPECT_EQ(got.extended_indices, stats.extended_indices);
  EXPECT_EQ(got.reused_base_nodes, stats.reused_base_nodes);
  EXPECT_EQ(got.inserted_suffix_nodes, stats.inserted_suffix_nodes);
}

TEST(ContextSerializerTest, QuantizedContextRoundTripsCodecState) {
  // An int8-quantized context persists a v3 manifest carrying the codec id and
  // per-(layer, head) scale/zero-point rows; the KV payload itself is the
  // on-grid fp32 data, so restore is bit-identical AND the restored cache
  // reports the same compressed DeployedBytes as the original.
  SerializerFixture fx;
  auto original = fx.MakeContext(120, 8, /*build_indices=*/false);
  original->mutable_kv().QuantizeInPlace(VectorCodec::kInt8);
  const size_t deployed = original->kv().DeployedBytes();
  ASSERT_EQ(original->kv().codec(), VectorCodec::kInt8);

  ContextSerializer ser(&fx.vfs);
  ASSERT_TRUE(ser.Persist(*original, "ctxq").ok());

  auto man = ser.LoadManifest("ctxq", fx.model);
  ASSERT_TRUE(man.ok()) << man.status().ToString();
  EXPECT_EQ(man.value().kv_codec, VectorCodec::kInt8);
  ASSERT_EQ(man.value().key_params.size(),
            size_t{fx.model.num_layers} * fx.model.num_kv_heads);

  auto loaded = ser.Load("ctxq", 13, fx.model, RoarGraphOptions{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Context& ctx = *loaded.value();
  EXPECT_EQ(ctx.kv().codec(), VectorCodec::kInt8);
  EXPECT_EQ(ctx.kv().DeployedBytes(), deployed);
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    for (uint32_t h = 0; h < fx.model.num_kv_heads; ++h) {
      EXPECT_EQ(ctx.kv().KeyParams(layer, h).scale,
                original->kv().KeyParams(layer, h).scale);
      EXPECT_EQ(ctx.kv().KeyParams(layer, h).zero_point,
                original->kv().KeyParams(layer, h).zero_point);
      EXPECT_EQ(ctx.kv().ValParams(layer, h).scale,
                original->kv().ValParams(layer, h).scale);
      for (uint32_t t = 0; t < 120; t += 17) {
        for (uint32_t j = 0; j < fx.model.head_dim; ++j) {
          EXPECT_EQ(ctx.kv().Keys(layer, h).Vec(t)[j],
                    original->kv().Keys(layer, h).Vec(t)[j]);
          EXPECT_EQ(ctx.kv().Values(layer, h).Vec(t)[j],
                    original->kv().Values(layer, h).Vec(t)[j]);
        }
      }
    }
  }
}

TEST(ContextSerializerTest, GeometryMismatchRejected) {
  SerializerFixture fx;
  auto original = fx.MakeContext(50, 3, false);
  ContextSerializer ser(&fx.vfs);
  ASSERT_TRUE(ser.Persist(*original, "ctx3").ok());
  ModelConfig other = fx.model;
  other.num_layers += 1;
  auto loaded = ser.Load("ctx3", 1, other, RoarGraphOptions{});
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST(ContextSerializerTest, MissingContextFails) {
  SerializerFixture fx;
  ContextSerializer ser(&fx.vfs);
  EXPECT_FALSE(ser.Load("ghost", 1, fx.model, RoarGraphOptions{}).ok());
}

TEST(ContextSerializerTest, GenerationStampRoundtrips) {
  SerializerFixture fx;
  auto original = fx.MakeContext(50, 4, false);
  ContextSerializer ser(&fx.vfs);
  ASSERT_TRUE(ser.Persist(*original, "ctx4", /*generation=*/7).ok());
  auto man = ser.LoadManifest("ctx4", fx.model);
  ASSERT_TRUE(man.ok()) << man.status().ToString();
  EXPECT_EQ(man.value().generation, 7u);
}

// --- Torn-write safety: a manifest physically cut short (crash mid-write)
// --- and a manifest garbled in place (bit rot / partial block) must both
// --- surface as Corruption — the disposition warm start skips on — and
// --- never as a half-loaded context.

/// On-disk fixture: the VFS backs names with "<dir>/<name>.vf" POSIX files we
/// can truncate and flip bytes in, like a crash or bad disk would.
struct DiskSerializerFixture {
  ModelConfig model = ModelConfig::Tiny();
  std::string dir;
  DiskSerializerFixture() {
    char buf[] = "/tmp/alaya_ser_XXXXXX";
    char* got = mkdtemp(buf);
    EXPECT_NE(got, nullptr);
    if (got != nullptr) dir = got;
  }
  ~DiskSerializerFixture() {
    if (dir.empty()) return;
    if (DIR* d = opendir(dir.c_str())) {
      while (dirent* e = readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((dir + "/" + name).c_str());
      }
      closedir(d);
    }
    ::rmdir(dir.c_str());
  }
  VectorFileSystem::Options VfsOptions() const {
    VectorFileSystem::Options o;
    o.in_memory = false;
    o.dir = dir;
    o.file.dim = 16;
    o.file.max_degree = 32;
    o.file.block_size = 4096;
    return o;
  }
  std::string ManifestPath(const std::string& prefix) const {
    return dir + "/" + ContextSerializer::ManifestName(prefix) + ".vf";
  }
};

TEST(ContextSerializerTest, TruncatedManifestIsCorruption) {
  DiskSerializerFixture fx;
  ASSERT_FALSE(fx.dir.empty());
  {
    VectorFileSystem vfs(fx.VfsOptions());
    SerializerFixture mk;  // Context factory only; persists through `vfs`.
    auto ctx = mk.MakeContext(50, 5, false);
    ContextSerializer ser(&vfs);
    ASSERT_TRUE(ser.Persist(*ctx, "ctx5", /*generation=*/1).ok());
  }
  // Cut the manifest in half — the commit record lost its tail (trailer
  // included), exactly what a crash mid-write leaves behind.
  const std::string path = fx.ManifestPath("ctx5");
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size / 2), 0);

  VectorFileSystem vfs(fx.VfsOptions());
  ContextSerializer ser(&vfs);
  auto man = ser.LoadManifest("ctx5", fx.model);
  ASSERT_FALSE(man.ok());
  EXPECT_TRUE(man.status().IsCorruption()) << man.status().ToString();
}

TEST(ContextSerializerTest, GarbledManifestFailsChecksum) {
  DiskSerializerFixture fx;
  ASSERT_FALSE(fx.dir.empty());
  {
    VectorFileSystem vfs(fx.VfsOptions());
    SerializerFixture mk;
    auto ctx = mk.MakeContext(50, 6, false);
    ContextSerializer ser(&vfs);
    ASSERT_TRUE(ser.Persist(*ctx, "ctx6", /*generation=*/1).ok());
  }
  // Flip a byte inside a build-stats row (row 8 of the first data block, at
  // header block + 16-byte block header + 8 rows of dim-16 floats):
  // structurally the file still parses — only the checksum can tell.
  const std::string path = fx.ManifestPath("ctx6");
  const off_t offset = 4096 /*header block*/ + 16 /*block header*/ +
                       8 * 16 * static_cast<off_t>(sizeof(float)) + 3;
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, offset), 1);
  byte = static_cast<char>(byte ^ 0x5A);
  ASSERT_EQ(::pwrite(fd, &byte, 1, offset), 1);
  ::close(fd);

  VectorFileSystem vfs(fx.VfsOptions());
  ContextSerializer ser(&vfs);
  auto man = ser.LoadManifest("ctx6", fx.model);
  ASSERT_FALSE(man.ok());
  EXPECT_TRUE(man.status().IsCorruption()) << man.status().ToString();
  EXPECT_NE(man.status().message().find("checksum"), std::string::npos)
      << man.status().ToString();
}

}  // namespace
}  // namespace alaya
