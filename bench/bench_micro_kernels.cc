// Micro-kernels (google-benchmark): the primitives every experiment sits on.
//
// Two modes:
//   (default)           google-benchmark harness over all BM_* rows.
//   --json <path>       hand-timed kernel gate: times fp32 scalar vs the
//                       dispatched fp32/fp16/int8 dot kernels, writes the
//                       rows to <path> (CI archives it as BENCH_kernels.json)
//                       and exits non-zero if the int8 dot is not >= 1.5x the
//                       scalar fp32 dot. The gate only binds when the runtime
//                       dispatch level is wider than "scalar" — a scalar-only
//                       host has no SIMD win to assert. A second record times
//                       layer 0's flat DIPR scan of one KV group (2 queries
//                       over 8k x 64 keys of a synthetic context) in fp32 and
//                       over the int8 key sidecar; it exits non-zero if the
//                       two scans' hits differ (no speed gate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/attention/attention_engine.h"
#include "src/attention/partial_softmax.h"
#include "src/common/rng.h"
#include "src/common/vec_math.h"
#include "src/common/vector_codec.h"
#include "src/index/flat_index.h"
#include "src/index/roargraph.h"
#include "src/llm/qkv_generator.h"
#include "src/query/diprs.h"
#include "src/query/optimizer.h"
#include "tests/test_util.h"

namespace alaya {
namespace {

void BM_Dot(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(d), b(d);
  rng.FillGaussian(a.data(), d);
  rng.FillGaussian(b.data(), d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Kernels().dot(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Dot)->Arg(64)->Arg(128)->Arg(256);

void BM_DotF16(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(d), b(d);
  rng.FillGaussian(a.data(), d);
  rng.FillGaussian(b.data(), d);
  std::vector<uint16_t> h(d);
  for (size_t i = 0; i < d; ++i) h[i] = Fp16FromFloat(b[i]);
  const KernelOps& ops = Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.dot_f16(a.data(), h.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DotF16)->Arg(64)->Arg(128)->Arg(256);

void BM_DotI8(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(d);
  rng.FillGaussian(a.data(), d);
  std::vector<int8_t> c(d);
  for (size_t i = 0; i < d; ++i) c[i] = static_cast<int8_t>((i * 37) % 251 - 125);
  const KernelOps& ops = Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.dot_i8(a.data(), c.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DotI8)->Arg(64)->Arg(128)->Arg(256);

void BM_MatVecDotCoded(benchmark::State& state) {
  // The batched coded kernel (int8 rows against an int16 query, exact int32
  // sums) vs the fp32 matvec baseline (BM_MatVecDotFp32) on identical
  // geometry.
  const size_t n = static_cast<size_t>(state.range(0)), d = 128;
  Rng rng(5);
  VectorSet rows(d);
  std::vector<float> v(d);
  for (size_t i = 0; i < n; ++i) {
    rng.FillGaussian(v.data(), d);
    rows.Append(v.data());
  }
  CodedVectorSet coded;
  coded.Encode(rows.View(), VectorCodec::kInt8);
  std::vector<float> q(d);
  rng.FillGaussian(q.data(), d);
  std::vector<int16_t> qcodes(d);
  QuantizeQueryInt16(q.data(), d, qcodes.data());
  std::vector<int32_t> out(n);
  const KernelOps& ops = Kernels();
  for (auto _ : state) {
    ops.matvec_i8i16(coded.I8Row(0), n, d, qcodes.data(), 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MatVecDotCoded)->Arg(4096)->Arg(32768);

void BM_MatVecDotFp32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0)), d = 128;
  Rng rng(5);
  VectorSet rows(d);
  std::vector<float> v(d);
  for (size_t i = 0; i < n; ++i) {
    rng.FillGaussian(v.data(), d);
    rows.Append(v.data());
  }
  std::vector<float> q(d), out(n);
  rng.FillGaussian(q.data(), d);
  for (auto _ : state) {
    Kernels().matvec(rows.View().data, n, d, q.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MatVecDotFp32)->Arg(4096)->Arg(32768);

void BM_Softmax(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<float> scores(n), scratch(n);
  rng.FillGaussian(scores.data(), n);
  for (auto _ : state) {
    scratch = scores;
    SoftmaxInPlace(scratch.data(), n);
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(1024)->Arg(16384);

void BM_PartialMerge(benchmark::State& state) {
  const size_t d = 128;
  Rng rng(3);
  PartialAttention a(d), b(d);
  std::vector<float> v(d);
  rng.FillGaussian(v.data(), d);
  a.Accumulate(1.0f, v.data());
  b.Accumulate(2.0f, v.data());
  std::vector<float> out(d);
  for (auto _ : state) {
    PartialAttention merged(d);
    merged.Merge(a);
    merged.Merge(b);
    merged.Finalize(out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PartialMerge);

void BM_FullAttentionHead(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0)), d = 128;
  Rng rng(4);
  VectorSet keys(d), values(d);
  std::vector<float> v(d);
  for (size_t i = 0; i < n; ++i) {
    rng.FillGaussian(v.data(), d);
    keys.Append(v.data());
    rng.FillGaussian(v.data(), d);
    values.Append(v.data());
  }
  std::vector<float> q(d), out(d);
  rng.FillGaussian(q.data(), d);
  for (auto _ : state) {
    FullAttentionHead(q.data(), keys.View(), values.View(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FullAttentionHead)->Arg(4096)->Arg(32768);

struct SearchFixture {
  testutil::PlantedMips data;
  RoarGraph graph;
  SearchFixture()
      : data(20000, 64, 200, 9), graph(data.keys.View(), RoarGraphOptions{}) {
    VectorSet training = testutil::MakeTrainingQueries(data, 2000, 10);
    if (!graph.BuildFromQueries(training.View()).ok()) std::abort();
  }
};

SearchFixture& Fixture() {
  static SearchFixture* fx = new SearchFixture();
  return *fx;
}

void BM_GraphTopK(benchmark::State& state) {
  auto& fx = Fixture();
  const size_t k = static_cast<size_t>(state.range(0));
  SearchResult res;
  for (auto _ : state) {
    if (!fx.graph.SearchTopK(fx.data.query.data(), TopKParams{k, 0}, &res).ok()) {
      std::abort();
    }
    benchmark::DoNotOptimize(res.hits.data());
  }
}
BENCHMARK(BM_GraphTopK)->Arg(100)->Arg(2000);

void BM_Diprs(benchmark::State& state) {
  auto& fx = Fixture();
  DiprParams params;
  params.beta = 11.f;
  params.l0 = 128;
  for (auto _ : state) {
    SearchResult res =
        DiprsSearch(fx.graph.graph(), fx.data.keys.View(),
                    fx.graph.EntryPoint(),
                    fx.data.query.data(), params);
    benchmark::DoNotOptimize(res.hits.data());
  }
}
BENCHMARK(BM_Diprs);

void BM_FlatDipr(benchmark::State& state) {
  auto& fx = Fixture();
  FlatIndex flat(fx.data.keys.View());
  DiprParams params;
  params.beta = 11.f;
  SearchResult res;
  for (auto _ : state) {
    if (!flat.SearchDipr(fx.data.query.data(), params, &res).ok()) std::abort();
    benchmark::DoNotOptimize(res.hits.data());
  }
}
BENCHMARK(BM_FlatDipr);

// --- Hand-timed kernel gate (--json mode) ---------------------------------

struct GateRow {
  const char* name;
  double ns_per_dot;
  double speedup_vs_scalar_fp32;
};

/// Times `fn` (one full sweep over the block of `n` dots) best-of-reps with a
/// warmup sweep; returns ns per dot.
template <typename Fn>
double TimeNsPerDot(size_t n, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // Warmup (page-in, branch predictors, turbo settle).
  double best = 1e300;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    const double ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
        static_cast<double>(n);
    if (ns < best) best = ns;
  }
  return best;
}

struct GroupScanRecord {
  size_t rows = 0, dim = 0, queries = 0;
  double beta = 0, fp32_us = 0, sidecar_us = 0, rescored_fraction = 0;
  bool equal = true;
};

/// Layer 0's flat DIPR scan of one KV group as a serving step runs it: the 2
/// query heads sharing KV head 0 of an 8k-token synthetic context (the
/// servebench model, d = 64), at the optimizer's default beta. Times the fp32
/// scan and the int8-sidecar scan best-of-reps over 8 decode steps' queries,
/// and checks their hits are identical.
GroupScanRecord TimeGroupScan() {
  SyntheticContextOptions opts;
  opts.model = ModelConfig{2, 4, 2, 64, 2};
  opts.spec = FindTask(InfinityBenchSuite(), "En.QA");
  opts.spec.context_tokens = 8192;
  SyntheticContext ctx(opts);
  if (!ctx.Generate().ok()) std::abort();
  const VectorSetView keys = ctx.kv().Keys(0, 0);
  CodedVectorSet codes;
  codes.Encode(keys, VectorCodec::kInt8);
  const DiprParams params = OptimizerOptions{}.dipr;
  const size_t d = keys.d, group = opts.model.GroupSize(), steps = 8;
  std::vector<float> qbuf(steps * group * d);
  std::vector<std::vector<const float*>> step_qs(steps);
  for (size_t s = 0; s < steps; ++s) {
    for (uint32_t h = 0; h < group; ++h) {
      float* q = qbuf.data() + (s * group + h) * d;
      ctx.MakeDecodeQuery(s, 0, h, q);
      step_qs[s].push_back(q);
    }
  }
  GroupScanRecord rec;
  rec.rows = keys.n;
  rec.dim = d;
  rec.queries = group;
  rec.beta = params.beta;
  const FlatIndex fp32(keys), sidecar(keys, &codes);
  std::vector<SearchResult> a(group), b(group);
  uint64_t rescored = 0;
  for (const std::vector<const float*>& qs : step_qs) {
    if (!fp32.SearchDipr(qs, params, a.data()).ok() ||
        !sidecar.SearchDipr(qs, params, b.data()).ok()) {
      std::abort();
    }
    for (size_t h = 0; h < group; ++h) {
      rescored += b[h].stats.rescored;
      rec.equal = rec.equal && a[h].hits.size() == b[h].hits.size() &&
                  std::equal(a[h].hits.begin(), a[h].hits.end(), b[h].hits.begin(),
                             [](const ScoredId& x, const ScoredId& y) {
                               return x.id == y.id && std::memcmp(&x.score, &y.score,
                                                                  sizeof(float)) == 0;
                             });
    }
  }
  rec.rescored_fraction =
      static_cast<double>(rescored) / static_cast<double>(steps * group * keys.n);
  auto sweep = [&](const FlatIndex& index) {
    return [&] {
      for (const std::vector<const float*>& qs : step_qs) {
        if (!index.SearchDipr(qs, params, a.data()).ok()) std::abort();
      }
    };
  };
  // TimeNsPerDot divides by its count: per call here, then to microseconds.
  rec.fp32_us = TimeNsPerDot(steps, sweep(fp32)) * 1e-3;
  rec.sidecar_us = TimeNsPerDot(steps, sweep(sidecar)) * 1e-3;
  return rec;
}

int RunKernelGate(const std::string& json_path) {
  constexpr size_t kN = 8192, kD = 128, kSweeps = 8;
  Rng rng(17);
  std::vector<float> block(kN * kD), q(kD);
  rng.FillGaussian(block.data(), block.size());
  rng.FillGaussian(q.data(), kD);
  std::vector<uint16_t> f16(kN * kD);
  for (size_t i = 0; i < block.size(); ++i) f16[i] = Fp16FromFloat(block[i]);
  CodecParams params =
      ComputeCodecParams(block.data(), block.size(), VectorCodec::kInt8);
  std::vector<int8_t> i8(kN * kD);
  for (size_t i = 0; i < block.size(); ++i) {
    const float c = std::nearbyint(block[i] / params.scale + params.zero_point);
    i8[i] = static_cast<int8_t>(c < -128.f ? -128.f : (c > 127.f ? 127.f : c));
  }

  volatile float sink = 0.f;  // Defeats dead-code elimination across sweeps.
  const KernelOps& scalar = ScalarKernels();
  const KernelOps& ops = Kernels();
  const size_t dots = kN * kSweeps;

  const double scalar_fp32 = TimeNsPerDot(dots, [&] {
    float acc = 0.f;
    for (size_t s = 0; s < kSweeps; ++s)
      for (size_t i = 0; i < kN; ++i) acc += scalar.dot(q.data(), block.data() + i * kD, kD);
    sink = sink + acc;
  });
  const double fp32 = TimeNsPerDot(dots, [&] {
    float acc = 0.f;
    for (size_t s = 0; s < kSweeps; ++s)
      for (size_t i = 0; i < kN; ++i) acc += ops.dot(q.data(), block.data() + i * kD, kD);
    sink = sink + acc;
  });
  const double fp16 = TimeNsPerDot(dots, [&] {
    float acc = 0.f;
    for (size_t s = 0; s < kSweeps; ++s)
      for (size_t i = 0; i < kN; ++i) acc += ops.dot_f16(q.data(), f16.data() + i * kD, kD);
    sink = sink + acc;
  });
  const double int8 = TimeNsPerDot(dots, [&] {
    float acc = 0.f;
    for (size_t s = 0; s < kSweeps; ++s)
      for (size_t i = 0; i < kN; ++i) acc += ops.dot_i8(q.data(), i8.data() + i * kD, kD);
    sink = sink + acc;
  });

  const GateRow rows[] = {
      {"dot_fp32_scalar", scalar_fp32, 1.0},
      {"dot_fp32", fp32, scalar_fp32 / fp32},
      {"dot_f16", fp16, scalar_fp32 / fp16},
      {"dot_i8", int8, scalar_fp32 / int8},
  };

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"dispatch_level\": \"%s\",\n  \"dim\": %zu,\n  \"rows\": [\n",
               KernelDispatchLevel(), kD);
  for (size_t i = 0; i < 4; ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_dot\": %.3f, "
                 "\"speedup_vs_scalar_fp32\": %.3f}%s\n",
                 rows[i].name, rows[i].ns_per_dot, rows[i].speedup_vs_scalar_fp32,
                 i + 1 < 4 ? "," : "");
  }
  const bool scalar_only = std::strcmp(KernelDispatchLevel(), "scalar") == 0;
  const double int8_speedup = scalar_fp32 / int8;
  const bool gate_pass = scalar_only || int8_speedup >= 1.5;
  const GroupScanRecord scan = TimeGroupScan();
  std::fprintf(f, "  ],\n  \"gate\": {\"int8_min_speedup\": 1.5, \"int8_speedup\": %.3f, "
                  "\"enforced\": %s, \"pass\": %s},\n",
               int8_speedup, scalar_only ? "false" : "true",
               gate_pass ? "true" : "false");
  std::fprintf(f,
               "  \"group_scan\": {\"rows\": %zu, \"dim\": %zu, \"queries\": %zu, "
               "\"beta\": %.1f, \"fp32_us\": %.2f, \"int8_sidecar_us\": %.2f, "
               "\"speedup\": %.3f, \"rescored_fraction\": %.4f, \"equal\": %s}\n}\n",
               scan.rows, scan.dim, scan.queries, scan.beta, scan.fp32_us,
               scan.sidecar_us, scan.fp32_us / scan.sidecar_us, scan.rescored_fraction,
               scan.equal ? "true" : "false");
  std::fclose(f);

  std::printf("kernel gate: level=%s int8 dot %.2fx vs scalar fp32 (gate %.2fx, %s)\n",
              KernelDispatchLevel(), int8_speedup, 1.5,
              scalar_only ? "not enforced on scalar host"
                          : (gate_pass ? "PASS" : "FAIL"));
  std::printf("group scan: %zu x %zu keys, %zu queries: fp32 %.1f us, int8 sidecar "
              "%.1f us (%.2fx), %.1f%% of rows rescored, hits %s\n",
              scan.rows, scan.dim, scan.queries, scan.fp32_us, scan.sidecar_us,
              scan.fp32_us / scan.sidecar_us, 100 * scan.rescored_fraction,
              scan.equal ? "equal" : "DIFFER");
  return gate_pass && scan.equal ? 0 : 1;
}

}  // namespace
}  // namespace alaya

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return alaya::RunKernelGate(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
