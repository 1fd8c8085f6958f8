// Figure 10: TTFT when reusing a stored long context.
//   (a) TTFT vs context length for: w/o reuse (full prefill), LMCache-style
//       load-then-decode, and AlayaDB (decode directly on the offloaded cache
//       through its indices).
//   (b) latency breakdown (load vs decode) at the endpoints.
//
// The prefill and LMCache paths are modeled at the paper's geometry
// (Llama-3-8B bf16, real token counts). The AlayaDB path *measures* decode on
// a scaled-down context and scales to model equivalents (bench_util.h).
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/harness/lmcache.h"

namespace alaya {
namespace {

/// TTFT for AlayaDB == the first decode step on the offloaded cache (no KV
/// load), i.e. the scaled TPOT of the DIPRS session row.
double MeasureAlayaTtft(size_t paper_tokens) {
  // Scaled measured decode: context at 1/16 of the paper length.
  ModelConfig model = bench::BenchModel();
  WorkloadSpec spec = FindTask(InfinityBenchSuite(1.0), "En.QA");
  spec.context_tokens = paper_tokens / 16;
  spec.decode_steps = 2;
  SyntheticContext ctx = bench::MakeContext(spec, model);
  SimEnvironment env;

  return bench::EvalDiprs(ctx, bench::Import(ctx, &env).get(), WindowConfig{128, 512},
                          bench::DiprBeta(ctx), bench::ScaledEval(model, 2, 1.0 / 16.0),
                          &env)
      .tpot_seconds;
}

void Run() {
  bench::Header("Figure 10", "TTFT of long-context reuse: w/o reuse vs LMCache vs AlayaDB");
  const ModelConfig paper = ModelConfig::Llama3_8B();
  SimEnvironment env;
  LmCacheStore lmcache(LmCacheOptions{}, &env);
  const CostModel& cost = env.cost_model();

  std::printf("%-10s %16s %16s %16s\n", "context", "w/o reuse(s)", "LMCache(s)",
              "AlayaDB(s)");
  struct Breakdown {
    size_t tokens;
    double load, decode, alaya;
  };
  std::vector<Breakdown> endpoints;

  for (size_t tokens : {40000u, 80000u, 120000u, 160000u, 200000u}) {
    // w/o reuse: full O(n^2) prefill on the device.
    const double prefill = cost.GpuAttentionSeconds(PrefillAttentionFlops(
                               tokens, paper.num_q_heads, paper.head_dim,
                               paper.num_layers)) *
                           8.0;  // HF-eager inefficiency vs ideal GEMM rate.

    // LMCache: store once, then decompress + transfer + one decode step.
    const uint64_t id = tokens;
    if (!lmcache.StoreContextBytes(id, tokens, paper.KvBytesPerToken()).ok()) {
      std::abort();
    }
    auto load = lmcache.Load(id);
    if (!load.ok()) std::abort();
    const double lm_decode = lmcache.DecodeStepSeconds(id);
    const double lm_total = load.value().total_seconds + lm_decode;

    const double alaya = MeasureAlayaTtft(tokens);

    std::printf("%-10zu %16.2f %16.2f %16.3f\n", tokens, prefill, lm_total, alaya);
    if (tokens == 40000u || tokens == 200000u) {
      endpoints.push_back({tokens, load.value().total_seconds, lm_decode, alaya});
    }
  }

  bench::Rule(78);
  std::printf("Figure 10(b) — latency breakdown (seconds):\n");
  std::printf("%-10s %16s %16s %16s\n", "context", "LMCache load", "LMCache decode",
              "AlayaDB decode");
  for (const auto& e : endpoints) {
    std::printf("%-10zu %16.2f %16.2f %16.3f\n", e.tokens, e.load, e.decode, e.alaya);
  }
  std::printf(
      "\nexpected shape (paper): reuse beats recompute by 2-3 orders of\n"
      "magnitude; AlayaDB beats LMCache by 19-42x because it never ships the\n"
      "KV cache — LMCache load time grows linearly with context length.\n");
}

}  // namespace
}  // namespace alaya

int main() {
  alaya::Run();
  return 0;
}
