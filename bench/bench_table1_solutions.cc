// Table 1 / Figure 2: the four LLM-inference solution categories compared on
// the same workload — GPU memory, latency, and quality.
//   (1) coupled architecture  -> Full Attention, KV on device
//   (2) KV-cache disaggregation -> LMCache-style load-then-decode
//   (3) retrieval-based sparse attention -> Top-k (RetrievalAttention-style)
//   (4) AlayaDB -> DIPRS + window + data-centric engine
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/harness/lmcache.h"
#include "src/llm/quality.h"

namespace alaya {
namespace {

void Run() {
  bench::Header("Table 1", "solution categories: memory / latency / quality");
  WorkloadSpec spec = FindTask(InfinityBenchSuite(bench::kContextScale), "En.QA");
  spec.decode_steps = 5;
  SyntheticContext ctx = bench::MakeContext(spec);
  SimEnvironment env;
  const double geom_scale =
      static_cast<double>(ModelConfig::Llama3_8B().KvBytesPerToken()) /
      static_cast<double>(ctx.model().KvBytesPerToken()) / bench::kContextScale;

  const EvalOptions opts = bench::ScaledEval(ctx.model(), 5);
  const MethodSpec topk = MethodSpec::TopK(100);
  const std::shared_ptr<Context> imported = bench::Import(ctx, &env);
  std::vector<MethodEval> evals = {
      bench::EvalRunner(ctx, MethodSpec::Full(), opts, &env),
      bench::EvalRunner(ctx, topk, opts, &env, imported.get()),
      // AlayaDB under the top-k row's window.
      bench::EvalDiprs(ctx, imported.get(), topk.window, bench::DiprBeta(ctx), opts,
                       &env),
  };
  AnchorScores(&evals, spec.paper_full_score);

  // (2) KV-cache disaggregation: quality equals full attention (same math),
  // memory equals full attention during decode, TTFT dominated by the load.
  LmCacheStore lm(LmCacheOptions{}, &env);
  const size_t paper_tokens =
      static_cast<size_t>(ctx.num_tokens() / bench::kContextScale);
  if (!lm.StoreContextBytes(1, paper_tokens,
                            ModelConfig::Llama3_8B().KvBytesPerToken())
           .ok()) {
    std::abort();
  }
  auto load = lm.Load(1);

  std::printf("%-20s %14s %14s %10s %14s\n", "solution", "GPU KV mem", "TPOT",
              "quality", "reuse TTFT");
  auto print_row = [&](const char* name, const MethodEval& e, double load_seconds) {
    std::printf("%-20s %14s %14s %10.1f %14s\n", name,
                HumanBytes(static_cast<uint64_t>(e.gpu_bytes * geom_scale)).c_str(),
                HumanSeconds(e.tpot_seconds).c_str(), e.score,
                HumanSeconds(load_seconds + e.tpot_seconds).c_str());
  };
  print_row("(1) coupled/full", evals[0], 0);
  print_row("(2) disagg/LMCache", evals[0], load.value().total_seconds);
  print_row("(3) sparse/top-k", evals[1], 0);
  print_row("(4) AlayaDB/DIPRS", evals[2], 0);

  bench::Rule(78);
  std::printf(
      "expected shape (paper Table 1): (1) large memory/good quality, (2) adds\n"
      "reuse but still large memory + load latency, (3) small memory with a\n"
      "quality trade-off, (4) AlayaDB: small memory, low latency, high quality.\n");
}

}  // namespace
}  // namespace alaya

int main() {
  alaya::Run();
  return 0;
}
