// Figure 6: quality vs number of retrieved critical tokens, DIPR vs top-k, on
// Passage R. and LCC profiles. DIPR reaches higher quality with fewer
// retrieved tokens because its budget adapts per head/query.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/llm/quality.h"

namespace alaya {
namespace {

void RunTask(const char* name) {
  WorkloadSpec spec = FindTask(LongBenchSuite(1.0), name);
  spec.decode_steps = 4;
  SyntheticContext ctx = bench::MakeContext(spec, bench::BenchModel(),
                                            /*num_topics=*/4);
  SimEnvironment env;

  const EvalOptions opts = bench::ScaledEval(ctx.model(), 4);
  const double full_fid = bench::EvalRunner(ctx, MethodSpec::Full(), opts, &env).fidelity;
  auto print_point = [&](const char* method, const MethodEval& e) {
    std::printf("%-10s %14.1f %10.2f\n", method, e.mean_retrieved,
                AnchoredScore(e.fidelity, full_fid, spec.paper_full_score));
  };

  std::printf("\n[%s] context=%zu, paper full-attention score=%.1f\n", name,
              ctx.num_tokens(), spec.paper_full_score);
  std::printf("%-10s %14s %10s\n", "method", "mean_tokens", "score");

  const WindowConfig small_window{8, 64};
  // One import serves every point; each beta point is its own Session.
  const std::shared_ptr<Context> imported = bench::Import(ctx, &env);
  for (double f : {0.55, 0.7, 0.85, 1.0, 1.15}) {
    const float beta = static_cast<float>(bench::DiprBeta(ctx) * f);
    print_point("DIPR",
                bench::EvalDiprs(ctx, imported.get(), small_window, beta, opts, &env));
  }
  for (size_t k : {25u, 50u, 100u, 200u, 400u}) {
    MethodSpec m = MethodSpec::TopK(k);
    m.window = small_window;
    print_point("Top-k", bench::EvalRunner(ctx, m, opts, &env, imported.get()));
  }
}

}  // namespace
}  // namespace alaya

int main() {
  alaya::bench::Header("Figure 6",
                       "quality vs retrieved tokens: DIPR vs top-k (Passage R., LCC)");
  alaya::RunTask("Passage R.");
  alaya::RunTask("LCC");
  alaya::bench::Rule(78);
  std::printf(
      "expected shape (paper): the DIPR curve dominates top-k — equal or higher\n"
      "quality at fewer retrieved tokens, because k cannot fit all heads at once.\n");
  return 0;
}
