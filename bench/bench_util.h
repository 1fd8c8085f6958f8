// Shared helpers for the table/figure reproduction benches.
//
// Scaling (EXPERIMENTS.md): benches run a reduced geometry (fewer layers and
// heads, d=64, contexts scaled down from the paper's 44K-192K averages) so CPU
// full-attention references stay feasible. Reported latencies are scaled to
// Llama-3-8B equivalents via MakeScaledEvalOptions; modeled device costs for
// the TTFT/prefill paths use the paper's geometry and token counts directly.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness/inference_sim.h"
#include "src/common/string_util.h"
#include "src/llm/qkv_generator.h"
#include "src/llm/workloads.h"

namespace alaya {
namespace bench {

/// Default bench geometry: 2 layers, 4 query heads, 2 KV heads (GQA 2:1),
/// head dim 64.
inline ModelConfig BenchModel() { return ModelConfig{2, 4, 2, 64, 2}; }

/// Context scale relative to the paper's ∞-Bench averages.
inline constexpr double kContextScale = 1.0 / 16.0;

/// Builds and generates a synthetic context for a task.
inline SyntheticContext MakeContext(const WorkloadSpec& spec,
                                    ModelConfig model = BenchModel(),
                                    uint32_t num_topics = 8) {
  SyntheticContextOptions opts;
  opts.model = model;
  opts.spec = spec;
  opts.num_topics = num_topics;
  SyntheticContext ctx(opts);
  Status st = ctx.Generate();
  if (!st.ok()) {
    std::fprintf(stderr, "context generation failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return ctx;
}

/// Eval options with latencies scaled to Llama-3-8B equivalents, including the
/// context-length scale (decode attention and KV bytes are linear in n).
inline EvalOptions ScaledEval(const ModelConfig& model, size_t steps,
                              double context_scale = kContextScale) {
  EvalOptions opts = MakeScaledEvalOptions(model);
  opts.decode_steps = steps;
  // Context-linear device work (full-attention streaming) additionally scales
  // by the context reduction; window/cache work does not.
  opts.gpu_ctx_scale /= context_scale;
  // Host work: dot products scale with head_dim; graph searches walk deeper on
  // the full-size context (log of the token ratio, ~1.3 at 1/16 scale).
  const double dim_ratio = 128.0 / model.head_dim;
  const double depth_ratio =
      std::log(140000.0) / std::log(140000.0 * context_scale);
  opts.cpu_work_scale = dim_ratio * depth_ratio;
  return opts;
}

/// Scales a paper window/cache budget (a fraction of the context) by
/// kContextScale.
inline uint32_t ScaledTokens(size_t tokens) {
  return static_cast<uint32_t>(std::max<size_t>(8, tokens * kContextScale));
}

/// Table 5's [128+512] window of the fine-grained rows (Top-k and DIPRS).
inline WindowConfig FineWindow() { return {ScaledTokens(128), ScaledTokens(512)}; }

/// The Table 5 baseline roster (MethodRunner rows; the DIPRS row is a
/// Session, EvalDiprs).
inline std::vector<MethodSpec> Table5Baselines() {
  // Paper settings, with window/cache budgets (fractions of the context)
  // scaled by kContextScale: InfLLM [128+4K]+4K, StreamingLLM [128]+8K,
  // Top-k and DIPRS [128+512]+retrieved. Retrieval budgets k and beta stay
  // absolute: the planted critical-set sizes are paper-absolute too.
  // InfLLM's 4K *retrieval* budget is absolute (like k); its local window is
  // a context fraction and scales.
  MethodSpec infllm = MethodSpec::InfLlm(4096, ScaledTokens(4096));
  infllm.infllm_block = 32;
  MethodSpec streaming = MethodSpec::Streaming(ScaledTokens(8192));
  infllm.window.initial_tokens = streaming.window.initial_tokens = ScaledTokens(128);
  MethodSpec top100 = MethodSpec::TopK(100), top2000 = MethodSpec::TopK(2000);
  top100.window = top2000.window = FineWindow();
  return {MethodSpec::Full(), infllm, streaming, top100, top2000};
}

/// Evaluates a MethodRunner baseline over `ctx` (Top-k needs `imported`).
inline MethodEval EvalRunner(const SyntheticContext& ctx, const MethodSpec& spec,
                             const EvalOptions& opts, SimEnvironment* env,
                             const Context* imported = nullptr) {
  MethodRunner runner(ctx.model(), spec);
  if (!runner.Prepare(ctx, env, imported).ok()) std::abort();
  auto eval = EvaluateMethod(ctx, RunnerSource(&runner), opts);
  if (!eval.ok()) std::abort();
  return eval.TakeValue();
}

/// ImportContext for the DIPRS and Top-k rows.
inline std::shared_ptr<Context> Import(const SyntheticContext& ctx, SimEnvironment* env) {
  auto imported = ImportContext(ctx, env);
  if (!imported.ok()) std::abort();
  return imported.TakeValue();
}

/// Evaluates AlayaDB's DIPRS row: a Session over all of `imported` (Import
/// of `ctx`), planned by the optimizer under DiprsSessionOptions.
inline MethodEval EvalDiprs(const SyntheticContext& ctx, Context* imported,
                            const WindowConfig& window, float beta,
                            const EvalOptions& opts, SimEnvironment* env) {
  Session session(ctx.model(), DiprsSessionOptions(window, beta), imported,
                  imported->length(), env);
  auto eval = EvaluateMethod(ctx, SessionSource(&session, "DIPRS"), opts);
  if (!eval.ok()) std::abort();
  return eval.TakeValue();
}

/// The DIPR beta a task's planted critical band calls for (SuggestedDiprBeta).
inline float DiprBeta(const SyntheticContext& ctx) {
  return static_cast<float>(SuggestedDiprBeta(ctx.spec(), ctx.model().head_dim));
}

/// Prints a horizontal rule sized to `width`.
inline void Rule(size_t width) {
  std::string line(width, '-');
  std::printf("%s\n", line.c_str());
}

/// Prints a bench header with provenance.
inline void Header(const std::string& id, const std::string& what) {
  Rule(78);
  std::printf("%s  |  %s\n", id.c_str(), what.c_str());
  Rule(78);
}

}  // namespace bench
}  // namespace alaya
