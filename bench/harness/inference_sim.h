// Decode-loop evaluation harness: runs one attention source over a synthetic
// context and reports quality, TPOT, and device memory — the measurement
// pipeline behind Tables 1 and 5 and Figs. 6, 9 and 10.
//
// A source is a per-head attend call. The baselines come from MethodRunner
// (RunnerSource); AlayaDB's DIPRS rows come from a Session over the imported
// context (SessionSource), the attention path that serves, with the plan the
// optimizer picks from the session's options.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness/method_runner.h"
#include "src/core/alaya_db.h"
#include "src/llm/qkv_generator.h"

namespace alaya {

struct EvalOptions {
  /// Decode steps (0 -> spec.decode_steps).
  size_t decode_steps = 0;
  /// TPOT SLO: 0.24 s (human reading speed, §9.1).
  double slo_tpot_seconds = 0.24;

  // TPOT scaling to full-model equivalents (DESIGN.md §2.3): bench geometry is
  // smaller than Llama-3-8B, so host work scales by the layer*head ratio
  // (divided by server parallelism — searches run concurrently across heads).
  // Modeled device work scales by the KV-bytes ratio; the context-linear part
  // (full-attention streaming) additionally scales by 1/context_scale, while
  // window/cache work is context-independent.
  double layer_head_scale = 1.0;
  double server_parallelism = 24.0;
  /// Extra host-work scale: head_dim ratio (dot products are linear in d) and
  /// graph search depth ratio (log of context ratio). Set by bench_util.
  double cpu_work_scale = 1.0;
  double gpu_ctx_scale = 1.0;
  double gpu_fixed_scale = 1.0;
};

/// Scaling options mapping a bench geometry to Llama-3-8B equivalents.
EvalOptions MakeScaledEvalOptions(const ModelConfig& bench_model);

/// Attends one (layer, q_head): q/out are head_dim floats; `stats` is
/// overwritten.
using HeadAttendFn = std::function<Status(uint32_t layer, uint32_t q_head,
                                          const float* q, float* out,
                                          MethodHeadStats* stats)>;

/// One row of a table: its label, its device-resident bytes and its attend
/// call.
struct AttentionSource {
  std::string label;
  uint64_t gpu_bytes = 0;
  HeadAttendFn attend;
};

/// A MethodRunner baseline; the runner must be Prepare()d on the evaluated
/// context and outlive the source.
AttentionSource RunnerSource(MethodRunner* runner);

/// An AlayaDB row: Session::AttendHead per head. Host seconds are the timed
/// call, modeled device seconds its modeled_gpu_seconds (window attention and
/// the partial-result transfer, none of it linear in the context), device
/// bytes Session::GpuResidentBytes(), and `retrieved` the attended tokens
/// outside the device window. `session` must outlive the source.
AttentionSource SessionSource(Session* session, std::string label);

/// Imports `context` (its tokens, KV and synthetic prefill queries, 40% of
/// the keys per KV head, for RoarGraph training) with AlayaDB::Import and
/// returns the stored context. One import serves any number of Sessions and
/// the Top-k baselines.
Result<std::shared_ptr<Context>> ImportContext(const SyntheticContext& context,
                                               SimEnvironment* env);

/// Session options under which the optimizer plans DIPR at every layer of a
/// long reused context: no device budget (the coarse plan never fits) and no
/// short-context threshold. Layer 0 scans flat, deeper layers walk the graph.
SessionOptions DiprsSessionOptions(const WindowConfig& window, float beta);

struct MethodEval {
  std::string label;
  double fidelity = 0;    ///< Mean cosine to the oracle output.
  double score = 0;       ///< Anchored task score (fill via AnchorScores).
  double tpot_seconds = 0;
  uint64_t gpu_bytes = 0;
  double mean_retrieved = 0;
  double mean_attended = 0;
  bool slo_met = true;
};

/// Runs the decode loop over every (step, layer, q_head) of `context`.
Result<MethodEval> EvaluateMethod(const SyntheticContext& context,
                                  const AttentionSource& source,
                                  const EvalOptions& options);

/// Converts fidelities to anchored task scores in place. `evals` must contain
/// a row whose label starts with "Full" to anchor against; if absent, the max
/// fidelity anchors.
void AnchorScores(std::vector<MethodEval>* evals, double paper_full_score);

}  // namespace alaya
