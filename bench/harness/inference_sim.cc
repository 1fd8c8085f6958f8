#include "bench/harness/inference_sim.h"

#include <algorithm>

#include "src/common/timer.h"
#include "src/llm/quality.h"

namespace alaya {

EvalOptions MakeScaledEvalOptions(const ModelConfig& bench_model) {
  const ModelConfig paper = ModelConfig::Llama3_8B();
  EvalOptions opts;
  opts.layer_head_scale =
      (static_cast<double>(paper.num_layers) * paper.num_q_heads) /
      (static_cast<double>(bench_model.num_layers) * bench_model.num_q_heads);
  const double geom = static_cast<double>(paper.KvBytesPerToken()) /
                      static_cast<double>(bench_model.KvBytesPerToken());
  opts.gpu_ctx_scale = geom;
  opts.gpu_fixed_scale = geom;
  return opts;
}

AttentionSource RunnerSource(MethodRunner* runner) {
  return {runner->spec().label, runner->GpuBytes(),
          [runner](uint32_t layer, uint32_t q_head, const float* q, float* out,
                   MethodHeadStats* stats) {
            return runner->AttendHead(layer, q_head, q, out, stats);
          }};
}

AttentionSource SessionSource(Session* session, std::string label) {
  return {std::move(label), session->GpuResidentBytes(),
          [session](uint32_t layer, uint32_t q_head, const float* q, float* out,
                    MethodHeadStats* stats) -> Status {
            AttentionCallStats call;
            WallTimer wall;
            ALAYA_RETURN_IF_ERROR(session->AttendHead(layer, q_head, q, out, &call));
            *stats = MethodHeadStats{};
            stats->cpu_seconds = wall.ElapsedSeconds();
            stats->gpu_fixed_seconds = call.modeled_gpu_seconds;
            // Hits inside the device window are attended there, so count the
            // retrieved tokens outside it, as MethodRunner's rows do.
            stats->retrieved = call.attended_tokens - session->TokensOnGpu();
            stats->attended = call.attended_tokens;
            return Status::Ok();
          }};
}

Result<std::shared_ptr<Context>> ImportContext(const SyntheticContext& context,
                                               SimEnvironment* env) {
  DbOptions options;
  options.model = context.model();
  AlayaDB db(options, env);
  auto training = context.MakeTrainingQueries(std::max<size_t>(
      64, static_cast<size_t>(options.index_build.query_sample_ratio *
                              context.num_tokens() / options.model.GroupSize())));
  auto kv = std::make_unique<KvCache>(options.model);
  ALAYA_RETURN_IF_ERROR(kv->AppendAllFrom(context.kv()));
  ALAYA_ASSIGN_OR_RETURN(uint64_t id,
                         db.Import(context.tokens(), std::move(kv), training.get()));
  // The pin keeps the context alive after the DB that stored it is gone.
  return db.contexts().FindShared(id);
}

SessionOptions DiprsSessionOptions(const WindowConfig& window, float beta) {
  SessionOptions opts;
  opts.window = window;
  opts.gpu_budget_bytes = 0;
  opts.optimizer.short_context_threshold = 0;
  opts.optimizer.dipr.beta = beta;
  opts.optimizer.dipr.l0 = 128;  // The paper benches' initial candidate pool.
  return opts;
}

Result<MethodEval> EvaluateMethod(const SyntheticContext& context,
                                  const AttentionSource& source,
                                  const EvalOptions& options) {
  const ModelConfig& m = context.model();
  const size_t d = m.head_dim;
  const size_t steps =
      options.decode_steps > 0 ? options.decode_steps : context.spec().decode_steps;

  MethodEval eval;
  eval.label = source.label;
  eval.gpu_bytes = source.gpu_bytes;

  MeanAccumulator fid, retr, attend;
  double cpu_total = 0, gpu_ctx_total = 0, gpu_fixed_total = 0;
  std::vector<float> q(d), out(d), oracle(d);

  for (size_t step = 0; step < steps; ++step) {
    for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
      for (uint32_t h = 0; h < m.num_q_heads; ++h) {
        context.MakeDecodeQuery(step, layer, h, q.data());
        MethodHeadStats stats;
        ALAYA_RETURN_IF_ERROR(source.attend(layer, h, q.data(), out.data(), &stats));
        context.OracleOutput(step, layer, h, oracle.data());
        fid.Add(CosineFidelity(out.data(), oracle.data(), d));
        retr.Add(static_cast<double>(stats.retrieved));
        attend.Add(static_cast<double>(stats.attended));
        cpu_total += stats.cpu_seconds;
        gpu_ctx_total += stats.gpu_ctx_seconds;
        gpu_fixed_total += stats.gpu_fixed_seconds;
      }
    }
  }

  eval.fidelity = fid.Mean();
  eval.mean_retrieved = retr.Mean();
  eval.mean_attended = attend.Mean();
  eval.tpot_seconds = (cpu_total * options.cpu_work_scale * options.layer_head_scale /
                           options.server_parallelism +
                       gpu_ctx_total * options.gpu_ctx_scale +
                       gpu_fixed_total * options.gpu_fixed_scale) /
                      static_cast<double>(steps);
  eval.slo_met = eval.tpot_seconds <= options.slo_tpot_seconds;
  return eval;
}

void AnchorScores(std::vector<MethodEval>* evals, double paper_full_score) {
  double full_fidelity = 0;
  for (const auto& e : *evals) {
    if (e.label.rfind("Full", 0) == 0) full_fidelity = e.fidelity;
  }
  if (full_fidelity <= 0) {
    for (const auto& e : *evals) full_fidelity = std::max(full_fidelity, e.fidelity);
  }
  for (auto& e : *evals) {
    e.score = AnchoredScore(e.fidelity, full_fidelity, paper_full_score);
  }
}

}  // namespace alaya
