// Financial document analysis (§8 use case 1): one long report is imported
// once; many analyst questions hit the same context. AlayaDB answers each
// from the shared stored context with sparse attention — no per-question
// prefill, tiny device footprint.
#include <cstdio>
#include <vector>

#include "src/common/timer.h"
#include "src/common/string_util.h"
#include "src/core/alaya_db.h"
#include "src/llm/qkv_generator.h"
#include "src/llm/quality.h"

using namespace alaya;

int main() {
  ModelConfig model{2, 4, 2, 64, 2};
  SyntheticContextOptions ctx_opts;
  ctx_opts.model = model;
  // Summarization-style profile: diffuse criticality across the document.
  ctx_opts.spec = FindTask(InfinityBenchSuite(0.06), "En.Sum");
  SyntheticContext report(ctx_opts);
  if (!report.Generate().ok()) return 1;
  std::printf("financial report: %zu tokens (imported once)\n", report.num_tokens());

  DbOptions options;
  options.model = model;
  options.session.optimizer.short_context_threshold = 512;
  options.session.optimizer.dipr.beta =
      static_cast<float>(SuggestedDiprBeta(ctx_opts.spec, model.head_dim));
  options.session.optimizer.dipr.l0 = 128;
  options.session.window = WindowConfig{32, 128};
  AlayaDB db(options);

  auto kv = std::make_unique<KvCache>(model);
  if (!kv->AppendAllFrom(report.kv()).ok()) return 1;
  auto training = report.MakeTrainingQueries(256);
  WallTimer import_timer;
  if (!db.Import(report.tokens(), std::move(kv), training.get()).ok()) return 1;
  std::printf("import + index build: %s (one-off)\n\n",
              HumanSeconds(import_timer.ElapsedSeconds()).c_str());

  // Several analysts ask different questions about the same report. Each
  // question is a new session that reuses the stored context instantly.
  const size_t qdim = model.num_q_heads * model.head_dim;
  std::vector<float> q(qdim), o(qdim), oracle(model.head_dim);
  for (int analyst = 0; analyst < 3; ++analyst) {
    auto created = db.CreateSession(report.tokens());
    if (!created.ok()) return 1;
    Session& session = *created.value().session;

    WallTimer ttft;
    MeanAccumulator fidelity;
    size_t retrieved = 0;
    // Different analysts probe different planted topics (step offset).
    const size_t step = static_cast<size_t>(analyst);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      report.MakeDecodeQueryLayer(step, layer, q.data());
      AttentionCallStats stats;
      if (!session.Attention(layer, q.data(), o.data(), &stats).ok()) return 1;
      retrieved += stats.retrieved_tokens;
      for (uint32_t h = 0; h < model.num_q_heads; ++h) {
        report.OracleOutput(step, layer, h, oracle.data());
        fidelity.Add(CosineFidelity(o.data() + h * model.head_dim, oracle.data(),
                                    model.head_dim));
      }
    }
    std::printf(
        "analyst %d: first-token latency %s | attention fidelity %.3f | "
        "%zu critical tokens retrieved\n",
        analyst + 1, HumanSeconds(ttft.ElapsedSeconds()).c_str(), fidelity.Mean(),
        retrieved);
  }
  std::printf("\nGPU memory in use: %s (offloaded KV stays in host DRAM: %s)\n",
              HumanBytes(db.env().gpu_memory().current()).c_str(),
              HumanBytes(db.env().host_memory().current()).c_str());
  std::printf("document_qa OK\n");
  return 0;
}
