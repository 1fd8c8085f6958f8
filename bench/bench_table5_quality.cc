// Table 5: generation quality of sparse-attention methods on the 8 ∞-Bench
// tasks, with the TPOT <= 0.24 s SLO check. Scores are anchored so Full
// Attention reproduces the paper's row; other methods scale by measured
// attention fidelity (DESIGN.md §2.2). The DIPRS row is AlayaDB's Session over
// the imported context; the other rows are MethodRunner baselines. The last
// line is one JSON object in servebench's schema: `correct` (the quant gate),
// `metrics` (each row's average and worst TPOT) and `claims` (the expected
// shape, checked).
#include <cstdio>
#include <map>
#include <set>

#include "bench/bench_util.h"
#include "src/index/flat_index.h"
#include "src/index/roargraph.h"
#include "tests/test_util.h"

namespace alaya {
namespace {

/// Quantization quality gate: an int8-coded RoarGraph with fp32 rerank must
/// lose no more than 1% recall@10 against the exact fp32 oracle, relative to
/// the same graph traversed in fp32. Returns false (and the caller exits
/// non-zero) on violation — quantized traversal is only worth shipping if the
/// rerank pass recovers the ordering.
bool RunQuantRecallGate() {
  bench::Header("Quant gate", "int8 + rerank recall vs fp32 RoarGraph");
  constexpr size_t kN = 20000, kDim = 64, kPlanted = 200, kK = 10, kQueries = 64;
  testutil::PlantedMips data(kN, kDim, kPlanted, 23);
  VectorSet training = testutil::MakeTrainingQueries(data, 2000, 24);
  VectorSet probes = testutil::MakeTrainingQueries(data, kQueries, 25);

  RoarGraphOptions fp32_opts;
  RoarGraphOptions int8_opts;
  int8_opts.codec = VectorCodec::kInt8;
  int8_opts.rerank_k = 32;

  RoarGraph fp32_graph(data.keys.View(), fp32_opts);
  RoarGraph int8_graph(data.keys.View(), int8_opts);
  if (!fp32_graph.BuildFromQueries(training.View()).ok()) std::abort();
  if (!int8_graph.BuildFromQueries(training.View()).ok()) std::abort();
  FlatIndex oracle(data.keys.View());

  const TopKParams params{kK, 64};
  double recall_fp32 = 0, recall_int8 = 0;
  for (uint32_t qi = 0; qi < kQueries; ++qi) {
    const float* q = probes.View().Vec(qi);
    SearchResult exact, got32, got8;
    if (!oracle.SearchTopK(q, params, &exact).ok()) std::abort();
    if (!fp32_graph.SearchTopK(q, params, &got32).ok()) std::abort();
    if (!int8_graph.SearchTopK(q, params, &got8).ok()) std::abort();
    std::set<uint32_t> truth;
    for (const auto& h : exact.hits) truth.insert(h.id);
    size_t hit32 = 0, hit8 = 0;
    for (const auto& h : got32.hits) hit32 += truth.count(h.id);
    for (const auto& h : got8.hits) hit8 += truth.count(h.id);
    recall_fp32 += static_cast<double>(hit32) / truth.size();
    recall_int8 += static_cast<double>(hit8) / truth.size();
  }
  recall_fp32 /= kQueries;
  recall_int8 /= kQueries;
  const double loss = recall_fp32 - recall_int8;
  const bool pass = loss <= 0.01;
  std::printf(
      "recall@%zu over %zu queries: fp32 graph %.4f, int8+rerank graph %.4f\n"
      "recall loss %.4f (gate <= 0.0100): %s\n\n",
      kK, kQueries, recall_fp32, recall_int8, loss, pass ? "PASS" : "FAIL");
  return pass;
}

void Run(bool quant_ok) {
  bench::Header("Table 5", "quality on ∞-Bench tasks (anchored) + SLO check");
  auto suite = InfinityBenchSuite(bench::kContextScale);
  SimEnvironment env;

  std::vector<std::string> method_names;
  std::map<std::string, std::vector<double>> scores;
  std::map<std::string, bool> slo_violated;
  std::map<std::string, double> worst_tpot;

  std::printf("%-16s", "method");
  for (const auto& spec : suite) std::printf("%9s", spec.name.c_str());
  std::printf("%9s\n", "Avg.");

  for (const auto& task : suite) {
    WorkloadSpec spec = task;
    spec.decode_steps = 5;
    SyntheticContext ctx = bench::MakeContext(spec);
    const EvalOptions opts = bench::ScaledEval(ctx.model(), spec.decode_steps);
    const std::shared_ptr<Context> imported = bench::Import(ctx, &env);
    std::vector<MethodEval> evals;
    for (const auto& m : bench::Table5Baselines()) {
      evals.push_back(bench::EvalRunner(ctx, m, opts, &env, imported.get()));
    }
    evals.push_back(bench::EvalDiprs(ctx, imported.get(), bench::FineWindow(),
                                     bench::DiprBeta(ctx), opts, &env));
    AnchorScores(&evals, spec.paper_full_score);
    for (const auto& e : evals) {
      if (scores.find(e.label) == scores.end()) method_names.push_back(e.label);
      scores[e.label].push_back(e.score);
      slo_violated[e.label] |= !e.slo_met;
      worst_tpot[e.label] = std::max(worst_tpot[e.label], e.tpot_seconds);
    }
  }

  std::map<std::string, double> avg;
  for (const auto& name : method_names) {
    std::printf("%-16s", name.c_str());
    double sum = 0;
    for (double s : scores[name]) {
      std::printf("%9.1f", s);
      sum += s;
    }
    avg[name] = sum / scores[name].size();
    std::printf("%9.1f\n", avg[name]);
  }
  bench::Rule(78);
  std::printf("SLO (TPOT <= 0.24 s at Llama-3-8B-equivalent scale):\n");
  for (const auto& name : method_names) {
    std::printf("  %-16s %s (worst TPOT %s)\n", name.c_str(),
                slo_violated[name] ? "VIOLATED" : "MET    ",
                HumanSeconds(worst_tpot[name]).c_str());
  }
  std::printf(
      "\nexpected shape (paper Table 5): DIPRS best average while meeting SLO;\n"
      "Top2000 comparable quality but SLO-violating; Top100 slightly behind\n"
      "DIPRS; StreamingLLM collapses on retrieval tasks; Full Attention\n"
      "violates the SLO on long contexts.\n");

  // The expected shape as named checks, none with a tuned threshold. TPOT
  // scales measured host seconds (ScaledEval), so the SLO claims move with
  // the host's speed: on a fast host Top2000's 2000-token CPU attention stays
  // under 0.24 s and top2000_violates_slo fails. That is a host-speed
  // artefact, not a reproduction bug.
  bool diprs_best = true;
  for (const auto& name : method_names) {
    if (name != "DIPRS" && name != "Full Attention") diprs_best &= avg["DIPRS"] >= avg[name];
  }
  bool streaming_collapses = true;
  for (size_t t = 0; t < suite.size(); ++t) {
    if (suite[t].name.rfind("Retr.", 0) != 0) continue;
    for (const auto& name : method_names) {
      if (name != "StreamingLLM") {
        streaming_collapses &= scores["StreamingLLM"][t] < scores[name][t];
      }
    }
  }
  const std::pair<const char*, bool> claims[] = {
      {"diprs_best_sparse_avg", diprs_best},
      {"diprs_meets_slo", !slo_violated["DIPRS"]},
      {"top2000_violates_slo", slo_violated["Top2000"]},
      {"top100_trails_diprs", avg["Top100"] < avg["DIPRS"]},
      {"streamingllm_collapses_on_retr", streaming_collapses},
      {"full_attention_violates_slo", slo_violated["Full Attention"]},
  };
  std::printf("{\"correct\": %s, \"metrics\": {", quant_ok ? "true" : "false");
  const char* sep = "";
  for (const auto& name : method_names) {
    std::printf("%s\"%s.avg_score\": {\"value\": %.17g, \"unit\": \"score\"}, "
                "\"%s.worst_tpot_s\": {\"value\": %.17g, \"unit\": \"s\"}",
                sep, name.c_str(), avg[name], name.c_str(), worst_tpot[name]);
    sep = ", ";
  }
  std::printf("}, \"claims\": [");
  sep = "";
  for (const auto& [name, holds] : claims) {
    std::printf("%s{\"name\": \"%s\", \"holds\": %s}", sep, name,
                holds ? "true" : "false");
    sep = ", ";
  }
  std::printf("]}\n");
}

}  // namespace
}  // namespace alaya

int main() {
  const bool quant_ok = alaya::RunQuantRecallGate();
  alaya::Run(quant_ok);
  return quant_ok ? 0 : 1;
}
