// Ablations of the §7 optimizations called out in DESIGN.md:
//   (a) window-caching enhanced DIPRS: explored candidates with vs without
//       the window prior;
//   (b) data-centric attention vs gather-then-compute: modeled device time;
//   (c) type-aware buffer manager vs plain LRU: hit rate under a graph-search
//       style access pattern.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/index/roargraph.h"
#include "src/query/diprs.h"
#include "src/storage/buffer_manager.h"

namespace alaya {
namespace {

void WindowHintAblation() {
  std::printf("\n(a) window-caching enhanced DIPRS (Section 7.1)\n");
  ModelConfig model{1, 2, 1, 64, 2};
  WorkloadSpec spec = FindTask(InfinityBenchSuite(1.0), "En.QA");
  spec.context_tokens = 12000;
  SyntheticContext ctx = bench::MakeContext(spec, model);
  RoarGraph graph(ctx.kv().Keys(0, 0), RoarGraphOptions{});
  auto training = ctx.MakeTrainingQueries(2400);
  if (!graph.BuildFromQueries(training->View(0, 0)).ok()) std::abort();

  DiprParams params;
  params.beta = static_cast<float>(SuggestedDiprBeta(spec, model.head_dim));
  // Small exploration floor so the pruning threshold (not the l0 floor)
  // governs list growth — the quantity the window prior improves.
  params.l0 = 16;
  WindowCache window(WindowConfig{32, 32});

  double appended_plain = 0, appended_hinted = 0, comps_plain = 0, comps_hinted = 0;
  std::vector<float> q(model.head_dim);
  const size_t steps = 8;
  Rng entry_rng(3);
  for (size_t step = 0; step < steps; ++step) {
    ctx.MakeDecodeQuery(step, 0, 0, q.data());
    // Entry far from the query's maximum (a different topic's member): the
    // max-norm entry is already near the sink, which would hide the hint's
    // benefit. Background leaves have no out-edges, so pick a planted token.
    const auto& other_topic = ctx.TopicMembers(0, 0, (step + 3) % 8);
    const uint32_t entry =
        other_topic[entry_rng.UniformInt(other_topic.size())];
    SearchResult plain =
        DiprsSearch(graph.graph(), graph.vectors(), entry, q.data(), params);
    DiprsHints hints;
    hints.prior_best_ip =
        window.MaxWindowInnerProduct(q.data(), ctx.kv().Keys(0, 0), ctx.num_tokens());
    SearchResult hinted =
        DiprsSearch(graph.graph(), graph.vectors(), entry, q.data(), params, IdFilter{},
                    hints);
    appended_plain += plain.stats.appended;
    appended_hinted += hinted.stats.appended;
    comps_plain += plain.stats.dist_comps;
    comps_hinted += hinted.stats.dist_comps;
  }
  std::printf("  appended/query:   plain=%.1f  window-hinted=%.1f  (%.1f%% saved)\n",
              appended_plain / steps, appended_hinted / steps,
              100.0 * (1.0 - appended_hinted / appended_plain));
  std::printf("  dist comps/query: plain=%.1f  window-hinted=%.1f\n",
              comps_plain / steps, comps_hinted / steps);
  std::printf(
      "  note: on this planted geometry the search reaches the global maximum\n"
      "  within the first hops (the connectivity hub sits near the sink), so\n"
      "  the prior's savings are small; the pruning mechanism itself is\n"
      "  verified in diprs_test (WindowHintPrunesExploration, MaxExplored).\n");
}

void DataCentricAblation() {
  std::printf("\n(b) data-centric attention vs gather-then-compute (Section 7.2)\n");
  const CostModel cost;
  const ModelConfig paper = ModelConfig::Llama3_8B();
  std::printf("  %-12s %18s %18s %10s\n", "retrieved", "data-centric", "gather",
              "ratio");
  for (size_t retrieved : {100u, 500u, 2000u, 8000u}) {
    // Data-centric: only the (d+2)-float partial result crosses PCIe per head.
    const double dc = cost.TransferSeconds((paper.head_dim + 2) * sizeof(float)) *
                      paper.num_q_heads * paper.num_layers;
    // Gather: retrieved K+V cross PCIe, then a device kernel runs.
    const uint64_t bytes = static_cast<uint64_t>(retrieved) * 2 * paper.head_dim *
                           paper.bytes_per_scalar;
    const double gather =
        (cost.TransferSeconds(bytes) +
         cost.GpuAttentionSeconds(4.0 * retrieved * paper.head_dim)) *
        paper.num_q_heads * paper.num_layers;
    std::printf("  %-12zu %18s %18s %9.1fx\n", retrieved, HumanSeconds(dc).c_str(),
                HumanSeconds(gather).c_str(), gather / dc);
  }
}

void BufferAblation() {
  std::printf("\n(c) type-aware buffer manager vs plain LRU (Section 7.3)\n");
  auto run = [&](bool type_aware) {
    BufferManager::Options o;
    o.block_size = 4096;
    o.capacity_bytes = 64 * 4096;
    o.type_aware = type_aware;
    BufferManager bm(o);
    Rng rng(7);
    // Graph-search pattern: index blocks (few, hot) consulted on every hop;
    // data blocks (many) touched once each.
    const uint64_t kIndexBlocks = 32, kDataBlocks = 4096;
    auto loader = [](uint8_t* dst) {
      std::memset(dst, 0, 4096);
      return Status::Ok();
    };
    for (int hop = 0; hop < 20000; ++hop) {
      const uint64_t ib = rng.UniformInt(kIndexBlocks);
      if (!bm.Fetch(1, ib, BlockType::kIndex, loader).ok()) std::abort();
      const uint64_t db = kIndexBlocks + rng.UniformInt(kDataBlocks);
      if (!bm.Fetch(1, db, BlockType::kData, loader).ok()) std::abort();
    }
    return bm.stats();
  };
  const BufferStats aware = run(true);
  const BufferStats plain = run(false);
  std::printf("  type-aware: hit rate %.3f (%llu evictions)\n", aware.HitRate(),
              static_cast<unsigned long long>(aware.evictions));
  std::printf("  plain LRU:  hit rate %.3f (%llu evictions)\n", plain.HitRate(),
              static_cast<unsigned long long>(plain.evictions));
}

}  // namespace
}  // namespace alaya

int main() {
  alaya::bench::Header("Ablations", "window-hint / data-centric / buffer policy");
  alaya::WindowHintAblation();
  alaya::DataCentricAblation();
  alaya::BufferAblation();
  return 0;
}
