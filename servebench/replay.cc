#include "servebench/replay.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "servebench/stats.h"
#include "src/common/rng.h"
#include "src/common/vector_codec.h"
#include "src/core/session.h"

namespace servebench {

using namespace alaya;

namespace {

constexpr size_t kProbes = 8;       ///< (document, query offset) pairs.
constexpr size_t kReplaySteps = 8;  ///< Session steps per probe.
constexpr size_t kKernelRows = 4096;
constexpr size_t kKernelReps = 16;
constexpr size_t kPrefillTokens = 512;
constexpr size_t kExtendTokens = 16;
/// Least accepted share of DIPRS time that dist_comps x dot_ns explains.
constexpr double kMinKernelShare = 0.03;

/// Kernel results land here so the timed loops cannot be optimized away.
volatile float g_sink = 0;

double SpanMeanSeconds(const std::map<std::string, Tracer::NameTimes>& s,
                       const char* name) {
  auto it = s.find(name);
  if (it == s.end() || it->second.count == 0) return 0;
  return it->second.total_s / static_cast<double>(it->second.count);
}

}  // namespace

ReplayResult RunLayerReplay(const Workload& w, const std::vector<Doc>& docs,
                            const std::vector<uint64_t>& context_ids, AlayaDB* db,
                            ThreadPool* pool, uint64_t seed,
                            const std::string& scratch_dir, Tracer* tracer) {
  ReplayResult out;
  const ModelConfig model = db->options().model;
  const size_t d = model.head_dim;
  const uint32_t L = model.num_layers;
  const uint32_t H = model.num_q_heads;
  const size_t qdim = static_cast<size_t>(H) * d;
  const size_t kvdim = static_cast<size_t>(model.num_kv_heads) * d;
  const DiprParams dipr = db->options().session.optimizer.dipr;
  const KernelOps& kernels = Kernels();
  Rng rng(Mix64(seed ^ 0x4e91a7));

  struct Probe {
    size_t doc;
    size_t offset;
    std::shared_ptr<Context> ctx;
  };
  std::vector<Probe> probes;
  for (size_t p = 0; p < kProbes; ++p) {
    const size_t doc = p % docs.size();
    std::shared_ptr<Context> ctx = db->contexts().FindShared(context_ids[doc]);
    if (ctx == nullptr) {
      out.error = "replay: cannot pin context of document " + std::to_string(doc);
      return out;
    }
    probes.push_back(Probe{doc, static_cast<size_t>(rng.UniformInt(1u << 20)), ctx});
  }

  // --- Kernel layer: Kernels().dot / matvec over the workload's key rows.
  float sink = 0;
  std::vector<double> dot_ns, matvec_ns;
  std::vector<float> q(qdim), scores(kKernelRows);
  for (const Probe& p : probes) {
    const VectorSetView keys = p.ctx->kv().Keys(L - 1, 0);
    const size_t rows = std::min(keys.n, kKernelRows);
    docs[p.doc].ctx->MakeDecodeQuery(p.offset, L - 1, 0, q.data());
    {
      const int64_t t0 = NowNs();
      ScopedSpan span(tracer, "kernel.dot");
      for (size_t r = 0; r < kKernelReps; ++r) {
        for (size_t i = 0; i < rows; ++i) {
          sink += kernels.dot(q.data(), keys.Vec(static_cast<uint32_t>(i)), d);
        }
      }
      dot_ns.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(kKernelReps * rows));
    }
    {
      const int64_t t0 = NowNs();
      ScopedSpan span(tracer, "kernel.matvec");
      for (size_t r = 0; r < kKernelReps; ++r) {
        kernels.matvec(keys.data, rows, d, q.data(), scores.data());
        sink += scores[r % rows];
      }
      matvec_ns.push_back(static_cast<double>(NowNs() - t0) /
                          static_cast<double>(kKernelReps * rows));
    }
  }
  g_sink = sink;
  out.metrics["common.dot_ns"] = Median(dot_ns);
  out.metrics["common.matvec_ns_per_row"] = Median(matvec_ns);

  // --- Index layer: SearchDipr per (layer, head) on the fine-index layers.
  // Layer 0 scans a flat index instead (the optimizer's Fig. 8 rule), so the
  // graph search is replayed on layers >= 1.
  double diprs_s = 0, dist_comps = 0, hops = 0, found = 0, critical = 0;
  size_t searches = 0;
  for (const Probe& p : probes) {
    for (uint32_t layer = 1; layer < L; ++layer) {
      for (uint32_t h = 0; h < H; ++h) {
        const RoarGraph* index = p.ctx->FineIndex(layer, h);
        if (index == nullptr) {
          out.error = "replay: context has no fine index";
          return out;
        }
        docs[p.doc].ctx->MakeDecodeQuery(p.offset, layer, h, q.data());
        SearchResult res;
        const int64_t t0 = NowNs();
        Status s;
        {
          ScopedSpan span(tracer, "diprs");
          s = index->SearchDipr(q.data(), dipr, &res);
        }
        diprs_s += static_cast<double>(NowNs() - t0) * 1e-9;
        if (!s.ok()) {
          out.error = "replay: SearchDipr: " + s.ToString();
          return out;
        }
        ++searches;
        dist_comps += static_cast<double>(res.stats.dist_comps);
        hops += static_cast<double>(res.stats.hops);
        std::unordered_set<uint32_t> hit;
        for (const ScoredId& sid : res.hits) hit.insert(sid.id);
        for (uint32_t id : docs[p.doc].ctx->CriticalSet(p.offset, layer, h)) {
          if (id >= p.ctx->length()) continue;  // Not in the indexed prefix.
          critical += 1;
          found += hit.count(id);
        }
      }
    }
  }
  const double n_search = static_cast<double>(std::max<size_t>(searches, 1));
  out.metrics["index.diprs_us"] = diprs_s / n_search * 1e6;
  out.metrics["index.dist_comps"] = dist_comps / n_search;
  out.metrics["index.hops"] = hops / n_search;
  out.metrics["index.critical_recall"] = critical > 0 ? found / critical : 0;
  // The dot kernel is only part of a search (graph walk, heaps and visited
  // sets are the rest), so this level checks a share, not a sum: on the
  // reference machine it read 0.10-0.17 over 8 traced runs of both
  // workloads. Below kMinKernelShare the two layers no longer describe the
  // same work; above 1 the kernel would take longer than the search.
  out.reconciliations.push_back(Reconciliation{
      "diprs", "dist_comps x common.dot_ns", diprs_s,
      dist_comps * out.metrics["common.dot_ns"] * 1e-9, kMinKernelShare, 1.0});

  // --- Attention / core layers: a serial session step over all layers and
  // heads. Inputs are generated before any span opens, so the spans hold only
  // library calls.
  std::vector<float> qs(kReplaySteps * L * qdim), ks(kReplaySteps * L * kvdim),
      vs(kReplaySteps * L * kvdim), head_out(qdim);
  double search_s = 0, attn_s = 0, attended = 0, head_calls = 0;
  for (size_t pi = 0; pi < probes.size(); ++pi) {
    const Probe& p = probes[pi];
    const SyntheticContext& doc = *docs[p.doc].ctx;
    for (size_t s = 0; s < kReplaySteps; ++s) {
      for (uint32_t layer = 0; layer < L; ++layer) {
        const size_t slot = s * L + layer;
        FillDecode(doc, p.offset, s, layer, qs.data() + slot * qdim,
                   ks.data() + slot * kvdim, vs.data() + slot * kvdim);
      }
    }
    std::vector<int32_t> prompt(p.ctx->tokens().begin(), p.ctx->tokens().end());
    auto created = db->CreateSession(prompt);
    if (!created.ok()) {
      out.error = "replay: CreateSession: " + created.status().ToString();
      return out;
    }
    Session& session = *created.value().session;
    for (size_t s = 0; s < kReplaySteps; ++s) {
      ScopedSpan step_span(tracer, "session_step", Tracer::kNoSpan, pi);
      for (uint32_t layer = 0; layer < L; ++layer) {
        ScopedSpan layer_span(tracer, "layer", step_span.id(), pi);
        const size_t slot = s * L + layer;
        const float* ql = qs.data() + slot * qdim;
        Status st;
        {
          ScopedSpan span(tracer, "update", layer_span.id(), pi);
          st = session.Update(layer, ql, ks.data() + slot * kvdim,
                              vs.data() + slot * kvdim);
        }
        for (uint32_t h = 0; h < H && st.ok(); ++h) {
          AttentionCallStats stats;
          {
            ScopedSpan span(tracer, "attend_head", layer_span.id(), pi);
            st = session.AttendHead(layer, h, ql + h * d, head_out.data(), &stats);
          }
          search_s += stats.search_seconds;
          attn_s += stats.attention_seconds;
          attended += static_cast<double>(stats.attended_tokens);
          head_calls += 1;
        }
        if (!st.ok()) {
          out.error = "replay: session step: " + st.ToString();
          return out;
        }
      }
    }
  }
  out.metrics["attention.search_share"] =
      search_s + attn_s > 0 ? search_s / (search_s + attn_s) : 0;
  out.metrics["attention.attended_tokens"] = attended / std::max(head_calls, 1.0);

  // --- Prefill: Session::UpdateBatch in prefill_chunk_tokens chunks over a
  // session reusing the first half of a document's context.
  {
    const Probe& p = probes[0];
    const SyntheticContext& doc = *docs[p.doc].ctx;
    const size_t prefix = p.ctx->length() / 2;
    const size_t count = std::min(kPrefillTokens, p.ctx->length() - prefix);
    std::vector<float> pq(count * L * qdim), pk(count * L * kvdim), pv(count * L * kvdim);
    for (uint32_t layer = 0; layer < L; ++layer) {
      for (size_t t = 0; t < count; ++t) {
        const size_t slot = layer * count + t;
        FillPrompt(doc, prefix + t, layer, pq.data() + slot * qdim,
                   pk.data() + slot * kvdim, pv.data() + slot * kvdim);
      }
    }
    Session session(model, db->options().session, p.ctx.get(), prefix, &db->env());
    const size_t chunk = w.prefill_chunk_tokens;
    const int64_t t0 = NowNs();
    for (size_t first = 0; first < count; first += chunk) {
      const size_t n = std::min(chunk, count - first);
      ScopedSpan span(tracer, "prefill_chunk");
      for (uint32_t layer = 0; layer < L; ++layer) {
        const size_t slot = layer * count + first;
        Status st = session.UpdateBatch(layer, n, pq.data() + slot * qdim,
                                        pk.data() + slot * kvdim, pv.data() + slot * kvdim);
        if (!st.ok()) {
          out.error = "replay: UpdateBatch: " + st.ToString();
          return out;
        }
      }
    }
    out.metrics["query.prefill_us_per_tok"] =
        static_cast<double>(NowNs() - t0) * 1e-3 / static_cast<double>(count);
  }

  // --- Session creation and prefix lookup over resident contexts.
  {
    double create_s = 0, match_s = 0;
    for (const Probe& p : probes) {
      std::vector<int32_t> prompt(p.ctx->tokens().begin(), p.ctx->tokens().end());
      int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "create_session");
        auto created = db->CreateSession(prompt);
        if (!created.ok()) {
          out.error = "replay: CreateSession: " + created.status().ToString();
          return out;
        }
      }
      create_s += static_cast<double>(NowNs() - t0) * 1e-9;
      t0 = NowNs();
      {
        ScopedSpan span(tracer, "prefix_match");
        auto match = db->contexts().BestPrefixMatch(prompt);
        if (match.matched != prompt.size()) {
          out.error = "replay: BestPrefixMatch missed a stored document";
          return out;
        }
      }
      match_s += static_cast<double>(NowNs() - t0) * 1e-9;
    }
    out.metrics["core.create_session_us"] = create_s / kProbes * 1e6;
    out.metrics["core.prefix_match_us"] = match_s / kProbes * 1e6;
  }

  // --- Index extension: a synchronous Store of a session that decoded
  // kExtendTokens past a fully reused document.
  {
    double extend_s = 0, ktok = 0;
    for (size_t pi = 0; pi < 2; ++pi) {
      const Probe& p = probes[pi];
      std::vector<int32_t> prompt(p.ctx->tokens().begin(), p.ctx->tokens().end());
      auto created = db->CreateSession(prompt);
      if (!created.ok()) {
        out.error = "replay: CreateSession: " + created.status().ToString();
        return out;
      }
      Session& session = *created.value().session;
      std::vector<int32_t> new_tokens;
      for (size_t s = 0; s < kExtendTokens; ++s) {
        for (uint32_t layer = 0; layer < L; ++layer) {
          FillDecode(*docs[p.doc].ctx, p.offset, s, layer, qs.data(), ks.data(),
                     vs.data());
          if (Status st = session.Update(layer, qs.data(), ks.data(), vs.data());
              !st.ok()) {
            out.error = "replay: Update: " + st.ToString();
            return out;
          }
        }
        new_tokens.push_back(SyntheticStoredTokenId((1ull << 40) + pi, s));
      }
      const int64_t t0 = NowNs();
      Result<uint64_t> stored = [&] {
        ScopedSpan span(tracer, "store_extend");
        return db->Store(&session, new_tokens);
      }();
      extend_s += static_cast<double>(NowNs() - t0) * 1e-9;
      ktok += static_cast<double>(prompt.size() + kExtendTokens) / 1000.0;
      if (!stored.ok()) {
        out.error = "replay: Store: " + stored.status().ToString();
        return out;
      }
      db->contexts().Remove(stored.value());
    }
    out.metrics["index.extend_s_per_ktok"] = extend_s / ktok;
  }

  // --- Tier layer: spill and page-in on a throwaway tier store holding the
  // workload's two shortest documents (set up outside any span).
  {
    std::vector<size_t> order(docs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return docs[a].import_tokens < docs[b].import_tokens;
    });
    order.resize(std::min<size_t>(2, order.size()));
    DbOptions opts = MakeDbOptions(pool);
    opts.tier.spill_dir = scratch_dir;  // No host budget: every spill is explicit.
    SimEnvironment env;
    double spill_s = 0, page_in_s = 0, spills = 0, page_ins = 0;
    {
      AlayaDB scratch(opts, &env);
      std::vector<uint64_t> ids;
      for (size_t i : order) {
        const Doc& doc = docs[i];
        auto kv = std::make_unique<KvCache>(model);
        (void)kv->AppendPrefixFrom(doc.ctx->kv(), doc.import_tokens);
        std::vector<int32_t> tokens(doc.ctx->tokens().begin(),
                                    doc.ctx->tokens().begin() +
                                        static_cast<long>(doc.import_tokens));
        auto id = scratch.Import(std::move(tokens), std::move(kv), doc.training.get());
        if (!id.ok()) {
          out.error = "replay: scratch Import: " + id.status().ToString();
          return out;
        }
        ids.push_back(id.value());
      }
      for (int round = 0; round < 2; ++round) {
        for (uint64_t id : ids) {
          int64_t t0 = NowNs();
          Status st;
          {
            ScopedSpan span(tracer, "spill");
            st = scratch.tiers()->SpillContext(id);
          }
          // The first spill of a context writes it; later ones only detach.
          if (round == 0) {
            spill_s += static_cast<double>(NowNs() - t0) * 1e-9;
            spills += 1;
          }
          if (!st.ok()) {
            out.error = "replay: SpillContext: " + st.ToString();
            return out;
          }
          t0 = NowNs();
          {
            ScopedSpan span(tracer, "page_in");
            auto paged = scratch.tiers()->PageIn(id);
            st = paged.status();
          }
          page_in_s += static_cast<double>(NowNs() - t0) * 1e-9;
          page_ins += 1;
          if (!st.ok()) {
            out.error = "replay: PageIn: " + st.ToString();
            return out;
          }
        }
      }
      out.metrics["storage.buffer_hit_rate"] =
          scratch.tiers()->vfs().buffer_manager().stats().HitRate();
    }
    out.metrics["core.spill_ms"] = spill_s / std::max(spills, 1.0) * 1e3;
    out.metrics["core.page_in_ms"] = page_in_s / std::max(page_ins, 1.0) * 1e3;
  }

  // Span-derived layer times and the stacked reconciliation.
  const auto summary = tracer->Summarize();
  out.metrics["attention.head_us"] = SpanMeanSeconds(summary, "attend_head") * 1e6;
  out.metrics["core.update_us"] = SpanMeanSeconds(summary, "update") * 1e6;
  out.metrics["core.session_step_us"] = SpanMeanSeconds(summary, "session_step") * 1e6;
  auto total = [&](const char* name) {
    auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.total_s;
  };
  auto children = [&](const char* name) {
    auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.children_s;
  };
  out.reconciliations.push_back(Reconciliation{"session_step", "layer",
                                               total("session_step"),
                                               children("session_step"), 0.95, 1.0});
  out.reconciliations.push_back(Reconciliation{
      "layer", "update + attend_head", total("layer"), children("layer"), 0.95, 1.0});
  out.reconciliations.push_back(Reconciliation{"attend_head",
                                               "search_seconds + attention_seconds",
                                               total("attend_head"), search_s + attn_s,
                                               0.80, 1.0});
  return out;
}

}  // namespace servebench
