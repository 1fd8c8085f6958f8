#include "servebench/workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench/bench_util.h"
#include "src/common/rng.h"

namespace servebench {

using namespace alaya;

namespace {

// Why these two: decode_resident is all decode hot path (kernels, DIPRS,
// attention, session step) with the scheduler, prefill and tiers idle;
// prefill_openloop is the only one that builds a queue, so its TTFT is set by
// admission, the budget split and chunked prefill, while DIPRS carries little
// of the work.
const Workload kWorkloads[] = {
    {.name = "decode_resident",
     .tasks = {"En.QA", "En.MC", "Code.D", "Math.F"},
     .context_scale = 0.08,  // Documents of 3.5k-15k tokens.
     .import_fraction = 1.0,
     .decode_tokens = 32,
     .clients = 4,
     .rate = 0,
     .max_sessions = 4,
     .tenants = 1,
     .devices = 1,
     .step_token_budget = 0,
     .prefill_chunk_tokens = 32,
     .slo_ttft_ms = 20,
     .slo_gap_ms = 30},
    {.name = "prefill_openloop",
     // Four tasks of nearly one length, so every request prefills about as
     // much and TTFT has one mode. With the decode_resident tasks, two short
     // and two long documents put the TTFT median on the edge between two
     // modes, and it swung by a third between seeds.
     .tasks = {"En.QA", "En.Sum", "Retr.P", "Retr.N"},
     .context_scale = 0.01,  // Documents of 1.7k-1.9k tokens, half prefilled.
     .import_fraction = 0.5,
     .decode_tokens = 16,
     .clients = 0,
     // Low enough that prefill runs a small share of the time: at 12 req/s
     // about half of all token gaps sat behind another request's prefill
     // chunk, so the gap median lay on the edge between the two gap modes.
     .rate = 6,
     // Bursts of arrivals then meet the admission cap in every run, so the
     // fleet's peak residency is the cap's, not that of the largest burst
     // the seed happened to draw.
     .max_sessions = 2,
     .tenants = 3,
     .devices = 2,
     // Small steps keep each engine step, and so the time a Submit can wait
     // for the engine, short next to TTFT: with 128-token chunks under a
     // 256-token budget the generator ran up to 9 ms late at p99.
     .step_token_budget = 128,
     .prefill_chunk_tokens = 64,
     .slo_ttft_ms = 200,
     .slo_gap_ms = 30},
};

uint64_t Mix(uint64_t a, uint64_t b) { return Mix64(Mix64(a) ^ b); }

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<Doc> MakeDocs(const Workload& w, ThreadPool* pool) {
  const auto suite = InfinityBenchSuite(w.context_scale);
  std::vector<Doc> docs;
  for (const char* task : w.tasks) {
    SyntheticContextOptions opts;
    opts.model = bench::BenchModel();
    opts.spec = FindTask(suite, task);
    opts.pool = pool;
    Doc doc;
    doc.ctx = std::make_unique<SyntheticContext>(opts);
    if (!doc.ctx->Generate().ok()) return {};
    doc.import_tokens = static_cast<size_t>(
        std::lround(static_cast<double>(doc.ctx->num_tokens()) * w.import_fraction));
    doc.training = doc.ctx->MakeTrainingQueries(128);
    docs.push_back(std::move(doc));
  }
  return docs;
}

RequestPlan PlanRequest(const Workload& w, const std::vector<Doc>& docs,
                        uint64_t seed, size_t stream, size_t n) {
  Rng rng(Mix(Mix(Mix(seed, 0x5e9), stream), n));
  RequestPlan p;
  p.stream = stream;
  p.n = n;
  p.doc = stream % docs.size();
  p.query_offset = rng.UniformInt(1u << 20);
  // Drawn lengths keep the closed loop's clients out of lockstep. With one
  // fixed length all four finished on the same step and raced back in, and
  // which of them made the next step decided TTFT, differently in each run.
  p.decode_tokens = w.decode_tokens / 2 + rng.UniformInt(w.decode_tokens);
  p.tenant = (n * docs.size() + stream) % w.tenants;
  p.record = InFidelitySample(p);
  return p;
}

std::vector<double> ArrivalSchedule(const Workload& w, uint64_t seed, double horizon_s) {
  std::vector<double> due;
  if (w.rate <= 0) return due;
  Rng rng(Mix(seed, 0xa771));
  // A Poisson process conditioned on exactly `rate` arrivals in every second:
  // each second's arrivals are uniform within it, so gaps stay exponential-
  // like and bursty, while the count a window sees no longer varies by seed.
  const size_t per_second = static_cast<size_t>(std::lround(w.rate));
  for (double second = 0; second < horizon_s; second += 1) {
    std::vector<double> at(per_second);
    for (double& t : at) t = second + rng.Uniform();
    std::sort(at.begin(), at.end());
    for (double t : at) {
      if (t < horizon_s) due.push_back(t);
    }
  }
  return due;
}

void FillDecode(const SyntheticContext& doc, size_t offset, size_t step, uint32_t layer,
                float* q, float* k, float* v) {
  const ModelConfig& m = doc.model();
  doc.MakeDecodeQueryLayer(offset + step, layer, q);
  const size_t kv = static_cast<size_t>(m.num_kv_heads) * m.head_dim;
  std::memset(k, 0, kv * sizeof(float));
  std::memset(v, 0, kv * sizeof(float));
}

void FillPrompt(const SyntheticContext& doc, size_t token, uint32_t layer, float* q,
                float* k, float* v) {
  const ModelConfig& m = doc.model();
  Rng rng(Mix(Mix(token, layer), 0x9e3779b9));
  rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
  for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
    const uint32_t t = static_cast<uint32_t>(token);
    std::memcpy(k + static_cast<size_t>(h) * m.head_dim, doc.kv().Keys(layer, h).Vec(t),
                m.head_dim * sizeof(float));
    std::memcpy(v + static_cast<size_t>(h) * m.head_dim,
                doc.kv().Values(layer, h).Vec(t), m.head_dim * sizeof(float));
  }
}

DbOptions MakeDbOptions(ThreadPool* pool) {
  DbOptions o;
  o.model = bench::BenchModel();
  // Low enough that every document runs DIPRS rather than full attention.
  o.session.optimizer.short_context_threshold = 512;
  o.session.window = WindowConfig{32, 128};
  o.materialize_pool = pool;
  o.index_build.pool = pool;
  o.index_build.roar.pool = pool;
  return o;
}

ServingEngineOptions MakeEngineOptions(const Workload& w, ThreadPool* pool) {
  ServingEngineOptions o;
  o.pool = pool;
  o.devices = w.devices;
  o.scheduler.max_concurrent_sessions = w.max_sessions;
  o.scheduler.step_token_budget = w.step_token_budget;
  o.scheduler.prefill_chunk_tokens = w.prefill_chunk_tokens;
  return o;
}

}  // namespace servebench
