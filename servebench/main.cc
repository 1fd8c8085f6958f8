// servebench: the repository's serving benchmark.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>] [--source-id <id>]
//
// Drives the live ServingEngine through its public Submit / handle / snapshot
// surface with one generator thread, measures the end-to-end metrics with
// tracing off (--trace 0), or runs the traced pass and the layer-by-layer
// replay for the per-layer metrics (--trace 1). Every run checks its outputs
// and exits non-zero when a check fails. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. METRICS.md beside
// this file lists every metric, its unit and its source call.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "servebench/replay.h"
#include "servebench/stats.h"
#include "servebench/trace.h"
#include "servebench/workload.h"
#include "src/common/rng.h"
#include "src/common/vector_codec.h"
#include "src/llm/quality.h"

using namespace alaya;
using namespace servebench;

namespace {

/// Set-up repetitions per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Load before the measurement window opens (first admissions, cold caches).
constexpr double kWarmupSeconds = 1.0;
/// A run whose generator ran later than this share of ttft_p50 (p99) is
/// invalid: its TTFT would be set by the generator, not the engine.
constexpr double kMaxLatenessShare = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/servebench";
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a->workload = val;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (flag == "--trace") {
      a->trace = val == "1";
    } else if (flag == "--out-dir") {
      a->out_dir = val;
    } else if (flag == "--source-id") {
      a->source_id = val;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

size_t CountThreads() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::strtoul(line.c_str() + 8, nullptr, 10);
  }
  return 0;
}

/// CPU time the hypervisor gave to other guests ("steal", all CPUs), seconds.
double StealSeconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {0};
  f >> cpu;
  for (double& x : v) f >> x;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

long InvoluntarySwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

/// The deployed system under test. Members are destroyed engine first.
struct Deployment {
  std::unique_ptr<SimEnvironment> env;
  std::unique_ptr<AlayaDB> db;
  std::unique_ptr<ServingEngine> engine;
  std::vector<uint64_t> context_ids;
  double import_seconds = 0;
  size_t import_tokens = 0;
};

/// Set-up: construct the DB, Import every document (building its indices)
/// and Start the engine. The KV copies Import consumes are made before the
/// timer starts: they are the load generator's work.
std::unique_ptr<Deployment> Deploy(const Workload& w, const std::vector<Doc>& docs,
                                   ThreadPool* pool, Tracer* tracer, double* setup_seconds,
                                   std::string* error) {
  const ModelConfig model = bench::BenchModel();
  std::vector<std::vector<int32_t>> tokens;
  std::vector<std::unique_ptr<KvCache>> kvs;
  for (const Doc& doc : docs) {
    tokens.emplace_back(doc.ctx->tokens().begin(),
                        doc.ctx->tokens().begin() + static_cast<long>(doc.import_tokens));
    kvs.push_back(std::make_unique<KvCache>(model));
    if (Status s = kvs.back()->AppendPrefixFrom(doc.ctx->kv(), doc.import_tokens);
        !s.ok()) {
      *error = "KV copy: " + s.ToString();
      return nullptr;
    }
  }
  auto dep = std::make_unique<Deployment>();
  const DbOptions opts = MakeDbOptions(pool);

  const int64_t t0 = NowNs();
  ScopedSpan setup_span(tracer, "setup");
  dep->env = std::make_unique<SimEnvironment>();
  dep->db = std::make_unique<AlayaDB>(opts, dep->env.get());
  for (size_t i = 0; i < docs.size(); ++i) {
    const int64_t ti = NowNs();
    ScopedSpan span(tracer, "import", setup_span.id());
    Result<uint64_t> id =
        dep->db->Import(std::move(tokens[i]), std::move(kvs[i]), docs[i].training.get());
    if (!id.ok()) {
      *error = "Import: " + id.status().ToString();
      return nullptr;
    }
    dep->context_ids.push_back(id.value());
    dep->import_seconds += static_cast<double>(NowNs() - ti) * 1e-9;
    dep->import_tokens += docs[i].import_tokens;
  }
  dep->engine = std::make_unique<ServingEngine>(dep->db.get(), MakeEngineOptions(w, pool));
  if (Status s = dep->engine->Start(); !s.ok()) {
    *error = "Start: " + s.ToString();
    return nullptr;
  }
  *setup_seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return dep;
}

/// One request as the generator sees it. on_token writes token_ns from the
/// driver thread; the generator reads it after the handle reports the result.
struct Tracked {
  RequestPlan plan;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  std::vector<int64_t> token_ns;
  std::atomic<bool> last_token{false};
  RequestHandle handle;
  const RequestResult* result = nullptr;
  Status submit_status;
  int64_t span = Tracer::kNoSpan;
};

/// Wakes the closed-loop generator when a request streams its last token.
struct Notifier {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t count = 0;
  void Notify() {
    std::lock_guard<std::mutex> lk(mu);
    ++count;
    cv.notify_one();
  }
};

/// One measured pass: the requests it sent and its measurement window.
struct Pass {
  std::vector<Tracked*> requests;
  int64_t window_start = 0;
  int64_t window_end = 0;
  std::vector<double> lateness_ms;  ///< Open loop: submit - due.
  size_t max_threads = 0;
  /// Interference over the whole pass: hypervisor steal across all CPUs and
  /// this process's involuntary context switches.
  double steal_s = 0;
  long involuntary_switches = 0;

  bool InWindow(int64_t t) const { return t >= window_start && t < window_end; }
};

class LoadGenerator {
 public:
  LoadGenerator(const Workload& w, const std::vector<Doc>& docs, uint64_t seed,
                ServingEngine* engine)
      : w_(w), docs_(docs), seed_(seed), engine_(engine) {}

  /// Runs the workload's load for the warm-up and then for `seconds`, then
  /// waits for every request it sent. `tracer` records request and on_token
  /// spans.
  Pass Run(double seconds, Tracer* tracer) {
    Pass pass;
    pass.max_threads = CountThreads();
    const double steal0 = StealSeconds();
    const long switches0 = InvoluntarySwitches();
    const int64_t t0 = NowNs();
    pass.window_start = t0 + static_cast<int64_t>(kWarmupSeconds * 1e9);
    pass.window_end = pass.window_start + static_cast<int64_t>(seconds * 1e9);
    if (w_.clients > 0) {
      RunClosed(&pass, tracer);
    } else {
      RunOpen(&pass, t0, tracer);
    }
    pass.steal_s = StealSeconds() - steal0;
    pass.involuntary_switches = InvoluntarySwitches() - switches0;
    return pass;
  }

  const std::deque<Tracked>& all() const { return tracked_; }

 private:
  /// `client` >= 0 sends the next request of that closed-loop client's
  /// stream; -1 deals the request to the streams round robin.
  Tracked* Submit(Tracer* tracer, int64_t due_ns, long client) {
    Tracked& t = tracked_.emplace_back();
    const size_t index = next_index_++;
    if (client >= 0) {
      const size_t c = static_cast<size_t>(client);
      if (per_client_.size() <= c) per_client_.resize(c + 1, 0);
      t.plan = PlanRequest(w_, docs_, seed_, c, per_client_[c]++);
    } else {
      t.plan = PlanRequest(w_, docs_, seed_, index % docs_.size(), index / docs_.size());
    }
    t.plan.index = index;
    const Doc& doc = docs_[t.plan.doc];
    const SyntheticContext* d = doc.ctx.get();
    const size_t offset = t.plan.query_offset;
    const size_t n = t.plan.decode_tokens;
    ServingRequest r;
    r.prompt = d->tokens();
    r.max_new_tokens = n;
    r.record_outputs = t.plan.record;
    r.tenant_id = t.plan.tenant;
    r.fill_step = [d, offset](size_t step, uint32_t layer, float* q, float* k, float* v) {
      FillDecode(*d, offset, step, layer, q, k, v);
    };
    r.fill_prompt = [d](size_t token, uint32_t layer, float* q, float* k, float* v) {
      FillPrompt(*d, token, layer, q, k, v);
    };
    Tracked* tp = &t;
    Notifier* notifier = &notifier_;
    r.on_token = [tp, tracer, notifier, n](size_t step, std::span<const float>) {
      const int64_t now = NowNs();
      {
        ScopedSpan span(tracer, "on_token", tp->span, tp->plan.index);
        tp->token_ns.push_back(now);
      }
      if (step + 1 == n) {
        tracer->End(tp->span);  // The request span closes at its last token.
        tp->last_token.store(true);
        notifier->Notify();
      }
    };
    t.token_ns.reserve(n);
    t.span = tracer->Begin("request", Tracer::kNoSpan, t.plan.index);
    t.submit_ns = NowNs();
    t.due_ns = due_ns == 0 ? t.submit_ns : due_ns;
    Result<RequestHandle> h = engine_->Submit(std::move(r));
    if (h.ok()) {
      t.handle = h.value();
    } else {
      t.submit_status = h.status();
      tracer->End(t.span);
    }
    return &t;
  }

  void Finish(Tracked* t, const RequestResult* r, Tracer* tracer) {
    t->result = r;
    if (!t->last_token.load()) tracer->End(t->span);  // Failed before its last token.
  }

  /// Samples the thread count; true once the window has closed.
  bool Poll(Pass* p, int64_t now) {
    if (now >= next_thread_sample_) {
      p->max_threads = std::max(p->max_threads, CountThreads());
      next_thread_sample_ = now + 100'000'000;
    }
    return now >= p->window_end;
  }

  // Each client reads its own document, so every decode step batches the
  // same mix of context lengths. With documents drawn per request, the mix
  // drifted within a run and the token-gap p99 jumped between two modes from
  // run to run.
  void RunClosed(Pass* pass, Tracer* tracer) {
    std::vector<Tracked*> inflight;
    std::vector<long> client_of;
    for (size_t c = 0; c < w_.clients; ++c) {
      inflight.push_back(Submit(tracer, 0, static_cast<long>(c)));
      client_of.push_back(static_cast<long>(c));
    }
    pass->requests = inflight;
    for (;;) {
      const bool stop = Poll(pass, NowNs());
      for (size_t i = 0; i < inflight.size();) {
        Tracked* t = inflight[i];
        const RequestResult* r = nullptr;
        if (t->handle.valid()) {
          r = t->last_token.load() ? t->handle.Wait() : t->handle.TryWait();
        }
        if (r == nullptr && t->handle.valid()) {
          ++i;
          continue;
        }
        Finish(t, r, tracer);
        const long client = client_of[i];
        inflight.erase(inflight.begin() + static_cast<long>(i));
        client_of.erase(client_of.begin() + static_cast<long>(i));
        if (!stop) {
          inflight.push_back(Submit(tracer, 0, client));
          client_of.push_back(client);
          pass->requests.push_back(inflight.back());
        }
      }
      if (stop && inflight.empty()) break;
      std::unique_lock<std::mutex> lk(notifier_.mu);
      const uint64_t seen = notifier_.count;
      notifier_.cv.wait_for(lk, std::chrono::milliseconds(5),
                            [&] { return notifier_.count != seen; });
    }
  }

  void RunOpen(Pass* pass, int64_t t0, Tracer* tracer) {
    const std::vector<double> due =
        ArrivalSchedule(w_, Mix64(seed_ ^ next_index_),
                        static_cast<double>(pass->window_end - t0) * 1e-9);
    for (double at : due) {
      const int64_t due_ns = t0 + static_cast<int64_t>(at * 1e9);
      Poll(pass, NowNs());
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due_ns)));
      Tracked* t = Submit(tracer, due_ns, -1);
      pass->requests.push_back(t);
      pass->lateness_ms.push_back(static_cast<double>(t->submit_ns - due_ns) * 1e-6);
    }
    for (Tracked* t : pass->requests) {
      Finish(t, t->handle.valid() ? t->handle.Wait() : nullptr, tracer);
    }
  }

  const Workload& w_;
  const std::vector<Doc>& docs_;
  uint64_t seed_;
  ServingEngine* engine_;
  std::deque<Tracked> tracked_;
  size_t next_index_ = 0;
  std::vector<size_t> per_client_;  ///< Requests sent so far by each client.
  Notifier notifier_;
  int64_t next_thread_sample_ = 0;
};

bool RequestOk(const Tracked& t) { return t.result != nullptr && t.result->status.ok(); }

/// End-to-end numbers of one pass.
struct EndToEnd {
  double decode_tok_s = 0, req_s = 0;
  double ttft_p50_ms = 0, ttft_p90_ms = 0, itl_p50_ms = 0, itl_p90_ms = 0, itl_p99_ms = 0;
  double slo_attainment = 0;
  size_t ttft_n = 0, itl_n = 0, sent = 0;
  double gen_late_p99_ms = 0;
  std::vector<double> ttft_ms, gap_ms;  ///< The samples behind the quantiles.

  void SetQuantiles() {
    ttft_n = ttft_ms.size();
    itl_n = gap_ms.size();
    ttft_p50_ms = Quantile(ttft_ms, 0.5);
    ttft_p90_ms = Quantile(ttft_ms, 0.9);
    itl_p50_ms = Quantile(gap_ms, 0.5);
    itl_p90_ms = Quantile(gap_ms, 0.9);
    itl_p99_ms = Quantile(gap_ms, 0.99);
  }
};

EndToEnd Summarize(const Workload& w, const Pass& pass) {
  EndToEnd e;
  double tokens = 0, completed = 0;
  size_t met = 0;
  for (const Tracked* t : pass.requests) {
    const auto& ts = t->token_ns;
    double max_gap = 0;
    for (size_t k = 0; k < ts.size(); ++k) {
      if (pass.InWindow(ts[k])) tokens += 1;
      if (k == 0) continue;
      const double gap = static_cast<double>(ts[k] - ts[k - 1]) * 1e-6;
      max_gap = std::max(max_gap, gap);
      if (pass.InWindow(ts[k - 1]) && pass.InWindow(ts[k])) e.gap_ms.push_back(gap);
    }
    if (ts.size() == t->plan.decode_tokens && pass.InWindow(ts.back())) completed += 1;
    if (!pass.InWindow(t->due_ns)) continue;
    ++e.sent;
    if (!RequestOk(*t) || ts.empty()) continue;  // A failure misses the SLO.
    const double ttft = static_cast<double>(ts.front() - t->due_ns) * 1e-6;
    e.ttft_ms.push_back(ttft);
    if (ttft <= w.slo_ttft_ms && max_gap <= w.slo_gap_ms) ++met;
  }
  const double window_s = static_cast<double>(pass.window_end - pass.window_start) * 1e-9;
  e.decode_tok_s = tokens / window_s;
  e.req_s = completed / window_s;
  e.slo_attainment = e.sent > 0 ? static_cast<double>(met) / static_cast<double>(e.sent) : 0;
  e.gen_late_p99_ms = Quantile(pass.lateness_ms, 0.99);
  e.SetQuantiles();
  return e;
}

/// The latency samples of two passes together.
EndToEnd Pool(const EndToEnd& a, const EndToEnd& b) {
  EndToEnd e;
  e.ttft_ms = a.ttft_ms;
  e.ttft_ms.insert(e.ttft_ms.end(), b.ttft_ms.begin(), b.ttft_ms.end());
  e.gap_ms = a.gap_ms;
  e.gap_ms.insert(e.gap_ms.end(), b.gap_ms.begin(), b.gap_ms.end());
  e.gen_late_p99_ms = std::max(a.gen_late_p99_ms, b.gen_late_p99_ms);
  e.SetQuantiles();
  return e;
}

/// Mean CosineFidelity of recorded final-layer outputs against the oracle.
double Fidelity(const std::vector<Doc>& docs, const std::deque<Tracked>& all,
                size_t* samples) {
  MeanAccumulator acc;
  for (const Tracked& t : all) {
    if (!t.plan.record || !RequestOk(t)) continue;
    const SyntheticContext& doc = *docs[t.plan.doc].ctx;
    const ModelConfig& m = doc.model();
    const size_t d = m.head_dim;
    std::vector<float> oracle(d);
    const size_t qdim = static_cast<size_t>(m.num_q_heads) * d;
    const size_t steps = t.result->outputs.size() / qdim;
    for (size_t s = 0; s < steps; ++s) {
      for (uint32_t h = 0; h < m.num_q_heads; ++h) {
        doc.OracleOutput(t.plan.query_offset + s, m.num_layers - 1, h, oracle.data());
        acc.Add(CosineFidelity(t.result->outputs.data() + s * qdim + h * d,
                               oracle.data(), d));
      }
    }
  }
  *samples = acc.count();
  return acc.Mean();
}

/// The concurrent == sequential golden: replays one recorded request alone
/// on a single session bound to exactly the context and prefix it reused,
/// and requires bit-identical outputs.
std::string GoldenReplay(const Workload& w, const std::vector<Doc>& docs, AlayaDB* db,
                         const Tracked& t) {
  const RequestResult& r = *t.result;
  const SyntheticContext& doc = *docs[t.plan.doc].ctx;
  const ModelConfig& m = doc.model();
  const size_t d = m.head_dim;
  const size_t qdim = static_cast<size_t>(m.num_q_heads) * d;
  const size_t kvdim = static_cast<size_t>(m.num_kv_heads) * d;
  auto resumed = db->ResumeSession(r.reused_context_id, r.reused_prefix, 0);
  if (!resumed.ok()) return "ResumeSession: " + resumed.status().ToString();
  Session& s = *resumed.value().session;
  const size_t prompt = doc.num_tokens();
  const size_t chunk = w.prefill_chunk_tokens;
  std::vector<float> q(chunk * qdim), k(chunk * kvdim), v(chunk * kvdim);
  for (size_t first = r.reused_prefix; first < prompt; first += chunk) {
    const size_t n = std::min(chunk, prompt - first);
    for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
      for (size_t i = 0; i < n; ++i) {
        FillPrompt(doc, first + i, layer, q.data() + i * qdim, k.data() + i * kvdim,
                   v.data() + i * kvdim);
      }
      if (Status st = s.UpdateBatch(layer, n, q.data(), k.data(), v.data()); !st.ok()) {
        return "UpdateBatch: " + st.ToString();
      }
    }
  }
  std::vector<float> out(qdim);
  for (size_t step = 0; step < t.plan.decode_tokens; ++step) {
    for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
      FillDecode(doc, t.plan.query_offset, step, layer, q.data(), k.data(), v.data());
      if (Status st = s.Update(layer, q.data(), k.data(), v.data()); !st.ok()) {
        return "Update: " + st.ToString();
      }
      for (uint32_t h = 0; h < m.num_q_heads; ++h) {
        AttentionCallStats stats;
        if (Status st = s.AttendHead(layer, h, q.data() + h * d, out.data() + h * d, &stats);
            !st.ok()) {
          return "AttendHead: " + st.ToString();
        }
      }
    }
    if (std::memcmp(out.data(), r.outputs.data() + step * qdim, qdim * sizeof(float)) != 0) {
      return "step " + std::to_string(step) + " differs from the sequential replay";
    }
  }
  return "";
}

/// Output checks shared by both modes. Returns the failures.
std::vector<std::string> CheckOutputs(const Workload& w, const std::vector<Doc>& docs,
                                      Deployment* dep, const std::deque<Tracked>& all,
                                      const ServingSnapshot& snap) {
  std::vector<std::string> fails;
  auto fail = [&](std::string s) {
    if (fails.size() < 20) fails.push_back(std::move(s));
  };
  for (const Tracked& t : all) {
    const std::string id = "request " + std::to_string(t.plan.index);
    if (!t.submit_status.ok()) {
      fail(id + " refused: " + t.submit_status.ToString());
      continue;
    }
    if (!RequestOk(t)) {
      fail(id + " failed: " +
           (t.result ? t.result->status.ToString() : std::string("no result")));
      continue;
    }
    const Doc& doc = docs[t.plan.doc];
    const RequestResult& r = *t.result;
    if (r.steps_completed != t.plan.decode_tokens ||
        t.token_ns.size() != t.plan.decode_tokens) {
      fail(id + ": decoded " + std::to_string(r.steps_completed) + " tokens");
    }
    if (r.reused_prefix != doc.import_tokens ||
        r.prefilled_tokens != doc.ctx->num_tokens() - doc.import_tokens) {
      fail(id + ": reused " + std::to_string(r.reused_prefix) + ", prefilled " +
           std::to_string(r.prefilled_tokens));
    }
  }
  size_t golden = 0;
  for (const Tracked& t : all) {
    if (!InGoldenSample(t.plan) || !RequestOk(t)) continue;
    ++golden;
    const std::string why = GoldenReplay(w, docs, dep->db.get(), t);
    if (!why.empty()) fail("golden request " + std::to_string(t.plan.index) + ": " + why);
  }
  if (golden == 0) fail("no request of the golden sample completed");
  if (snap.rejected != 0) fail(std::to_string(snap.rejected) + " requests rejected");
  // No workload tiers or stores: those paths must stay idle.
  if (dep->db->tiers() != nullptr ||
      snap.tier_spills + snap.tier_page_ins + snap.tier_prefetches +
              snap.materializations_completed + snap.materializations_failed !=
          0) {
    fail("tier or materialization activity on a workload without tiers or stores");
  }
  return fails;
}

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"decode_tok_s", "tok/s"},       {"req_s", "1/s"},
    {"ttft_p50_ms", "ms"},  {"itl_p50_ms", "ms"},            {"slo_attainment", "ratio"},
    {"fidelity", "ratio"},  {"peak_gpu_mib", "MiB"},
};

const Metric kPerLayer[] = {
    {"common.dot_ns", "ns"},
    {"common.matvec_ns_per_row", "ns"},
    {"index.diprs_us", "us"},
    {"index.dist_comps", "count"},
    {"index.hops", "count"},
    {"index.critical_recall", "ratio"},
    {"index.build_s_per_ktok", "s"},
    {"index.extend_s_per_ktok", "s"},
    {"attention.head_us", "us"},
    {"attention.search_share", "ratio"},
    {"attention.attended_tokens", "count"},
    {"core.update_us", "us"},
    {"core.session_step_us", "us"},
    {"query.prefill_us_per_tok", "us"},
    {"core.create_session_us", "us"},
    {"core.prefix_match_us", "us"},
    {"core.page_in_ms", "ms"},
    {"core.spill_ms", "ms"},
    {"storage.buffer_hit_rate", "ratio"},
    {"server.batch_mean", "count"},
    {"server.queue_ms_p50", "ms"},
    {"server.prefill_share", "ratio"},
    {"server.midstep_admissions_per_req", "count"},
    {"server.rejected", "count"},
    {"server.preemptions", "count"},
    {"attention.search_s_per_tok", "s"},
    {"attention.attn_s_per_tok", "s"},
    {"device.modeled_s_per_tok", "modeled_s"},
    {"trace.self_ms.request", "ms"},
    {"trace.self_us.on_token", "us"},
    {"trace.self_us.session_step", "us"},
    {"trace.self_us.layer", "us"},
    {"trace.self_us.update", "us"},
    {"trace.self_us.attend_head", "us"},
    {"trace.reconcile.session_step", "ratio"},
    {"trace.reconcile.layer", "ratio"},
    {"trace.reconcile.attend_head", "ratio"},
    {"trace.reconcile.diprs_kernel", "ratio"},
    {"trace.overhead_itl_p50_pct", "%"},
    {"trace.overhead_ttft_p50_pct", "%"},
    {"tail.ttft_p90_ms", "ms"},
    {"tail.itl_p99_ms", "ms"},
};

/// Per-layer counters read from the traced pass's results and snapshot.
void ServerCounters(const std::deque<Tracked>& all, const Pass& pass, const ServingSnapshot& snap,
                    std::map<std::string, double>* m) {
  std::vector<double> queue_ms;
  double search_s = 0, attn_s = 0, steps = 0, prefill_s = 0, decode_s = 0;
  for (const Tracked* t : pass.requests) {
    if (!RequestOk(*t)) continue;
    const RequestResult& r = *t->result;
    const double first_step =
        r.steps_completed > 0 ? r.decode_wall_seconds / static_cast<double>(r.steps_completed) : 0;
    queue_ms.push_back(std::max(0.0, r.ttft_seconds - r.prefill_wall_seconds - first_step) * 1e3);
    prefill_s += r.prefill_wall_seconds;
    decode_s += r.decode_wall_seconds;
    search_s += r.stats.search_seconds;
    attn_s += r.stats.attention_seconds;
    steps += static_cast<double>(r.steps_completed);
  }
  const double reqs = static_cast<double>(std::max<size_t>(all.size(), 1));
  double modeled = 0;
  for (const DeviceServingStats& ds : snap.devices) modeled += ds.modeled_busy_seconds;
  const double decoded = static_cast<double>(std::max<size_t>(snap.tokens_decoded, 1));
  (*m)["server.batch_mean"] =
      static_cast<double>(snap.tokens_decoded) /
      static_cast<double>(std::max<size_t>(snap.engine_steps, 1));
  (*m)["server.queue_ms_p50"] = Median(queue_ms);
  (*m)["server.prefill_share"] = prefill_s + decode_s > 0 ? prefill_s / (prefill_s + decode_s) : 0;
  (*m)["server.midstep_admissions_per_req"] = static_cast<double>(snap.midstep_admissions) / reqs;
  (*m)["server.rejected"] = static_cast<double>(snap.rejected);
  (*m)["server.preemptions"] = static_cast<double>(snap.preemptions);
  (*m)["attention.search_s_per_tok"] = search_s / std::max(steps, 1.0);
  (*m)["attention.attn_s_per_tok"] = attn_s / std::max(steps, 1.0);
  (*m)["device.modeled_s_per_tok"] = modeled / decoded;
}

void PrintResult(bool correct, size_t attempted, size_t failed, const Metric* metrics,
                 size_t count, const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < count; ++i) {
    auto it = values.find(metrics[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintPass(const char* label, const EndToEnd& e) {
  std::printf(
      "%s: %.1f tok/s, %.2f req/s, ttft p50 %.2f ms p90 %.2f ms (n=%zu), itl p50 %.3f ms "
      "p90 %.3f ms p99 %.3f ms (n=%zu), slo %.3f of %zu sent, generator late p99 %.3f ms\n",
      label, e.decode_tok_s, e.req_s, e.ttft_p50_ms, e.ttft_p90_ms, e.ttft_n, e.itl_p50_ms,
      e.itl_p90_ms, e.itl_p99_ms, e.itl_n, e.slo_attainment, e.sent, e.gen_late_p99_ms);
}

/// Generator-lateness validity of one pass and, when its percentiles are
/// reported (`tails`), their sample sizes.
std::string PassValidity(const EndToEnd& e, bool tails) {
  if (tails && !Supports(e.ttft_n, 0.9)) {
    return "too few TTFT samples (" + std::to_string(e.ttft_n) + ") for p90";
  }
  if (tails && !Supports(e.itl_n, 0.99)) {
    return "too few token gaps (" + std::to_string(e.itl_n) + ") for p99";
  }
  if (e.gen_late_p99_ms > kMaxLatenessShare * e.ttft_p50_ms) {
    return "generator lateness p99 " + std::to_string(e.gen_late_p99_ms) +
           " ms is large next to ttft p50 " + std::to_string(e.ttft_p50_ms) + " ms";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--source-id <id>]\n");
    return 2;
  }
  const Workload* wp = FindWorkload(args.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  std::filesystem::create_directories(args.out_dir);
  const std::string tag = w.name + std::string("-") + std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());

  // Thread budget: the generator (this thread), the engine's driver and one
  // pool worker. With one worker ParallelFor runs inline, so the engine's
  // decode batches run serially on its driver, and the worker carries the
  // prefill waves. Each extra worker puts another virtual CPU behind every
  // batch barrier, and on a shared host the hypervisor steals from each: on
  // the reference machine, two workers tripled decode_resident's throughput
  // but spread it by half its median over seeds.
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = 1;
  ThreadPool pool(workers);
  Tracer off(false);
  Tracer tracer(args.trace);

  const std::vector<Doc> docs = MakeDocs(w, &pool);
  if (docs.empty()) {
    std::fprintf(stderr, "document generation failed\n");
    return 1;
  }

  std::string error;
  std::vector<double> setups;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    if (dep != nullptr) {
      (void)dep->engine->Shutdown();
      dep.reset();
    }
    double s = 0;
    dep = Deploy(w, docs, &pool, &tracer, &s, &error);
    if (dep == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(s);
  }

  LoadGenerator gen(w, docs, args.seed, dep->engine.get());
  std::map<std::string, double> values;
  EndToEnd untraced, traced, before, after;
  Pass measured;
  if (!args.trace) {
    measured = gen.Run(args.seconds, &off);
    untraced = Summarize(w, measured);
    PrintPass("untraced", untraced);
  } else {
    // Same deployment: untraced, traced, untraced thirds. The overhead
    // baseline pools the two untraced thirds, so neither side gains from
    // running later after set-up, and their tails have twice the samples.
    before = Summarize(w, gen.Run(args.seconds / 3, &off));
    PrintPass("untraced", before);
    measured = gen.Run(args.seconds / 3, &tracer);
    traced = Summarize(w, measured);
    PrintPass("traced", traced);
    after = Summarize(w, gen.Run(args.seconds / 3, &off));
    PrintPass("untraced", after);
    untraced = Pool(before, after);
    std::printf("untraced thirds pooled: ttft p50 %.2f ms p90 %.2f ms (n=%zu), itl p50 %.3f ms "
                "p99 %.3f ms (n=%zu)\n",
                untraced.ttft_p50_ms, untraced.ttft_p90_ms, untraced.ttft_n, untraced.itl_p50_ms,
                untraced.itl_p99_ms, untraced.itl_n);
  }
  const Status shutdown = dep->engine->Shutdown();
  const ServingSnapshot snap = dep->engine->snapshot();

  std::vector<std::string> fails = CheckOutputs(w, docs, dep.get(), gen.all(), snap);
  if (!shutdown.ok()) fails.push_back("shutdown: " + shutdown.ToString());
  if (nproc >= 3 && measured.max_threads > nproc) {
    fails.push_back("thread budget: " + std::to_string(measured.max_threads) +
                    " threads on " + std::to_string(nproc) + " cores");
  }
  size_t fidelity_samples = 0;
  const double fidelity = Fidelity(docs, gen.all(), &fidelity_samples);
  std::string invalid;
  for (const EndToEnd* e : {&untraced, &traced}) {
    if (invalid.empty() && (e == &untraced || args.trace)) {
      invalid = PassValidity(*e, /*tails=*/e == &untraced);
    }
  }

  size_t failed = 0;
  for (const Tracked& t : gen.all()) failed += RequestOk(t) ? 0 : 1;

  std::printf("provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
              "\"trace\": %d, \"source\": \"%s\", \"nproc\": %zu, \"dispatch\": \"%s\", "
              "\"pool_workers\": %zu, \"threads_used\": %zu, \"steal_s\": %.2f, "
              "\"involuntary_switches\": %ld}\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.source_id.c_str(), nproc, KernelDispatchLevel(),
              workers, measured.max_threads, measured.steal_s,
              measured.involuntary_switches);
  std::printf("setup_s samples:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\nfidelity: %.6f over %zu head outputs; snapshot: %zu completed, %zu decoded, "
              "%zu prefilled, %zu steps, %zu midstep admissions\n",
              fidelity, fidelity_samples, snap.completed, snap.tokens_decoded,
              snap.tokens_prefilled, snap.engine_steps, snap.midstep_admissions);

  if (!args.trace) {
    values["setup_s"] = Median(setups);
    values["decode_tok_s"] = untraced.decode_tok_s;
    values["req_s"] = untraced.req_s;
    values["ttft_p50_ms"] = untraced.ttft_p50_ms;
    values["itl_p50_ms"] = untraced.itl_p50_ms;
    values["slo_attainment"] = untraced.slo_attainment;
    values["fidelity"] = fidelity;
    values["peak_gpu_mib"] = static_cast<double>(snap.peak_gpu_bytes) / (1 << 20);
  } else {
    ServerCounters(gen.all(), measured, snap, &values);
    values["index.build_s_per_ktok"] =
        dep->import_seconds / (static_cast<double>(dep->import_tokens) / 1000.0);
    const std::string scratch = args.out_dir + "/replay-" + tag;
    ReplayResult replay = RunLayerReplay(w, docs, dep->context_ids, dep->db.get(), &pool,
                                         args.seed, scratch, &tracer);
    std::filesystem::remove_all(scratch);
    if (!replay.error.empty()) fails.push_back(replay.error);
    for (const auto& [k, v] : replay.metrics) values[k] = v;
    const auto summary = tracer.Summarize();
    auto self_mean = [&](const char* name) {
      auto it = summary.find(name);
      return it == summary.end() || it->second.count == 0
                 ? 0.0
                 : it->second.self_s / static_cast<double>(it->second.count);
    };
    values["trace.self_ms.request"] = self_mean("request") * 1e3;
    values["trace.self_us.on_token"] = self_mean("on_token") * 1e6;
    values["trace.self_us.session_step"] = self_mean("session_step") * 1e6;
    values["trace.self_us.layer"] = self_mean("layer") * 1e6;
    values["trace.self_us.update"] = self_mean("update") * 1e6;
    values["trace.self_us.attend_head"] = self_mean("attend_head") * 1e6;
    std::printf("layer self times (mean per span):\n");
    for (const auto& [name, nt] : summary) {
      std::printf("  %-16s n=%-7zu total %10.3f ms  self %10.3f ms  self/span %10.3f us\n",
                  name.c_str(), nt.count, nt.total_s * 1e3, nt.self_s * 1e3,
                  nt.self_s / static_cast<double>(nt.count) * 1e6);
    }
    const char* keys[] = {"trace.reconcile.diprs_kernel", "trace.reconcile.session_step",
                          "trace.reconcile.layer", "trace.reconcile.attend_head"};
    for (size_t i = 0; i < replay.reconciliations.size() && i < 4; ++i) {
      const Reconciliation& r = replay.reconciliations[i];
      values[keys[i]] = r.share();
      std::printf("reconcile %-12s <- %-36s %.4f (accepted %.2f..%.2f) %s\n",
                  r.parent.c_str(), r.children.c_str(), r.share(), r.min_share, r.max_share,
                  r.ok() ? "ok" : "FAIL");
      if (!r.ok()) fails.push_back("layer sums do not reconcile: " + r.parent);
    }
    values["tail.ttft_p90_ms"] = untraced.ttft_p90_ms;
    values["tail.itl_p99_ms"] = untraced.itl_p99_ms;
    values["trace.overhead_itl_p50_pct"] =
        (traced.itl_p50_ms - untraced.itl_p50_ms) / untraced.itl_p50_ms * 100;
    values["trace.overhead_ttft_p50_pct"] =
        (traced.ttft_p50_ms - untraced.ttft_p50_ms) / untraced.ttft_p50_ms * 100;
    const std::string trace_path = args.out_dir + "/trace-" + tag + ".json";
    if (!tracer.WriteChromeJson(trace_path)) {
      fails.push_back("cannot write " + trace_path);
    } else {
      std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(), tracer.size());
    }
  }

  for (const std::string& f : fails) std::printf("CHECK FAILED: %s\n", f.c_str());
  if (!invalid.empty()) {
    std::printf("RUN INVALID: %s\n", invalid.c_str());
    return 1;
  }
  const bool correct = fails.empty();
  if (args.trace) {
    PrintResult(correct, gen.all().size(), failed, kPerLayer, std::size(kPerLayer), values);
  } else {
    PrintResult(correct, gen.all().size(), failed, kEndToEnd, std::size(kEndToEnd), values);
  }
  return correct ? 0 : 1;
}
