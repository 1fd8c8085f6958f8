// True continuous batching: a request submitted while the engine is mid-step
// is admitted INTO that step (its first prefill chunk drawn from the step's
// unspent token budget), prefilling sessions interleave with decoding, and
// none of it changes a single output bit.
//
// The determinism construction: request A's fill_prompt parks on a gate, so
// the engine is provably mid-step (A's prefill wave outstanding) for as long
// as the test wants. Request B's own fill_prompt is what opens A's gate — so
// if B's chunk runs at all, it ran inside A's step, i.e. mid-step admission
// happened. A broken scheduler deadlocks (caught by the test timeout) instead
// of passing by luck.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

constexpr uint64_t kDocSeed = 7;

/// Deterministic QKV for prompt POSITION `token` — shared by the imported
/// context KV, every request's fill_prompt, and the sequential golden, so
/// schedules can differ while the math cannot.
void FillPromptToken(const ModelConfig& m, size_t token, uint32_t layer, float* q,
                     float* k, float* v) {
  Rng rng(kDocSeed * 2654435761ull + token * 9176ull + layer * 97ull);
  rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
  rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
  rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
}

int32_t PromptTokenId(size_t i) { return 500 + static_cast<int32_t>(i); }

struct ContinuousFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t stored_tokens;
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  ThreadPool pool{4};

  explicit ContinuousFixture(size_t import_tokens) : stored_tokens(import_tokens) {
    options.model = model;
    options.session.window = WindowConfig{8, 16};
    db = std::make_unique<AlayaDB>(options, &env);
    if (import_tokens > 0) {
      auto kv = std::make_unique<KvCache>(model);
      const size_t qdim = static_cast<size_t>(model.num_q_heads) * model.head_dim;
      const size_t kvdim = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
      std::vector<float> q(qdim), k(kvdim), v(kvdim);
      for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
        for (size_t t = 0; t < import_tokens; ++t) {
          FillPromptToken(model, t, layer, q.data(), k.data(), v.data());
          kv->AppendToken(layer, k.data(), v.data());
        }
      }
      std::vector<int32_t> tokens(import_tokens);
      for (size_t i = 0; i < import_tokens; ++i) tokens[i] = PromptTokenId(i);
      auto imported = db->Import(std::move(tokens), std::move(kv));
      EXPECT_TRUE(imported.ok()) << imported.status().ToString();
    }
  }

  ServingEngineOptions EngineOptions(size_t max_concurrent) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.pool = &pool;
    return o;
  }

  ServingRequest MakeRequest(size_t prompt_tokens, size_t steps,
                             uint64_t decode_seed) const {
    ServingRequest r;
    r.prompt.resize(prompt_tokens);
    for (size_t i = 0; i < prompt_tokens; ++i) r.prompt[i] = PromptTokenId(i);
    r.max_new_tokens = steps;
    r.record_outputs = true;
    const ModelConfig m = model;
    r.fill_prompt = [m](size_t token, uint32_t layer, float* q, float* k, float* v) {
      FillPromptToken(m, token, layer, q, k, v);
    };
    r.fill_step = [m, decode_seed](size_t step, uint32_t layer, float* q, float* k,
                                   float* v) {
      Rng rng(decode_seed * 1000003ull + step * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
    };
    r.token_at = [decode_seed](size_t step) {
      return static_cast<int32_t>(40000 + decode_seed * 100 + step);
    };
    return r;
  }
};

/// The gate: A's fill_prompt announces itself then parks until opened.
struct PrefillGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;

  void AnnounceAndPark() {
    std::unique_lock<std::mutex> lk(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lk, [this] { return open; });
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return entered; });
  }
  void Open() {
    std::lock_guard<std::mutex> lk(mu);
    open = true;
    cv.notify_all();
  }
};

/// Wraps a request's fill_prompt so its FIRST call parks on `gate` (later
/// calls pass straight through once the gate opens).
void GateFirstFill(ServingRequest* r, PrefillGate* gate) {
  auto inner = r->fill_prompt;
  auto first = std::make_shared<std::atomic<bool>>(true);
  r->fill_prompt = [inner, gate, first](size_t token, uint32_t layer, float* q,
                                        float* k, float* v) {
    if (first->exchange(false)) gate->AnnounceAndPark();
    inner(token, layer, q, k, v);
  };
}

// --- Tentpole acceptance: mid-step admission is DETERMINISTIC, not a race.
// --- B's prefill opening A's gate proves B's chunk ran inside A's step.

TEST(ServingContinuousTest, AdmissionLandsInsideTheRunningStep) {
  constexpr size_t kPromptA = 48, kPromptB = 24, kSteps = 3;
  ContinuousFixture fx(/*import_tokens=*/0);  // Empty store: both fully prefill.
  ServingEngine engine(fx.db.get(), fx.EngineOptions(2));
  ASSERT_TRUE(engine.Start().ok());

  PrefillGate gate;
  ServingRequest a = fx.MakeRequest(kPromptA, kSteps, /*seed=*/71);
  GateFirstFill(&a, &gate);

  ServingRequest b = fx.MakeRequest(kPromptB, kSteps, /*seed=*/72);
  for (auto& t : b.prompt) t += 1'000'000;  // Distinct doc; same fill math.
  auto b_inner = b.fill_prompt;
  b.fill_prompt = [b_inner, &gate](size_t token, uint32_t layer, float* q, float* k,
                                   float* v) {
    // B running AT ALL while A is parked == B was admitted mid-step: A's
    // step cannot end (its wave holds A's unfinished chunk) until here.
    gate.Open();
    b_inner(token, layer, q, k, v);
  };

  auto ha = engine.Submit(std::move(a));
  ASSERT_TRUE(ha.ok()) << ha.status().ToString();
  gate.WaitEntered();  // A is provably mid-step (its chunk is parked).
  auto hb = engine.Submit(std::move(b));
  ASSERT_TRUE(hb.ok()) << hb.status().ToString();

  const RequestResult* ra = ha.value().Wait();
  const RequestResult* rb = hb.value().Wait();
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  EXPECT_TRUE(ra->status.ok()) << ra->status.ToString();
  EXPECT_TRUE(rb->status.ok()) << rb->status.ToString();
  EXPECT_EQ(ra->prefilled_tokens, kPromptA);
  EXPECT_EQ(rb->prefilled_tokens, kPromptB);
  ASSERT_TRUE(engine.Shutdown().ok());

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.midstep_admissions, 1u);
  EXPECT_GE(snap.engine_steps, 1u);
}

// --- The open-loop TTFT equivalence golden (satellite): a burst submitted
// --- while the engine is mid-step decodes bit-identically to a sequential
// --- one-at-a-time run, across several chunk-size / step-budget splits.

TEST(ServingContinuousTest, MidStepBurstMatchesSequentialAcrossBudgetSplits) {
  constexpr size_t kStored = 96, kSuffix = 32, kSteps = 3;

  // Request mix: gated partial-prefix head, then a burst of full-reuse,
  // partial-prefix, and no-match requests.
  auto make_requests = [&](ContinuousFixture& fx) {
    std::vector<ServingRequest> reqs;
    reqs.push_back(fx.MakeRequest(kStored + kSuffix, kSteps, 81));  // Head.
    reqs.push_back(fx.MakeRequest(kStored, kSteps, 82));            // Full reuse.
    reqs.push_back(fx.MakeRequest(kStored + 24, kSteps, 83));       // Partial.
    ServingRequest fresh = fx.MakeRequest(40, kSteps, 84);          // No match.
    for (auto& t : fresh.prompt) t += 1'000'000;
    reqs.push_back(std::move(fresh));
    return reqs;
  };

  // Sequential golden: one at a time, default (unbudgeted) scheduler.
  std::vector<RequestResult> golden;
  {
    ContinuousFixture fx(kStored);
    ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
    std::vector<uint64_t> ids;
    for (auto& r : make_requests(fx)) {
      auto id = engine.Submit(std::move(r));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value().id());
    }
    ASSERT_TRUE(engine.RunToCompletion().ok());
    for (uint64_t id : ids) {
      const RequestResult* r = engine.result(id);
      ASSERT_NE(r, nullptr);
      ASSERT_TRUE(r->status.ok()) << r->status.ToString();
      golden.push_back(*r);
    }
  }

  struct Split {
    size_t chunk;
    size_t budget;
  };
  const Split splits[] = {
      {4, 0},    // Tiny chunks, unlimited budget.
      {8, 12},   // Budget covers head chunk + part of the next.
      {16, 6},   // Budget below one chunk: floor carries the head.
      {32, 48},  // Roomy budget.
      {16, 12},  // Budget three quarters of a chunk.
  };
  for (const Split& s : splits) {
    SCOPED_TRACE(testing::Message() << "chunk=" << s.chunk << " budget=" << s.budget);
    ContinuousFixture fx(kStored);
    ServingEngineOptions opts = fx.EngineOptions(4);
    opts.scheduler.prefill_chunk_tokens = s.chunk;
    opts.scheduler.step_token_budget = s.budget;
    ServingEngine engine(fx.db.get(), opts);
    ASSERT_TRUE(engine.Start().ok());

    std::vector<ServingRequest> reqs = make_requests(fx);
    PrefillGate gate;
    GateFirstFill(&reqs[0], &gate);

    std::vector<RequestHandle> handles;
    auto head = engine.Submit(std::move(reqs[0]));
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    handles.push_back(head.value());
    gate.WaitEntered();  // The engine is provably mid-step...
    for (size_t i = 1; i < reqs.size(); ++i) {  // ...when the burst arrives.
      auto id = engine.Submit(std::move(reqs[i]));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      handles.push_back(id.value());
    }
    // Hold the head's parked chunk until the driver's poll loop has pulled
    // at least one burst request into the RUNNING step (the snapshot
    // publishes mid-step admissions immediately). The step cannot end while
    // the gate is closed, so this converges deterministically.
    while (engine.snapshot().midstep_admissions == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate.Open();

    for (size_t i = 0; i < handles.size(); ++i) {
      const RequestResult* r = handles[i].Wait();
      ASSERT_NE(r, nullptr);
      ASSERT_TRUE(r->status.ok()) << "request " << i << ": " << r->status.ToString();
      EXPECT_EQ(r->prefilled_tokens, golden[i].prefilled_tokens) << "request " << i;
      ASSERT_EQ(r->outputs.size(), golden[i].outputs.size()) << "request " << i;
      EXPECT_EQ(r->outputs, golden[i].outputs) << "request " << i;
      // Mid-step retirement credits the decode phase its wall time.
      EXPECT_GT(r->decode_wall_seconds, 0.0) << "request " << i;
      if (r->prefilled_tokens > 0) {
        EXPECT_GT(r->prefill_wall_seconds, 0.0) << "request " << i;
      }
    }
    ASSERT_TRUE(engine.Shutdown().ok());
    const ServingSnapshot snap = engine.snapshot();
    // Every session's last token decodes in a step that retires it mid-step.
    EXPECT_EQ(snap.midstep_retirements, reqs.size());
    // The burst was queued while the head's wave was parked and the driver
    // polls admission between wave checks, so at least one request MUST have
    // been admitted inside that step.
    EXPECT_GE(snap.midstep_admissions, 1u);
  }
}

// --- Prefill/decode overlap: sessions in both phases share a step.

TEST(ServingContinuousTest, PrefillingAndDecodingSessionsShareSteps) {
  constexpr size_t kSteps = 6;
  ContinuousFixture fx(/*import_tokens=*/96);
  ServingEngineOptions opts = fx.EngineOptions(2);
  opts.scheduler.prefill_chunk_tokens = 4;  // Many chunks: long prefill phase.
  ServingEngine engine(fx.db.get(), opts);

  // Full-reuse request decodes from step one; the no-match request needs
  // 40 / 4 = 10 chunked steps of prefill first. Both submitted up front: the
  // decoder must not stall behind the prefiller, nor vice versa.
  auto decode_now = engine.Submit(fx.MakeRequest(96, kSteps, 91));
  ServingRequest fresh = fx.MakeRequest(40, kSteps, 92);
  for (auto& t : fresh.prompt) t += 1'000'000;
  auto prefills = engine.Submit(std::move(fresh));
  ASSERT_TRUE(decode_now.ok());
  ASSERT_TRUE(prefills.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());

  const RequestResult* d = engine.result(decode_now.value().id());
  const RequestResult* p = engine.result(prefills.value().id());
  ASSERT_NE(d, nullptr);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(d->status.ok()) << d->status.ToString();
  ASSERT_TRUE(p->status.ok()) << p->status.ToString();
  EXPECT_EQ(d->steps_completed, kSteps);
  EXPECT_EQ(p->prefilled_tokens, 40u);

  // Overlap proof: phase-serialized would cost 10 (P prefill) + 6 (P decode)
  // + 6 (D decode) = 22 steps; interleaved, D's 6 decode steps ride inside
  // P's 10 prefill steps, so the run fits in ~16 (10 prefill + P's 6 decode).
  const ServingSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.engine_steps, 16u);
  EXPECT_LT(snap.engine_steps, 22u);
  EXPECT_EQ(snap.peak_concurrent_sessions, 2u);
}

}  // namespace
}  // namespace alaya
