// Workload definitions and input generation for the serving benchmark.
//
// The documents are a fixed corpus per workload: ∞-Bench synthetic contexts
// on the bench geometry, generated from the suite's own task seeds. --seed
// drives the traffic over them: each request's decode-query offset and, in
// the open loop, its send time. The corpus is fixed because per-head
// critical-set sizes are log-normal across generator seeds, so a per-seed
// corpus would move decode cost by tens of percent between seeds and hide
// any change smaller than that.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/alaya_db.h"
#include "src/llm/qkv_generator.h"
#include "src/server/serving_engine.h"

namespace servebench {

struct Workload {
  const char* name;
  /// The ∞-Bench tasks whose documents form the corpus, one per stream.
  std::array<const char*, 4> tasks;
  /// InfinityBenchSuite context scale (document lengths).
  double context_scale;
  /// Share of each document imported; prompts are the whole document, so the
  /// rest goes through chunked prefill.
  double import_fraction;
  /// Mean decoded tokens per request; each request draws its count
  /// uniformly from [decode_tokens / 2, 3 * decode_tokens / 2).
  size_t decode_tokens;
  /// Closed loop: requests kept in flight. 0 selects the open loop.
  size_t clients;
  /// Open loop: Poisson arrivals per second.
  double rate;
  size_t max_sessions;
  size_t tenants;
  size_t devices;
  size_t step_token_budget;
  size_t prefill_chunk_tokens;
  /// SLO limits for slo_attainment: TTFT and the largest gap between two
  /// tokens of one request, both in milliseconds. Each is 10x its idle
  /// figure (TTFT p50, token-gap p99), measured once and rounded.
  double slo_ttft_ms;
  double slo_gap_ms;
};

/// The named workloads; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// One generated document and everything derived from it up front.
struct Doc {
  std::unique_ptr<alaya::SyntheticContext> ctx;
  size_t import_tokens = 0;
  std::unique_ptr<alaya::QuerySamples> training;
};

/// Generates the workload's documents, one per task in `w.tasks`
/// (synthetic KV generation is the load generator's work and is not part of
/// set-up time).
std::vector<Doc> MakeDocs(const Workload& w, alaya::ThreadPool* pool);

/// Everything one request's inputs are derived from. Requests form one
/// stream per document: stream s reads document s, and its n-th request is
/// (s, n). The closed loop pins each client to one stream; the open loop
/// deals its arrivals to the streams round robin. So a plan, and with it the
/// fidelity and golden samples, depends only on the seed, never on which
/// request finishes first.
struct RequestPlan {
  size_t index = 0;  ///< Submission order; names the request in spans and checks.
  size_t stream = 0;
  size_t n = 0;
  size_t doc = 0;
  size_t query_offset = 0;  ///< Decode step s uses query step offset + s.
  size_t decode_tokens = 0;
  uint64_t tenant = 0;
  bool record = false;  ///< record_outputs: fidelity and golden sample.
};

/// The plan of request `n` of `stream`; random access, independent of timing.
RequestPlan PlanRequest(const Workload& w, const std::vector<Doc>& docs,
                        uint64_t seed, size_t stream, size_t n);

/// Requests whose outputs are recorded: the first kRecordedPerStream of each
/// stream are the fidelity sample, and the first of each the golden sample.
inline constexpr size_t kRecordedPerStream = 4;
inline bool InFidelitySample(const RequestPlan& p) { return p.n < kRecordedPerStream; }
inline bool InGoldenSample(const RequestPlan& p) { return p.n == 0; }

/// Open-loop send times (seconds from the start) of every arrival before
/// `horizon_s`: Poisson arrivals at the workload's rate, conditioned on
/// exactly that many in each second.
std::vector<double> ArrivalSchedule(const Workload& w, uint64_t seed, double horizon_s);

/// Decode step inputs: the document's decode query for step offset + step;
/// decoded K and V are zero, so the oracle output stays the right answer.
void FillDecode(const alaya::SyntheticContext& doc, size_t offset, size_t step,
                uint32_t layer, float* q, float* k, float* v);

/// Prompt token inputs: the document's own K/V rows and a seeded query.
void FillPrompt(const alaya::SyntheticContext& doc, size_t token, uint32_t layer,
                float* q, float* k, float* v);

/// DB options shared by set-up and the replay.
alaya::DbOptions MakeDbOptions(alaya::ThreadPool* pool);

alaya::ServingEngineOptions MakeEngineOptions(const Workload& w, alaya::ThreadPool* pool);

}  // namespace servebench
