#include "src/llm/qkv_generator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/attention/attention_engine.h"
#include "src/common/vector_codec.h"

namespace alaya {

namespace {

/// Stable 64-bit mix for deriving per-(step,layer,head) RNG seeds.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  uint64_t h = a * 0x9e3779b97f4a7c15ULL;
  h ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= c + 0x94d049bb133111ebULL + (h << 6) + (h >> 2);
  h *= 0x94d049bb133111ebULL;
  h ^= d + (h << 6) + (h >> 2);
  return h;
}

/// Fills `out` with a random unit vector.
void RandomUnit(Rng* rng, float* out, size_t d) {
  rng->FillGaussian(out, d);
  NormalizeInPlace(out, d);
}

/// out = cos_target * dir + sqrt(1 - cos^2) * (unit vector orthogonal to dir).
void VectorAtCosine(Rng* rng, const float* dir, float cos_target, float* out,
                    size_t d) {
  std::vector<float> noise(d);
  rng->FillGaussian(noise.data(), d);
  const float proj = Kernels().dot(noise.data(), dir, d);
  Kernels().axpy(noise.data(), dir, d, -proj);  // Orthogonalize.
  NormalizeInPlace(noise.data(), d);
  const float sin_target = std::sqrt(std::max(0.f, 1.f - cos_target * cos_target));
  for (size_t i = 0; i < d; ++i) {
    out[i] = cos_target * dir[i] + sin_target * noise[i];
  }
}

}  // namespace

SyntheticContext::SyntheticContext(const SyntheticContextOptions& options)
    : options_(options) {}

Status SyntheticContext::Generate() {
  ALAYA_RETURN_IF_ERROR(options_.model.Validate());
  const ModelConfig& m = options_.model;
  const WorkloadSpec& spec = options_.spec;
  const size_t n = spec.context_tokens;
  if (n < options_.num_sinks + 16) {
    return Status::InvalidArgument("context too short for the planted structure");
  }

  kv_ = std::make_unique<KvCache>(m);
  plans_.assign(static_cast<size_t>(m.num_layers) * m.num_kv_heads, HeadPlan{});

  // Synthetic token ids: deterministic per (task, seed) so different contexts
  // share no accidental prefixes, while re-generation is reproducible. The
  // task name is folded in because suite seeds are sequential per task — two
  // tasks offset by a per-tenant index can collide on the same numeric seed,
  // which would give distinct documents identical token ids (and make the DB
  // silently "reuse" one tenant's KV for another's prompt).
  tokens_.resize(n);
  uint64_t name_hash = 0xcbf29ce484222325ULL;  // FNV-1a.
  for (char c : spec.name) {
    name_hash = (name_hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  Rng token_rng(spec.seed ^ name_hash ^ 0x746f6b656e734964ULL);
  const int32_t base = static_cast<int32_t>(token_rng.UniformInt(1u << 20)) + 1;
  for (size_t i = 0; i < n; ++i) {
    tokens_[i] = base + static_cast<int32_t>(i);
  }

  ThreadPool* pool = options_.pool != nullptr ? options_.pool : &ThreadPool::Global();
  const size_t total_heads = static_cast<size_t>(m.num_layers) * m.num_kv_heads;
  std::vector<std::vector<float>> keys(total_heads), values(total_heads);
  std::vector<Status> statuses(total_heads, Status::Ok());
  pool->ParallelFor(0, total_heads, [&](size_t slot) {
    const uint32_t layer = static_cast<uint32_t>(slot / m.num_kv_heads);
    const uint32_t kv_head = static_cast<uint32_t>(slot % m.num_kv_heads);
    GenerateHead(layer, kv_head, MixSeed(spec.seed, layer, kv_head, 0xabcdef),
                 &keys[slot], &values[slot]);
  });

  // Assemble the KvCache layer by layer (token-major packing).
  const size_t d = m.head_dim;
  std::vector<float> krow(static_cast<size_t>(m.num_kv_heads) * d);
  std::vector<float> vrow(static_cast<size_t>(m.num_kv_heads) * d);
  for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
    kv_->Reserve(layer, n);
    for (size_t t = 0; t < n; ++t) {
      for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
        const auto& hk = keys[static_cast<size_t>(layer) * m.num_kv_heads + h];
        const auto& hv = values[static_cast<size_t>(layer) * m.num_kv_heads + h];
        std::memcpy(krow.data() + h * d, hk.data() + t * d, d * sizeof(float));
        std::memcpy(vrow.data() + h * d, hv.data() + t * d, d * sizeof(float));
      }
      kv_->AppendToken(layer, krow.data(), vrow.data());
    }
  }
  return Status::Ok();
}

void SyntheticContext::GenerateHead(uint32_t layer, uint32_t kv_head, uint64_t seed,
                                    std::vector<float>* keys,
                                    std::vector<float>* values) {
  const ModelConfig& m = options_.model;
  const WorkloadSpec& spec = options_.spec;
  const size_t d = m.head_dim;
  const size_t n = spec.context_tokens;
  const uint32_t T = options_.num_topics;
  Rng rng(seed);

  HeadPlan& plan = MutablePlan(layer, kv_head);
  plan.topic_dirs.resize(static_cast<size_t>(T) * d);
  plan.sink_dir.resize(d);
  RandomUnit(&rng, plan.sink_dir.data(), d);
  for (uint32_t t = 0; t < T; ++t) {
    RandomUnit(&rng, plan.topic_dirs.data() + static_cast<size_t>(t) * d, d);
  }

  // Per-head critical-size factor: log-normal across heads (Obs. I), boosted
  // in layer 0 (Fig. 5: early layers need vastly more tokens).
  plan.head_factor = std::exp(spec.head_sigma * rng.Gaussian());
  if (layer == 0) plan.head_factor *= spec.layer0_boost;

  // Topic sizes and disjoint member sets.
  std::vector<size_t> sizes(T);
  size_t total = 0;
  const size_t cap = std::max<size_t>(1, n / (2 * T));
  for (uint32_t t = 0; t < T; ++t) {
    double s = spec.critical_base * plan.head_factor * std::exp(0.35 * rng.Gaussian());
    sizes[t] = std::min<size_t>(cap, std::max<size_t>(1, static_cast<size_t>(s)));
    total += sizes[t];
  }
  const size_t assignable = n - options_.num_sinks;
  std::vector<size_t> picks = rng.SampleWithoutReplacement(assignable, std::min(total, assignable));
  plan.topic_members.assign(T, {});
  size_t cursor = 0;
  for (uint32_t t = 0; t < T; ++t) {
    auto& members = plan.topic_members[t];
    for (size_t i = 0; i < sizes[t] && cursor < picks.size(); ++i, ++cursor) {
      members.push_back(static_cast<uint32_t>(picks[cursor] + options_.num_sinks));
    }
    std::sort(members.begin(), members.end());
  }

  // Keys and values. Values are *individual* random unit vectors: an
  // attention output then reveals exactly how much of the planted critical
  // mass a method recovered (a subset's value mean is uncorrelated with the
  // missing tokens'), so fidelity cannot saturate on partial retrieval.
  keys->assign(n * d, 0.f);
  values->assign(n * d, 0.f);
  // Background key norm rho derived so scaled background logits come out as
  // z ~ N(0, noise_z_sigma): z = rho * |q| * cos(q, k)/sqrt(d) with
  // cos ~ N(0, 1/d) and |q| = sqrt(d * (crit_z_max^2 + sink_z^2)).
  const double query_norm_z = std::sqrt(spec.crit_z_max * spec.crit_z_max +
                                        spec.sink_z * spec.sink_z);
  const float rho = static_cast<float>(spec.bg_key_norm * spec.noise_z_sigma *
                                       std::sqrt(static_cast<double>(d)) /
                                       query_norm_z);
  for (size_t i = 0; i < n; ++i) {
    float* k = keys->data() + i * d;
    rng.FillGaussian(k, d);
    NormalizeInPlace(k, d);
    Kernels().scale(k, d, rho);
    float* v = values->data() + i * d;
    rng.FillGaussian(v, d);
    NormalizeInPlace(v, d);
  }
  // Sinks: unit keys along the sink direction; near-zero value mass.
  for (uint32_t s = 0; s < options_.num_sinks && s < n; ++s) {
    float* k = keys->data() + static_cast<size_t>(s) * d;
    VectorAtCosine(&rng, plan.sink_dir.data(), 0.995f, k, d);
    float* v = values->data() + static_cast<size_t>(s) * d;
    Kernels().scale(v, d, static_cast<float>(options_.sink_value_scale));
  }
  // Critical tokens: keys at exact cosine so z lands in the task band.
  for (uint32_t t = 0; t < T; ++t) {
    const float* dir = plan.topic_dirs.data() + static_cast<size_t>(t) * d;
    for (uint32_t id : plan.topic_members[t]) {
      const double z = spec.crit_z_min +
                       rng.Uniform() * (spec.crit_z_max - spec.crit_z_min);
      const float cos_target = static_cast<float>(z / spec.crit_z_max);
      VectorAtCosine(&rng, dir, cos_target, keys->data() + static_cast<size_t>(id) * d,
                     d);
    }
  }
}

uint32_t SyntheticContext::StepTopic(size_t step, uint32_t layer, uint32_t q_head) const {
  return static_cast<uint32_t>((step + 3 * q_head + 7 * layer) % options_.num_topics);
}

void SyntheticContext::BuildQuery(uint32_t layer, uint32_t kv_head, uint32_t topic,
                                  Rng* rng, float* q, double jitter_scale) const {
  const size_t d = options_.model.head_dim;
  const WorkloadSpec& spec = options_.spec;
  const HeadPlan& plan = Plan(layer, kv_head);
  const float* dir = plan.topic_dirs.data() + static_cast<size_t>(topic) * d;

  // Jitter is specified as the target angular offset: a Gaussian perturbation
  // of per-dimension scale j has norm ~ j*sqrt(d), so normalize it out.
  std::vector<float> jitter(d);
  rng->FillGaussian(jitter.data(), d);
  const float js = static_cast<float>(jitter_scale / std::sqrt(static_cast<double>(d)));
  for (size_t i = 0; i < d; ++i) {
    q[i] = dir[i] + js * jitter[i];
  }
  NormalizeInPlace(q, d);
  const float sqrt_d = std::sqrt(static_cast<float>(d));
  const float query_scale = static_cast<float>(spec.crit_z_max) * sqrt_d;
  Kernels().scale(q, d, query_scale);
  // Sink component: guarantees the max-IP key lives in the window.
  Kernels().axpy(q, plan.sink_dir.data(), d, static_cast<float>(spec.sink_z) * sqrt_d);
}

void SyntheticContext::MakeDecodeQuery(size_t step, uint32_t layer, uint32_t q_head,
                                       float* q) const {
  const uint32_t kv_head = options_.model.KvHeadForQuery(q_head);
  Rng rng(MixSeed(options_.spec.seed, step, layer, 0x51000 + q_head));
  BuildQuery(layer, kv_head, StepTopic(step, layer, q_head), &rng, q,
             options_.query_jitter);
}

void SyntheticContext::MakeDecodeQueryLayer(size_t step, uint32_t layer,
                                            float* q) const {
  const size_t d = options_.model.head_dim;
  for (uint32_t h = 0; h < options_.model.num_q_heads; ++h) {
    MakeDecodeQuery(step, layer, h, q + static_cast<size_t>(h) * d);
  }
}

const std::vector<uint32_t>& SyntheticContext::CriticalSet(size_t step, uint32_t layer,
                                                           uint32_t q_head) const {
  const uint32_t kv_head = options_.model.KvHeadForQuery(q_head);
  return Plan(layer, kv_head).topic_members[StepTopic(step, layer, q_head)];
}

const std::vector<uint32_t>& SyntheticContext::TopicMembers(uint32_t layer,
                                                            uint32_t kv_head,
                                                            uint32_t topic) const {
  return Plan(layer, kv_head).topic_members[topic];
}

double SyntheticContext::HeadFactor(uint32_t layer, uint32_t kv_head) const {
  return Plan(layer, kv_head).head_factor;
}

void SyntheticContext::OracleOutput(size_t step, uint32_t layer, uint32_t q_head,
                                    float* out) const {
  const ModelConfig& m = options_.model;
  const uint32_t kv_head = m.KvHeadForQuery(q_head);
  std::vector<float> q(m.head_dim);
  MakeDecodeQuery(step, layer, q_head, q.data());

  std::vector<uint32_t> ids;
  for (uint32_t s = 0; s < options_.num_sinks; ++s) ids.push_back(s);
  const auto& critical = CriticalSet(step, layer, q_head);
  ids.insert(ids.end(), critical.begin(), critical.end());
  SparseAttentionHead(q.data(), kv_->Keys(layer, kv_head), kv_->Values(layer, kv_head),
                      ids, out);
}

std::unique_ptr<QuerySamples> SyntheticContext::MakeTrainingQueries(
    size_t per_head) const {
  auto samples = std::make_unique<QuerySamples>(options_.model);
  const ModelConfig& m = options_.model;
  const size_t d = m.head_dim;
  std::vector<float> row(static_cast<size_t>(m.num_q_heads) * d);
  for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
    for (size_t i = 0; i < per_head; ++i) {
      for (uint32_t h = 0; h < m.num_q_heads; ++h) {
        const uint32_t kv_head = m.KvHeadForQuery(h);
        const uint32_t topic = static_cast<uint32_t>((i + h) % options_.num_topics);
        Rng rng(MixSeed(options_.spec.seed, 0x7261696eULL + i, layer, h));
        BuildQuery(layer, kv_head, topic, &rng, row.data() + static_cast<size_t>(h) * d,
                   options_.training_jitter);
      }
      samples->Record(layer, row.data());
    }
  }
  return samples;
}

}  // namespace alaya
