#include "src/core/tiered_context_store.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace alaya {

namespace {

constexpr char kManifestSuffix[] = "_manifest";
constexpr size_t kManifestSuffixLen = sizeof(kManifestSuffix) - 1;

/// Parses "ctx<digits>" back to the context id; 0 on anything else.
uint64_t ParseSpillName(const std::string& prefix) {
  if (prefix.size() <= 3 || prefix.compare(0, 3, "ctx") != 0) return 0;
  uint64_t id = 0;
  for (size_t i = 3; i < prefix.size(); ++i) {
    const char c = prefix[i];
    if (c < '0' || c > '9') return 0;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  return id;
}

}  // namespace

std::string TieredContextStore::SpillName(uint64_t id) {
  return "ctx" + std::to_string(id);
}

VectorFileSystem::Options TieredContextStore::MakeVfsOptions(
    const ModelConfig& model, const RoarGraphOptions& graph,
    const TierOptions& options) {
  VectorFileSystem::Options o;
  o.in_memory = options.spill_dir.empty();
  if (!o.in_memory) o.dir = options.spill_dir;
  // Spill-file geometry follows the model: rows are per-head key/value
  // vectors, adjacency fans out up to the graphs' build degree.
  o.file.dim = model.head_dim;
  o.file.max_degree = graph.max_degree;
  o.file.block_size = options.file_block_size;
  return o;
}

TieredContextStore::TieredContextStore(ContextStore* store, SimEnvironment* env,
                                       const ModelConfig& model,
                                       const RoarGraphOptions& graph,
                                       const TierOptions& options, ThreadPool* pool)
    : store_(store),
      env_(env),
      model_(model),
      graph_(graph),
      options_(options),
      pool_(pool),
      vfs_(MakeVfsOptions(model, graph, options)),
      serializer_(&vfs_),
      disk_reservation_(&env->disk_usage(), 0) {}

double TieredContextStore::DecayedHitsLocked(const Meta& m) const {
  if (options_.popularity_half_life <= 0 || m.hits == 0) return m.hits;
  const double elapsed = static_cast<double>(tick_ - m.hits_tick);
  return m.hits * std::exp2(-elapsed / options_.popularity_half_life);
}

void TieredContextStore::Touch(uint64_t id, bool hit) {
  std::lock_guard<std::mutex> lk(meta_mu_);
  Meta& m = meta_[id];
  m.last_touch = tick_++;
  if (hit) {
    // Fold the decay in before adding, then restamp: hits stays "weight as
    // of hits_tick" and old popularity fades with a half-life instead of
    // shielding a context forever.
    m.hits = DecayedHitsLocked(m) + 1.0;
    m.hits_tick = m.last_touch;
  }
}

void TieredContextStore::NotifyPublished(uint64_t id) {
  std::shared_ptr<Context> ctx = store_->FindShared(id);
  if (ctx == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    Meta& m = meta_[id];
    m.last_touch = tick_++;
    m.rebuild_seconds = ctx->build_stats().reported_seconds;
    m.kv_bytes = ctx->kv().DeployedBytes();
  }
  if (options_.durable) {
    // Write-through; a failed write stays un-persisted and is retried when
    // eviction actually needs this context on disk.
    (void)PersistOnce(id, *ctx);
  }
  // Drop our pin before enforcing: the freshly published context must be an
  // eviction candidate like any other (e.g. it alone exceeds the budget).
  ctx.reset();
  EnsureHeadroom(0);
}

void TieredContextStore::OnPrefixHit(uint64_t id) { Touch(id, /*hit=*/true); }

uint64_t TieredContextStore::PickVictim() {
  // Cost-aware LRU: evict the context with the highest
  //   age / ((1 + modeled rebuild seconds) * (1 + prefix hits))
  // — the longest-idle context, discounted by how expensive its indices were
  // to build and how popular its prefix is. Contexts pinned by running
  // sessions are never picked (their bytes would not free anyway).
  std::lock_guard<std::mutex> lk(meta_mu_);
  uint64_t victim = 0;
  double best = -1.0;
  for (uint64_t id : store_->Ids()) {
    std::shared_ptr<Context> ctx = store_->FindShared(id);
    if (ctx == nullptr) continue;  // Spilled already.
    // use_count: the store's map entry + our local copy = 2 when unpinned.
    if (ctx.use_count() > 2) continue;
    const auto it = meta_.find(id);
    const Meta m = it != meta_.end() ? it->second : Meta{};
    const double age = static_cast<double>(tick_ - m.last_touch);
    const double score =
        age / ((1.0 + m.rebuild_seconds) * (1.0 + DecayedHitsLocked(m)));
    if (score > best) {
      best = score;
      victim = id;
    }
  }
  return victim;
}

Status TieredContextStore::PersistOnce(uint64_t id, const Context& context) {
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    if (meta_[id].persisted) return Status::Ok();
  }
  std::lock_guard<std::mutex> io(IoMutexFor(id));
  {
    // Re-check: a racer may have persisted while we waited for the I/O lock.
    std::lock_guard<std::mutex> lk(meta_mu_);
    if (meta_[id].persisted) return Status::Ok();
  }
  ALAYA_RETURN_IF_ERROR(serializer_.Persist(context, SpillName(id),
                                            generation_.fetch_add(1)));
  const uint64_t disk_bytes = context.kv().DeployedBytes() + context.SpilledIndexBytes();
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    meta_[id].persisted = true;
    disk_reservation_.ResizeTo(disk_reservation_.bytes() + disk_bytes);
  }
  ++persisted_;
  return Status::Ok();
}

Status TieredContextStore::SpillContext(uint64_t id) {
  std::shared_ptr<Context> ctx = store_->FindShared(id);
  if (ctx == nullptr) {
    return store_->IsSpilled(id)
               ? Status::Ok()  // Already where a spill would put it.
               : Status::NotFound("no resident context to spill");
  }
  ALAYA_RETURN_IF_ERROR(PersistOnce(id, *ctx));
  // Detach AFTER the payload is safely on disk. Dropping the returned
  // reference (and ours) frees the host bytes — unless a running session
  // still pins the context, in which case they free when the pin drops.
  if (store_->DetachForSpill(id) != nullptr) ++spills_;
  return Status::Ok();
}

void TieredContextStore::EnsureHeadroom(uint64_t incoming_bytes) {
  if (options_.host_budget_bytes == 0) return;
  while (store_->TotalKvBytes() + incoming_bytes > options_.host_budget_bytes) {
    const uint64_t victim = PickVictim();
    if (victim == 0) {
      // Everything resident is pinned by running sessions (or the store is
      // empty): spilling would free nothing, so stop rather than spin.
      ++eviction_stalls_;
      return;
    }
    if (!SpillContext(victim).ok()) {
      ++eviction_stalls_;
      return;
    }
  }
}

Result<std::shared_ptr<Context>> TieredContextStore::PageIn(uint64_t id) {
  for (;;) {
    if (std::shared_ptr<Context> ctx = store_->FindShared(id)) {
      Touch(id, /*hit=*/false);
      return ctx;
    }
    if (!store_->IsSpilled(id)) {
      return Status::NotFound("context is neither resident nor spilled");
    }
    uint64_t incoming = 0;
    {
      std::unique_lock<std::mutex> lk(meta_mu_);
      if (page_ins_in_flight_.count(id) > 0) {
        // Another thread is loading this context; piggyback on its result.
        page_in_cv_.wait(lk, [&] { return page_ins_in_flight_.count(id) == 0; });
        continue;
      }
      page_ins_in_flight_.insert(id);
      incoming = meta_[id].kv_bytes;
    }
    // Budget first: the load is about to attach `incoming` host bytes, and
    // the tracker's peak must never cross the budget. The id being paged in
    // is spilled, so it cannot be chosen as its own victim.
    EnsureHeadroom(incoming);
    Result<std::unique_ptr<Context>> loaded = [&] {
      std::lock_guard<std::mutex> io(IoMutexFor(id));
      return serializer_.Load(SpillName(id), id, model_, graph_);
    }();
    std::shared_ptr<Context> restored;
    Status status = loaded.status();
    if (loaded.ok()) {
      restored = std::shared_ptr<Context>(std::move(loaded.value()));
      restored->AttachHostReservation(MemoryReservation(
          &env_->host_memory(), restored->kv().DeployedBytes()));
      status = store_->RestoreSpilled(id, restored);
      if (!status.ok()) restored.reset();  // Reservation frees with it.
    }
    {
      std::lock_guard<std::mutex> lk(meta_mu_);
      page_ins_in_flight_.erase(id);
    }
    page_in_cv_.notify_all();
    if (restored != nullptr) {
      ++page_ins_;
      Touch(id, /*hit=*/false);
      return restored;
    }
    // A racing Remove/restore may have resolved the id; surface whatever the
    // store holds now, otherwise the failure.
    if (std::shared_ptr<Context> ctx = store_->FindShared(id)) return ctx;
    ++page_in_failures_;
    return status;
  }
}

void TieredContextStore::PrefetchAsync(uint64_t id) {
  if (!store_->IsSpilled(id)) return;
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    if (page_ins_in_flight_.count(id) > 0) return;  // Already loading.
    ++pending_async_;
  }
  ++prefetches_;
  pool_->Submit([this, id] {
    (void)PageIn(id);
    {
      std::lock_guard<std::mutex> lk(meta_mu_);
      --pending_async_;
    }
    page_in_cv_.notify_all();
  });
}

TieredContextStore::~TieredContextStore() {
  // Prefetch jobs capture `this`; they must land before members die.
  std::unique_lock<std::mutex> lk(meta_mu_);
  page_in_cv_.wait(lk, [&] { return pending_async_ == 0; });
}

Status TieredContextStore::WarmStart() {
  Status first;
  uint64_t max_generation = 0;
  for (const std::string& name : vfs_.ListNames()) {
    if (name.size() <= kManifestSuffixLen ||
        name.compare(name.size() - kManifestSuffixLen, kManifestSuffixLen,
                     kManifestSuffix) != 0) {
      continue;
    }
    const std::string prefix = name.substr(0, name.size() - kManifestSuffixLen);
    const uint64_t id = ParseSpillName(prefix);
    if (id == 0) continue;  // Foreign file in the namespace; not ours.
    Result<ContextManifest> man = [&] {
      std::lock_guard<std::mutex> io(IoMutexFor(id));
      return serializer_.LoadManifest(prefix, model_);
    }();
    if (!man.ok()) {
      if (man.status().IsCorruption()) {
        // A torn manifest is the expected residue of a crash mid-persist,
        // not an operator error: skip it (the context was never committed)
        // and leave the status clean so intact neighbors still warm-start.
        ++warm_start_skipped_;
      } else if (first.ok()) {
        first = man.status();
      }
      continue;
    }
    const ContextManifest& m = man.value();
    max_generation = std::max(max_generation, m.generation);
    // Manifest only — tokens into the trie, payload stays on disk until a
    // prefix hit pages it in. Ids already live (warm start over a populated
    // store, or a repeat call) are left untouched.
    if (!store_
             ->AddSpilled(id, m.tokens, m.resident_device, m.kv_bytes,
                          m.index_bytes)
             .ok()) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(meta_mu_);
      Meta& meta = meta_[id];
      meta.persisted = true;
      meta.rebuild_seconds = m.build_stats.reported_seconds;
      meta.kv_bytes = m.kv_bytes;
      meta.last_touch = tick_++;
      disk_reservation_.ResizeTo(disk_reservation_.bytes() + m.kv_bytes +
                                 m.index_bytes);
    }
    ++warm_started_;
  }
  // Re-persists after restart must stamp past everything already on disk.
  uint64_t next = generation_.load();
  while (next <= max_generation &&
         !generation_.compare_exchange_weak(next, max_generation + 1)) {
  }
  warm_start_status_ = first;
  return first;
}

TieredContextStore::Stats TieredContextStore::stats() const {
  Stats s;
  s.spills = spills_.load();
  s.page_ins = page_ins_.load();
  s.prefetches = prefetches_.load();
  s.persisted = persisted_.load();
  s.warm_started = warm_started_.load();
  s.warm_start_skipped = warm_start_skipped_.load();
  s.page_in_failures = page_in_failures_.load();
  s.eviction_stalls = eviction_stalls_.load();
  s.host_budget_bytes = options_.host_budget_bytes;
  s.resident_kv_bytes = store_->TotalKvBytes();
  s.resident_contexts = store_->resident();
  s.spilled_contexts = store_->spilled();
  return s;
}

}  // namespace alaya
