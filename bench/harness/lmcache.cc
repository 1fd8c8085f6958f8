#include "bench/harness/lmcache.h"

namespace alaya {

LmCacheStore::LmCacheStore(const LmCacheOptions& options, SimEnvironment* env)
    : options_(options), env_(env != nullptr ? env : &SimEnvironment::Global()) {}

LmCacheStore::~LmCacheStore() {
  for (const auto& [_, e] : entries_) env_->host_memory().Free(e.compressed_bytes);
}

bool LmCacheStore::RemoveContext(uint64_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  env_->host_memory().Free(it->second.compressed_bytes);
  entries_.erase(it);
  return true;
}

Status LmCacheStore::StoreContextBytes(uint64_t id, size_t tokens,
                                       uint64_t bytes_per_token) {
  Entry e;
  e.raw_bytes = static_cast<uint64_t>(tokens) * bytes_per_token;
  e.compressed_bytes = static_cast<uint64_t>(static_cast<double>(e.raw_bytes) /
                                             options_.compression_ratio);
  e.tokens = tokens;
  if (auto it = entries_.find(id); it != entries_.end()) {
    env_->host_memory().Free(it->second.compressed_bytes);  // Re-store: swap.
  }
  entries_[id] = e;
  env_->host_memory().Allocate(e.compressed_bytes);
  return Status::Ok();
}

Result<LmCacheStore::LoadBreakdown> LmCacheStore::Load(uint64_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return Status::NotFound("context not in LMCache store");
  const Entry& e = it->second;
  const CostModel& cost = env_->cost_model();
  LoadBreakdown b;
  // Decompression on host, then raw KV crosses PCIe. (CacheGen pipelines the
  // two; we follow LMCache's load path where decode cannot start until the
  // full layer set is resident — the dominant cost either way.)
  b.decompress_seconds = cost.DecompressSeconds(e.compressed_bytes);
  b.transfer_seconds = cost.TransferSeconds(e.raw_bytes);
  b.total_seconds = b.decompress_seconds + b.transfer_seconds;
  b.bytes_moved = e.raw_bytes;
  env_->gpu_memory().Allocate(e.raw_bytes);
  env_->gpu_clock().Advance(b.total_seconds);
  return b;
}

double LmCacheStore::DecodeStepSeconds(uint64_t id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return 0;
  return env_->cost_model().HfDecodeAttentionSeconds(it->second.raw_bytes);
}

uint64_t LmCacheStore::StoredBytes() const {
  uint64_t b = 0;
  for (const auto& [_, e] : entries_) b += e.compressed_bytes;
  return b;
}

}  // namespace alaya
