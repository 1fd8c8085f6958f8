// LMCache-style KV-cache disaggregation baseline (§9.1.2, Fig. 10).
//
// Stores the *compressed* KV cache of a full context in host memory; on reuse
// it must decompress and transfer the whole cache to the GPU before decoding
// with full attention — so TTFT grows linearly with context length. AlayaDB
// instead decodes directly on the offloaded cache through its indices.
#pragma once

#include <cstdint>
#include <map>

#include "src/common/status.h"
#include "src/device/device.h"

namespace alaya {

struct LmCacheOptions {
  /// CacheGen-style compression ratio on KV bytes.
  double compression_ratio = 2.5;
};

class LmCacheStore {
 public:
  explicit LmCacheStore(const LmCacheOptions& options = LmCacheOptions{},
                        SimEnvironment* env = nullptr);
  /// Returns every live entry's compressed bytes to the host tracker.
  ~LmCacheStore();

  LmCacheStore(const LmCacheStore&) = delete;
  LmCacheStore& operator=(const LmCacheStore&) = delete;

  /// Drops a stored context, freeing its compressed host bytes — the
  /// symmetric counterpart of StoreContextBytes, so host accounting returns
  /// to baseline across store/remove cycles. Returns false for unknown ids.
  bool RemoveContext(uint64_t id);

  /// Registers `tokens` of context at `bytes_per_token` deployed KV bytes
  /// (e.g. ModelConfig::KvBytesPerToken), accounted compressed and
  /// host-resident. Re-storing an id replaces its entry.
  Status StoreContextBytes(uint64_t id, size_t tokens, uint64_t bytes_per_token);

  struct LoadBreakdown {
    double decompress_seconds = 0;
    double transfer_seconds = 0;
    double total_seconds = 0;
    uint64_t bytes_moved = 0;
  };

  /// Models loading a stored context into GPU memory (decompress + PCIe).
  Result<LoadBreakdown> Load(uint64_t id);

  /// Modeled first-decode-step time after loading (full attention on GPU).
  double DecodeStepSeconds(uint64_t id) const;

  uint64_t StoredBytes() const;

 private:
  struct Entry {
    uint64_t raw_bytes = 0;
    uint64_t compressed_bytes = 0;
    size_t tokens = 0;
  };

  LmCacheOptions options_;
  SimEnvironment* env_;
  std::map<uint64_t, Entry> entries_;
};

}  // namespace alaya
