// Persistence of stored contexts through the vector file system (§7.3):
// each (layer, KV head)'s keys, values, and fine-index adjacency are written
// to block-structured vector files, so contexts survive restarts and cold
// contexts can be spilled from host DRAM to NVMe.
//
// File naming: "<prefix>_L<layer>_H<head>_keys" / "..._vals"; the graph
// adjacency rides in the keys file's index blocks (the layout the paper
// describes: data blocks and graph-linked index blocks in one file).
// A small manifest file ("<prefix>_manifest") records geometry, tokens,
// device affinity, payload sizes and the original index build accounting —
// everything the tiered store needs to register a spilled placeholder
// without touching the (much larger) KV payload files.
//
// Torn-write safety: the payload head files are written FIRST and the
// manifest LAST, so the manifest is the commit record — a crash mid-persist
// leaves payload files with no manifest, which warm start simply never sees.
// The manifest itself ends in a trailer (magic, generation stamp, checksum
// over every preceding row), so a torn or bit-rotted manifest is detected and
// rejected as Corruption instead of resurrecting a half-persisted context.
#pragma once

#include <string>
#include <vector>

#include "src/core/context_store.h"
#include "src/storage/vector_file_system.h"

namespace alaya {

/// Everything a manifest records beyond the raw KV payload. Reading this is
/// cheap (one small file) — warm start registers placeholders from it and
/// defers the per-head files until a prefix hit demand-pages them.
struct ContextManifest {
  size_t length = 0;
  uint32_t num_layers = 0;
  uint32_t num_kv_heads = 0;
  uint32_t head_dim = 0;
  bool has_fine = false;
  int resident_device = 0;
  uint64_t kv_bytes = 0;     ///< DeployedBytes of the persisted KV cache.
  uint64_t index_bytes = 0;  ///< Context::SpilledIndexBytes() when persisted.
  IndexBuildStats build_stats;
  std::vector<int32_t> tokens;
  /// KV quantization codec (manifest v3). v2 manifests — everything persisted
  /// before codecs existed — load as kFp32 with empty params.
  VectorCodec kv_codec = VectorCodec::kFp32;
  /// Per-(layer, kv_head) affine params, KvCache Slot() order (layer-major);
  /// empty for kFp32.
  std::vector<CodecParams> key_params;
  std::vector<CodecParams> val_params;
  /// Monotone stamp the tiered store assigns per persist — distinguishes a
  /// re-persisted context from a stale manifest generation on warm start.
  uint64_t generation = 0;
};

class ContextSerializer {
 public:
  explicit ContextSerializer(VectorFileSystem* vfs) : vfs_(vfs) {}

  /// Persists the context's KV cache and (if built) its fine-index graphs.
  /// `prefix` namespaces the files (e.g. "ctx42"). Payload files land first;
  /// the manifest — stamped with `generation` and ending in a checksum
  /// trailer — is written last, as the commit record.
  ///
  /// Quantized KV: the payload rows are already on the codec's grid (fp32
  /// storage convention), so they persist verbatim; the manifest is written
  /// in the v3 layout, which adds the codec id and the per-head scale /
  /// zero-point rows. fp32 contexts keep writing the v2 layout byte-for-byte,
  /// and v2 manifests load as kFp32 — old spill directories stay readable.
  Status Persist(const Context& context, const std::string& prefix,
                 uint64_t generation = 0);

  /// Loads a previously persisted context. Fine indices are restored from the
  /// stored adjacency (no rebuild; fine_indices_restored() proves it), and
  /// the manifest's resident_device / build_stats carry over — a warm-started
  /// store keeps device affinity and the original construction cost.
  /// `id` becomes the context's id.
  Result<std::unique_ptr<Context>> Load(const std::string& prefix, uint64_t id,
                                        const ModelConfig& model,
                                        const RoarGraphOptions& graph_options);

  /// Reads only the manifest — no KV, no adjacency. Rejects manifests whose
  /// geometry does not match `model` (same contract as Load).
  Result<ContextManifest> LoadManifest(const std::string& prefix,
                                       const ModelConfig& model);

  /// The manifest name for a namespace prefix ("ctx42" -> "ctx42_manifest");
  /// warm start enumerates VFS names and inverts this.
  static std::string ManifestName(const std::string& prefix);

 private:
  static std::string HeadName(const std::string& prefix, uint32_t layer,
                              uint32_t head, const char* what);
  /// LoadManifest body; the public wrapper maps OutOfRange (file shorter than
  /// its own geometry claims — a torn write) to Corruption.
  Result<ContextManifest> LoadManifestImpl(const std::string& prefix,
                                           const ModelConfig& model);

  VectorFileSystem* vfs_;
};

}  // namespace alaya
