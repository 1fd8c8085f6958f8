// Stored contexts: token sequence + KV cache + per-head vector indices.
// The DB abstraction manages these; sessions reuse them by (partial) prefix
// matching (§5, §7.1).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "src/core/kv_cache.h"
#include "src/core/query_samples.h"
#include "src/core/token_trie.h"
#include "src/device/memory_tracker.h"
#include "src/index/coarse_index.h"
#include "src/index/index_builder.h"
#include "src/index/roargraph.h"

namespace alaya {

/// One imported/stored context: the unit of reuse.
class Context {
 public:
  Context(uint64_t id, std::vector<int32_t> tokens, std::unique_ptr<KvCache> kv)
      : id_(id), tokens_(std::move(tokens)), kv_(std::move(kv)) {}

  uint64_t id() const { return id_; }
  /// Assigned by ContextStore::Add when constructed with id 0.
  void set_id(uint64_t id) { id_ = id; }
  const std::vector<int32_t>& tokens() const { return tokens_; }
  size_t length() const { return tokens_.size(); }
  const KvCache& kv() const { return *kv_; }
  KvCache& mutable_kv() { return *kv_; }

  /// Builds the fine-grained (RoarGraph) indices for all layers, trained on
  /// `queries` (prefill query samples). Pass nullptr to train on keys
  /// themselves (functional, but cross-modal navigation degrades).
  ///
  /// Extend-from-base (index sharing across near-duplicate contexts): when
  /// `base` is a stored context whose ENTIRE token sequence is the first
  /// `base_prefix` tokens of this one and it has compatible fine indices,
  /// each (layer, head) graph is seeded from the base's graph and only the
  /// suffix vectors are inserted — the prefix is never rebuilt (provable via
  /// build_stats().reused_base_nodes). Any incompatibility (partial prefix,
  /// unshared layout, missing indices) silently falls back to a scratch
  /// build. `base` is only read during this call; it need not outlive it.
  Status BuildFineIndices(const IndexBuildOptions& options, const QuerySamples* queries,
                          IndexBuildStats* total_stats = nullptr,
                          const Context* base = nullptr, size_t base_prefix = 0);

  /// Builds coarse (block) indices for all layers/KV heads.
  Status BuildCoarseIndices(const CoarseIndexOptions& options);

  /// Restores GQA-shared fine indices from persisted adjacency (one graph per
  /// (layer, KV head), layer-major). Used by ContextSerializer::Load: the
  /// adjacency is adopted verbatim — no kNN, no projection, no scratch build
  /// ever runs on this path — and fine_indices_restored() flips to true so
  /// warm-start tests can prove it.
  Status RestoreFineIndices(const RoarGraphOptions& options,
                            std::vector<AdjacencyGraph>&& graphs);

  bool HasFineIndices() const { return !fine_.empty(); }
  bool HasCoarseIndices() const { return !coarse_.empty(); }

  /// True when the fine indices were adopted from persisted adjacency
  /// (RestoreFineIndices) rather than built/extended in this process.
  bool fine_indices_restored() const { return fine_restored_; }

  /// Fine index serving (layer, q_head). With GQA sharing this is the KV
  /// head's index; without, each query head has its own.
  const RoarGraph* FineIndex(uint32_t layer, uint32_t q_head) const;
  const CoarseIndex* CoarseIdx(uint32_t layer, uint32_t kv_head) const;

  /// The int8 copy of (layer, kv_head)'s keys the flat DIPR scan runs its
  /// first pass on (FlatIndex). Only layer 0 has one — the layer the
  /// optimizer answers with a flat scan — and only once the fine indices are
  /// built or restored; null otherwise.
  const CodedVectorSet* KeySidecar(uint32_t layer, uint32_t kv_head) const;

  /// Host bytes of every index: fine and coarse indices plus the key
  /// sidecars.
  uint64_t IndexBytes() const;
  /// The sidecars' share of IndexBytes().
  uint64_t KeySidecarBytes() const;
  /// The index bytes a spill writes: each fine index's adjacency. The key
  /// sidecars and the fine indices' coded stores are re-encoded from the keys
  /// on restore, and coarse indices are not persisted, so none of them is.
  /// The disk tier reserves this (plus the deployed KV) and the manifest
  /// records it as `index_bytes`.
  uint64_t SpilledIndexBytes() const;
  const IndexBuildStats& build_stats() const { return build_stats_; }
  /// Restores persisted build accounting (ContextSerializer::Load): a
  /// warm-started context keeps its original construction cost, which the
  /// tiered store's eviction policy models rebuild cost from.
  void set_build_stats(const IndexBuildStats& stats) { build_stats_ = stats; }

  /// Hands the context ownership of its offloaded KV's host-memory
  /// reservation: the tracker bytes are freed when the context is destroyed
  /// (i.e. once removed from the store AND unpinned by every session), keeping
  /// host accounting symmetric across store/remove/spill cycles.
  void AttachHostReservation(MemoryReservation reservation) {
    host_kv_reservation_ = std::move(reservation);
  }

  /// Device affinity: the fleet device whose caches are warm for this context
  /// — where it was materialized, or where the last session to reuse it ran.
  /// A session on another device pays a modeled cross-device transfer for the
  /// device-resident window it pulls over (AlayaDB::CreateSession), after
  /// which residency follows it (last-user-wins). Placement policies read
  /// this through ContextStore::BestPrefixMatch for the affinity bonus.
  int resident_device() const { return resident_device_.load(std::memory_order_relaxed); }
  void set_resident_device(int device) {
    resident_device_.store(device, std::memory_order_relaxed);
  }

 private:
  /// (Re-)encodes key_sidecars_; the last step of every fine-index build,
  /// extend and restore. An int8 KV cache lends its own key params, so the
  /// codes are the ones its deployed form holds.
  void BuildKeySidecars();

  uint64_t id_;
  std::vector<int32_t> tokens_;
  std::unique_ptr<KvCache> kv_;
  MemoryReservation host_kv_reservation_;
  std::atomic<int> resident_device_{0};

  /// fine_[layer * indices_per_layer + slot]; slot is kv_head (shared) or
  /// q_head (unshared).
  std::vector<std::unique_ptr<RoarGraph>> fine_;
  bool fine_shared_ = true;
  bool fine_restored_ = false;
  /// Layer 0's key sidecars, one per KV head (see KeySidecar). Contexts are
  /// immutable once built, so they never go stale.
  std::vector<CodedVectorSet> key_sidecars_;
  std::vector<std::unique_ptr<CoarseIndex>> coarse_;
  IndexBuildStats build_stats_;
};

/// Registry of stored contexts with longest-common-prefix lookup.
///
/// Thread-safety: all methods may be called concurrently (reader/writer lock;
/// lookups take shared locks, Add/Remove/spill transitions exclusive ones).
/// Contexts are reference-counted: `FindShared` / `PrefixMatch::ref` pin the
/// context, so a concurrent `Remove` (or spill) unregisters it from the store
/// but the storage stays alive until the last running session drops its
/// reference — the invariant the multi-session serving engine relies on.
///
/// Tiering (host → disk): a published context can be SPILLED — its resident
/// payload (KV + indices) detached for persistence while its token sequence
/// stays in the prefix trie, so BestPrefixMatch still finds it and reports it
/// as spilled for the caller (TieredContextStore) to demand-page back in.
/// Spilled entries count in size()/Ids() but not in the byte totals;
/// Find/FindShared return null for them (there is nothing resident to pin).
class ContextStore {
 public:
  struct PrefixMatch {
    Context* context = nullptr;
    /// Lifetime pin for `context`; hold it as long as the raw pointer is used.
    std::shared_ptr<Context> ref;
    size_t matched = 0;  ///< Tokens of shared prefix.
    uint64_t id = 0;     ///< Matched context id (0 when nothing matched).
    /// The match is a spilled placeholder: `context`/`ref` are null, but the
    /// stored sequence (and its persisted KV + indices) cover `matched`
    /// tokens — page it in through the tiered store to use it.
    bool spilled = false;
    size_t length = 0;  ///< Full stored sequence length of the match.
    /// Device whose caches are warm for the match — the placement affinity
    /// target: the context's live residency, or the snapshot taken at spill
    /// (the manifest's device) for a spilled match. -1 when nothing matched.
    int device = -1;
    bool full() const { return matched > 0 && matched == length; }
  };

  /// Takes ownership; returns the context id.
  uint64_t Add(std::unique_ptr<Context> context);

  // --- Pending-context lifecycle (background materialization) ---
  //
  // A context being materialized off the decode path must never be observable
  // half-built: ReservePending allocates its id without making anything
  // visible; Publish atomically flips the finished context into the store
  // (from that point Find/BestPrefixMatch can return it); AbortPending
  // abandons a reservation whose materialization failed. Every lookup,
  // Ids(), size() and the byte totals see only published contexts.

  /// Allocates an id for a context whose materialization is still running.
  uint64_t ReservePending();

  /// Publishes the finished context under its reserved id.
  Status Publish(uint64_t id, std::unique_ptr<Context> context);

  /// Drops a reservation whose materialization failed. Returns false when the
  /// id was not pending.
  bool AbortPending(uint64_t id);

  /// Number of reserved-but-unpublished contexts.
  size_t pending() const;

  /// Borrowed lookup — TEST-ONLY, and the name now says so. The raw pointer
  /// is only safe while no concurrent Remove OR spill can run, which on every
  /// serving path is never true now that the tiered store evicts: production
  /// code must use FindShared (the pin keeps a concurrently-evicted context
  /// alive). The only callers are single-threaded tests and setup code; src/
  /// has none.
  Context* FindUnsafeForTest(uint64_t id);
  const Context* FindUnsafeForTest(uint64_t id) const;

  /// Owning lookup: keeps the context alive across a concurrent Remove or
  /// spill. Null for unknown ids AND for spilled entries (nothing resident).
  std::shared_ptr<Context> FindShared(uint64_t id) const;

  // --- Spill / restore (host → disk tiering mechanism) ---
  //
  // The policy — who to evict, where bytes go — lives in TieredContextStore;
  // the store only provides the atomic residency transitions. All three keep
  // the prefix trie untouched: a spilled context still wins prefix matches.

  /// Detaches a published context's resident payload for spilling: the entry
  /// stays (tokens remain in the trie, size()/Ids() still count it) but the
  /// in-memory Context is handed to the caller, whose drop of the returned
  /// reference frees the host bytes (unless a running session still pins it).
  /// The entry remembers the context's device affinity and payload bytes.
  /// Null when the id is unknown, pending, or already spilled.
  std::shared_ptr<Context> DetachForSpill(uint64_t id);

  /// Re-attaches a resident payload to a spilled entry (demand page-in). The
  /// context's token sequence must equal the spilled entry's. Exactly one of
  /// two racing restores wins (AlreadyExists for the loser, whose caller
  /// simply re-reads FindShared).
  Status RestoreSpilled(uint64_t id, std::shared_ptr<Context> context);

  /// Registers a spilled placeholder directly — the warm-start path: an
  /// engine restart enumerates the persistence manifests and re-registers
  /// every on-disk context as spilled, so the trie serves prefix matches
  /// immediately and the payload pages in on first hit. `kv_bytes` /
  /// `index_bytes` record the payload size for tier accounting. Fails if the
  /// id is already live or pending.
  Status AddSpilled(uint64_t id, std::vector<int32_t> tokens, int resident_device,
                    uint64_t kv_bytes, uint64_t index_bytes);

  /// True when the id exists and is currently spilled.
  bool IsSpilled(uint64_t id) const;

  /// The stored context sharing the longest common prefix with `tokens`.
  /// Served by a compressed token trie over published sequences: cost is
  /// O(match length), independent of how many contexts the store holds, and
  /// the winner on ties (lowest id among the maxima) is bit-compatible with
  /// the linear scan this replaced. The trie indexes exactly the published
  /// set — Add/Publish insert, Remove erases, pending reservations are
  /// invisible until published, spilled entries stay (match.spilled set).
  /// Also the admission probe: the store may change before the session is
  /// actually created, so callers treat the result as an estimate, not a
  /// reservation (the pin keeps only the matched payload alive).
  PrefixMatch BestPrefixMatch(std::span<const int32_t> tokens) const;

  bool Remove(uint64_t id);
  /// Published entries, resident AND spilled.
  size_t size() const;
  /// Published entries currently host-resident / currently spilled to disk.
  size_t resident() const;
  size_t spilled() const;
  std::vector<uint64_t> Ids() const;
  std::vector<uint64_t> SpilledIds() const;

  /// Total deployed KV / index bytes across host-RESIDENT stored contexts.
  /// Incrementally maintained counters updated by Add/Publish/Remove and the
  /// spill transitions — O(1), where the old implementation walked every
  /// context under the store lock on each serving snapshot.
  uint64_t TotalKvBytes() const;
  uint64_t TotalIndexBytes() const;

  /// Trie nodes the prefix lookups walk (observability for tests/benches).
  size_t PrefixIndexNodes() const;

 private:
  /// One published context: resident payload (null while spilled) plus the
  /// metadata that must survive a spill — the token sequence (trie erase on
  /// Remove, identity check on restore), device affinity, and payload bytes.
  struct Entry {
    std::shared_ptr<Context> context;
    std::vector<int32_t> tokens;
    int resident_device = 0;  ///< Snapshot while spilled; live value is the
                              ///< context's own atomic while resident.
    uint64_t kv_bytes = 0;    ///< Payload size, resident or not.
    uint64_t index_bytes = 0;
  };

  /// Inserts a resident entry under `id` (caller holds mu_ exclusively):
  /// records payload bytes, bumps the incremental totals, indexes the trie.
  void EmplaceResidentLocked(uint64_t id, std::shared_ptr<Context> context);

  mutable std::shared_mutex mu_;
  std::map<uint64_t, Entry> contexts_;
  std::set<uint64_t> pending_;  ///< Reserved ids, invisible to all lookups.
  /// Prefix index over published contexts' token sequences, kept coherent
  /// under mu_: every path that makes a context visible (Add, Publish,
  /// AddSpilled) inserts it, Remove erases it, pending ids never enter, and
  /// spill/restore leave it untouched.
  TokenTrie prefix_index_;
  uint64_t next_id_ = 1;
  /// Incrementally maintained byte totals over resident entries; asserted
  /// equal to a full scan in context_store_test.
  uint64_t resident_kv_bytes_ = 0;
  uint64_t resident_index_bytes_ = 0;
};

}  // namespace alaya
