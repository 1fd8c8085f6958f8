// Layer-by-layer replay for the traced pass: times each layer's public call
// on the workload's own contexts and decode queries, serially, with spans
// around every call so the layers stack and their sums can be reconciled.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "servebench/trace.h"
#include "servebench/workload.h"

namespace servebench {

/// One parent/children reconciliation: the children's summed time as a
/// share of the parent's.
struct Reconciliation {
  std::string parent;
  std::string children;
  double parent_s = 0;
  double children_s = 0;
  /// Accepted range of children_s / parent_s.
  double min_share = 0;
  double max_share = 1;
  double share() const { return parent_s > 0 ? children_s / parent_s : 0; }
  bool ok() const { return share() >= min_share && share() <= max_share; }
};

struct ReplayResult {
  std::map<std::string, double> metrics;
  std::vector<Reconciliation> reconciliations;
  std::string error;  ///< Non-empty when a library call failed.
};

/// Runs the replay against `db` (the workload's deployed DB, engine stopped).
/// `context_ids[i]` is document i's imported context. `scratch_dir` holds a
/// throwaway tier store for the spill / page-in timings; the caller removes
/// it.
ReplayResult RunLayerReplay(const Workload& w, const std::vector<Doc>& docs,
                            const std::vector<uint64_t>& context_ids,
                            alaya::AlayaDB* db, alaya::ThreadPool* pool, uint64_t seed,
                            const std::string& scratch_dir, Tracer* tracer);

}  // namespace servebench
