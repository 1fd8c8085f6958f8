// Query classes supported by the query processing engine (Fig. 3, §6.2).
//
// Table 4 (which index answers which query) is enforced by the index types
// themselves: every index has SearchTopK, and only FlatIndex and RoarGraph
// have SearchDipr. RuleBasedOptimizer (optimizer.h) pairs each query class
// with an index class that answers it.
#pragma once

namespace alaya {

/// How critical tokens are retrieved for sparse attention.
enum class QueryClass : int {
  kFullAttention = 0,  ///< No retrieval; attend to everything (short contexts).
  kTopK = 1,           ///< Traditional fixed-k retrieval.
  kDipr = 2,           ///< Dynamic inner-product range (Definition 3).
};

}  // namespace alaya
