// Per-node provenance query result cache (one of the ExSPAN query
// optimizations: "caching previously queried results"). Entries are
// validated against the engine's provenance version, which moves on every
// prov / ruleExec change and on every checkpoint restore, so any change to
// the node's provenance invalidates stale results without eager flushing.
#ifndef NETTRAILS_QUERY_CACHE_H_
#define NETTRAILS_QUERY_CACHE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/tuple.h"
#include "src/common/value.h"

namespace nettrails {
namespace query {

/// Query flavors (Section 2.2: "users can query for a tuple's lineage, the
/// set of all nodes that have been involved in the derivation ... and/or
/// the total number of alternative derivations").
enum class QueryType { kLineage = 0, kNodeSet = 1, kDerivCount = 2 };

/// Child-resolution strategy ("leveraging alternative tree traversal
/// orders"): sequential depth-first (enables early pruning) or parallel
/// breadth-first (lower latency, more concurrent traffic).
enum class Traversal { kSequential = 0, kParallel = 1 };

/// Partial result of resolving one provenance subtree.
struct PartialResult {
  int64_t count = 0;
  /// Leaf (base/event) tuples as (vid, home node).
  std::set<std::pair<Vid, NodeId>> leaves;
  std::set<NodeId> nodes;
  bool truncated = false;  // depth limit or pruning applied underneath

  /// Merges the structural fields (leaves, nodes, truncated) only. `count`
  /// is deliberately NOT combined here: how counts fold depends on the
  /// vertex kind — alternative derivations of a tuple vertex SUM, joint
  /// inputs of a rule-execution vertex MULTIPLY — so the fold owner
  /// (Fanout::Combine in query_engine.cc) accumulates counts itself before
  /// calling this. A blind `count += other.count` here would double-count
  /// under the product fold.
  void MergeStructure(const PartialResult& other) {
    leaves.insert(other.leaves.begin(), other.leaves.end());
    nodes.insert(other.nodes.begin(), other.nodes.end());
    truncated = truncated || other.truncated;
  }
};

/// Cache key: target vertex plus the parameters that affect the result.
struct CacheKey {
  Vid vid = 0;
  QueryType type = QueryType::kLineage;
  bool include_maybe = true;
  int64_t threshold = 0;
  /// Remaining traversal depth at this vertex. Two traversals reaching the
  /// same vertex with different remaining budgets can legitimately produce
  /// different results (a tighter budget truncates more), so depth must
  /// discriminate cache entries.
  uint32_t depth = 0;

  bool operator<(const CacheKey& other) const {
    if (vid != other.vid) return vid < other.vid;
    if (type != other.type) return type < other.type;
    if (include_maybe != other.include_maybe)
      return include_maybe < other.include_maybe;
    if (threshold != other.threshold) return threshold < other.threshold;
    return depth < other.depth;
  }
};

class ResultCache {
 public:
  /// Returns the cached result if present and its stored version matches
  /// `current_version`. Any version advance sweeps the whole cache: every
  /// entry is validated against the store's single version counter, so a
  /// provenance change invalidates all of them at once, and per-key
  /// eviction alone would let keys that are never looked up again
  /// accumulate without bound under churn.
  const PartialResult* Lookup(const CacheKey& key, uint64_t current_version);

  /// Caches `result` under `key`. Truncated results are refused: they
  /// reflect the budget of the traversal that produced them, not the
  /// provenance graph, so serving one to a later query would silently
  /// under-report. Stores tagged with a version older than one already
  /// observed are dropped as stale.
  void Store(const CacheKey& key, uint64_t version, PartialResult result);

  void Clear() {
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return entries_.size(); }

 private:
  // All live entries share `seen_version_`; any other version observed by
  // Lookup/Store clears the map (see Lookup above).
  std::map<CacheKey, PartialResult> entries_;
  uint64_t seen_version_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace query
}  // namespace nettrails

#endif  // NETTRAILS_QUERY_CACHE_H_
