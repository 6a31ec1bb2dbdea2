// Per-node read-only view over the distributed provenance relations. The
// engine maintains prov / ruleExec as ordinary NDlog views; ProvStore reads
// their rows where they are stored, through the secondary indexes the
// planner registers on prov[VID] and ruleExec[RID], for the distributed
// query engine and the visualizer. It keeps no copy of the graph, so it
// stays correct across Engine::RestoreCheckpoint without being re-attached.
#ifndef NETTRAILS_PROVENANCE_STORE_H_
#define NETTRAILS_PROVENANCE_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/tuple.h"
#include "src/runtime/engine.h"

namespace nettrails {
namespace provenance {

/// One provenance edge: the local tuple VID is derivable via rule execution
/// `rid` stored at node `rloc`. A self-edge (rid == vid) marks a base tuple.
struct ProvEdge {
  Vid rid = 0;
  NodeId rloc = 0;
  bool maybe = false;
  int64_t count = 0;  // derivation count of the edge itself

  bool IsSelf(Vid vid) const { return rid == vid; }
};

/// One rule-execution vertex: rule name plus ordered input tuple VIDs.
struct ExecEntry {
  std::string rule;
  std::vector<Vid> inputs;
  int64_t count = 0;
};

class ProvStore {
 public:
  /// Views `engine`'s provenance tables. The engine must outlive the
  /// store. Without the provenance rewrite the store is empty.
  explicit ProvStore(const runtime::Engine* engine);

  NodeId node() const { return engine_->id(); }
  const runtime::Engine* engine() const { return engine_; }

  /// Edges for a locally stored tuple VID, in the order their prov rows
  /// were inserted (empty if none).
  std::vector<ProvEdge> EdgesFor(Vid vid) const;

  /// Rule execution stored at this node (nullopt if unknown).
  std::optional<ExecEntry> ExecFor(Vid rid) const;

  /// All tuple VIDs with at least one edge, ascending (for graph export).
  std::vector<Vid> AllVids() const;

  /// The engine's provenance version: it moves on every provenance change
  /// and on every checkpoint restore, and never goes backwards. Query
  /// caches validate their entries against it.
  uint64_t version() const { return engine_->provenance_version(); }

  /// Canonical text serialization of this node's provenance slice: every
  /// edge and rule execution with its derivation count, sorted. Two stores
  /// hold the same graph iff their canonical forms are equal, independent
  /// of the order deltas arrived in — the frame-size equivalence suite
  /// compares engines through it (and its diff is readable on failure).
  std::string CanonicalGraph() const;

  size_t edge_count() const;
  size_t exec_count() const;

 private:
  /// `table` if the planner indexed it under `index_id`, else nullptr.
  /// Looked up on every call: RestoreCheckpoint rebuilds the engine's
  /// tables.
  const runtime::Table* View(const char* table, int index_id) const;

  /// Calls `fn` on each row of `table` whose key field is `vid`.
  template <typename Fn>
  void ForEachRow(const char* table, int index_id, Vid vid, Fn&& fn) const;

  const runtime::Engine* engine_;
  /// Ids of the planner's prov[VID] and ruleExec[RID] indexes.
  int prov_index_ = -1;
  int rule_exec_index_ = -1;
};

}  // namespace provenance
}  // namespace nettrails

#endif  // NETTRAILS_PROVENANCE_STORE_H_
