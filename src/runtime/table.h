// Materialized tables with derivation counting and key-replacement.
//
// Two storage semantics, selected by the declared primary key:
//  * keys cover all fields  -> bag semantics with derivation counting: a
//    tuple stays visible while its derivation count is positive (supports
//    incremental deletion of recursively derived views);
//  * keys are a proper subset -> key replacement (P2/RapidNet semantics):
//    inserting a tuple with an existing key retracts the previous tuple for
//    that key with cascade. Used for base state and aggregate outputs.
//
// Storage layout: rows live in a slab of recycled slots addressed by
// generation-tagged 32-bit handles, with a flat open-addressing
// (robin-hood) primary index from the 64-bit key-projection hash to a slot
// chain (the chain plus an equality walk makes 64-bit collisions
// harmless). Erased slots go on a free list and KEEP their field buffers;
// re-inserting a row of the same shape copy-assigns into the recycled
// buffers, so steady-state churn (the converged-flap workload: the same
// rows retracted and re-derived) allocates nothing — no map nodes, no
// fresh ValueLists. Generation tags make stale handles detectable instead
// of silently aliasing the slot's next tenant.
//
// Deterministic iteration (broadcast joins, snapshots, scans) goes through
// OrderedView(), a lazily built, cached sorted view whose order is exactly
// the old ordered-map order (sorted by key projection); it is only rebuilt
// after an insert or erase, and the hot-churn tables (prov / ruleExec)
// are never iterated. Planner-selected secondary hash indexes
// (AddIndex/Probe) map a projection of argument positions to the row
// handles matching it, so the engine's join loop probes instead of
// scanning; their buckets are slab-recycled the same way the rows are.
#ifndef NETTRAILS_RUNTIME_TABLE_H_
#define NETTRAILS_RUNTIME_TABLE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/common/hash.h"
#include "src/common/tuple.h"
#include "src/common/value.h"
#include "src/ndlog/analysis.h"

namespace nettrails {
namespace runtime {

/// A visible change to a table, in application order.
struct TableAction {
  ValueList fields;
  int64_t mult = 1;  // derivation-count delta, always positive
  bool is_delete = false;
};

/// Recycling buffer of TableActions for the per-delta hot path. Reset()
/// rewinds the logical size without destroying elements, so each action's
/// ValueList keeps its buffer and the next delta's plan copy-assigns into
/// retained capacity instead of allocating (a plain vector's clear() frees
/// every fields buffer). Append() returns a slot whose previous contents
/// are unspecified — the caller must assign fields, mult, and is_delete.
class ActionBuffer {
 public:
  TableAction& Append() {
    if (used_ == storage_.size()) storage_.emplace_back();
    return storage_[used_++];
  }
  void Reset() { used_ = 0; }
  size_t size() const { return used_; }
  bool empty() const { return used_ == 0; }
  const TableAction* begin() const { return storage_.data(); }
  const TableAction* end() const { return storage_.data() + used_; }
  const TableAction& operator[](size_t i) const { return storage_[i]; }

 private:
  std::vector<TableAction> storage_;
  size_t used_ = 0;
};

/// Lexicographic ordering on value lists (Value::Compare per element).
struct ValueListLess {
  bool operator()(const ValueList& a, const ValueList& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Hash over a value list. Value::Hash guarantees Compare()==0 implies equal
/// hashes across numeric kinds, so this is consistent with ValueListEq.
/// List elements reuse the digest cached in their shared rep.
struct ValueListHash {
  size_t operator()(const ValueList& v) const {
    Hasher h;
    AddValueRange(&h, v.data(), v.data() + v.size());
    return static_cast<size_t>(h.Digest());
  }
};

/// Element-wise Value equality (numeric kinds compare by value, matching the
/// engine's MatchAtom semantics).
struct ValueListEq {
  bool operator()(const ValueList& a, const ValueList& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
};

class Table {
 public:
  struct Row {
    ValueList fields;
    int64_t count = 0;
  };

  /// Generation-tagged handle to a visible row: a 32-bit slot index plus
  /// the slot's generation at handle creation. Valid until the row's
  /// derivation count reaches zero; after that, Deref of the stale handle
  /// asserts and HandleValid() returns false — even if the slot has been
  /// recycled for a new row (the recycle bumped the generation). Handles
  /// survive slab growth (they are indices, not pointers).
  struct RowHandle {
    uint32_t idx = 0xffffffffu;
    uint32_t gen = 0;

    bool operator==(const RowHandle& o) const {
      return idx == o.idx && gen == o.gen;
    }
    bool operator!=(const RowHandle& o) const { return !(*this == o); }
  };

  explicit Table(ndlog::TableInfo info);

  // Handles are slab indices, so moving the table keeps them valid;
  // copying is still deleted (two tables sharing handle space would be a
  // footgun, and nothing needs it).
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const ndlog::TableInfo& info() const { return info_; }
  const std::string& name() const { return info_.name; }

  /// The row a handle refers to. The handle must be live (assert-checked:
  /// generation and occupancy); the reference is valid until the next
  /// mutation.
  const Row& Deref(RowHandle h) const {
    assert(HandleValid(h));
    return slots_[h.idx].row;
  }

  /// True if `h` still refers to the row it was created for (its slot is
  /// occupied and the generation matches — erase and recycling both bump
  /// the generation).
  bool HandleValid(RowHandle h) const {
    return h.idx < slots_.size() && slots_[h.idx].live &&
           slots_[h.idx].gen == h.gen;
  }

  /// Plans the visible actions for a delta of `mult` (> 0) derivations of
  /// `fields`, appending them to `out` in application order WITHOUT
  /// mutating the stored rows:
  ///  * an insert yields one insert action, preceded by a full retraction
  ///    of the displaced tuple when it replaces another tuple's key;
  ///  * a delete yields one delete action clamped to the stored count. A
  ///    delete of a tuple that is not present (e.g. an in-flight retraction
  ///    racing a replacement) yields nothing and is counted in
  ///    spurious_deletes() — the only state planning touches, which is why
  ///    it is non-const.
  void Plan(const ValueList& fields, int64_t mult, bool is_delete,
            ActionBuffer* out);

  /// Applies one planned action to the stored counts, maintaining every
  /// secondary index.
  void Apply(const TableAction& action);

  /// All visible rows sorted by key projection — bit-for-bit the iteration
  /// order of the ordered-map storage this table used to keep, which the
  /// golden derivation trace and snapshot determinism depend on. Built
  /// lazily and cached; any insert or erase invalidates the cache (count
  /// adjustments that leave the row set unchanged do not). The returned
  /// vector is invalidated by the next insert or erase, like Probe()
  /// results.
  const std::vector<RowHandle>& OrderedView() const;

  /// Ordered-view rebuilds so far (diagnostics: hot-churn tables should
  /// never pay one).
  uint64_t ordered_view_rebuilds() const { return ordered_view_rebuilds_; }

  /// Row whose key projection matches `fields`' projection, else nullptr.
  const Row* FindByKeyOf(const ValueList& fields) const;

  /// Row stored under exactly this key projection, else nullptr.
  const Row* FindByKey(const ValueList& key) const;

  /// Derivation count of exactly `fields` (0 if absent).
  int64_t CountOf(const ValueList& fields) const;

  /// Number of visible (distinct) tuples.
  size_t size() const { return live_count_; }

  /// All visible tuples as Tuple objects, in OrderedView() order (for tests
  /// and snapshots).
  std::vector<Tuple> Contents() const;

  /// Key projection of a fields vector under this table's key.
  ValueList KeyOf(const ValueList& fields) const;

  /// Registers a secondary hash index on the given argument positions
  /// (sorted, each < arity) and returns its id; re-registering an existing
  /// position set returns the original id. Existing rows are indexed.
  int AddIndex(std::vector<int> positions);

  size_t num_indexes() const { return indexes_.size(); }

  /// Bound-position set of an index (for diagnostics and tests).
  const std::vector<int>& IndexPositions(int index_id) const {
    return indexes_[static_cast<size_t>(index_id)].positions;
  }

  /// Rows whose projection onto the index's positions hashes like `key`,
  /// or nullptr when none match. Buckets are keyed by the 64-bit key hash
  /// alone (no stored key copies); a hash collision can therefore surface a
  /// non-matching row, which the engine's per-candidate MatchAtom filters
  /// out. The returned vector is invalidated by the next Apply().
  const std::vector<RowHandle>* Probe(int index_id, const ValueList& key) const;

  /// Projection of `fields` onto `positions`.
  static ValueList Project(const std::vector<int>& positions,
                           const ValueList& fields);

  /// Count of dropped spurious deletes (see Plan).
  uint64_t spurious_deletes() const { return spurious_deletes_; }

  /// Slots in the slab (live + recycled; diagnostics — bounded by the peak
  /// row count, not by total churn).
  size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  /// One slab slot: the row, its materialized key projection (proper-subset
  /// keys only — when the declared keys cover all fields the key IS
  /// row.fields, and storing it again would double the footprint of the
  /// all-fields provenance tables), the cached key hash (shared by chain
  /// walks and erase), the same-hash chain link, and the generation /
  /// occupancy pair behind handle validation. Recycled slots keep their
  /// ValueList buffers, which is where the zero-allocation churn comes
  /// from.
  struct Slot {
    Row row;
    ValueList key;
    uint64_t key_hash = 0;
    uint32_t next = kNil;  // next slot with the same 64-bit key hash
    uint32_t gen = 0;
    bool live = false;
  };

  bool KeyIsAllFields() const { return info_.keys.empty(); }
  const ValueList& SlotKey(const Slot& slot) const {
    return KeyIsAllFields() ? slot.row.fields : slot.key;
  }

  /// Hash of `fields`' key projection, computed in place (no projection
  /// copy). Bit-identical to ValueListHash{}(KeyOf(fields)).
  uint64_t KeyHashOf(const ValueList& fields) const;

  /// Does `slot`'s key equal `fields`' key projection? Compares in place.
  bool SlotKeyMatchesProjection(const Slot& slot,
                                const ValueList& fields) const;

  struct SecondaryIndex;
  void IndexRow(uint32_t slot_idx);
  void IndexRowInto(SecondaryIndex* idx, uint32_t slot_idx);
  void UnindexRow(uint32_t slot_idx);

  /// Slot whose key equals `fields`' key projection (hash pre-computed), or
  /// kNil. The chain walk plus verification makes 64-bit collisions
  /// harmless.
  uint32_t FindSlotIdx(uint64_t hash, const ValueList& fields) const;

  /// Mutation primitives behind Apply.
  void DecrementAt(uint32_t slot_idx, int64_t mult);
  void InsertNewRow(uint64_t hash, const ValueList& fields, int64_t mult);
  void EraseSlot(uint32_t slot_idx);

  struct SecondaryIndex {
    std::vector<int> positions;
    /// projected-key hash -> bucket slab index + 1. Buckets are recycled
    /// through a free list and keep their row-vector capacity, mirroring
    /// the row slab (collision false-positives are the engine's
    /// MatchAtom's job).
    FlatHashMap64<uint32_t> heads;
    std::vector<std::vector<RowHandle>> buckets;
    std::vector<uint32_t> free_buckets;
  };

  ndlog::TableInfo info_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_count_ = 0;
  /// 64-bit key hash -> slot index + 1 (chain head; 0 = absent).
  FlatHashMap64<uint32_t> primary_;
  std::vector<SecondaryIndex> indexes_;
  uint64_t spurious_deletes_ = 0;

  /// Lazily built sorted view over the live slots (see OrderedView()).
  mutable std::vector<RowHandle> ordered_view_;
  mutable bool ordered_view_valid_ = false;
  mutable uint64_t ordered_view_rebuilds_ = 0;
};

}  // namespace runtime
}  // namespace nettrails

#endif  // NETTRAILS_RUNTIME_TABLE_H_
