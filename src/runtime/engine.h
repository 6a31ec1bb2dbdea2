// Per-node declarative networking engine (the RapidNet runtime equivalent):
// executes a compiled NDlog program with semi-naive incremental evaluation
// over insert/delete deltas, ships non-local derivations through the
// network simulator, maintains aggregates incrementally, and — when the
// program was compiled with provenance — keeps the node's slice of the
// distributed provenance tables plus a VID -> tuple index for the query
// engine and the visualizer.
#ifndef NETTRAILS_RUNTIME_ENGINE_H_
#define NETTRAILS_RUNTIME_ENGINE_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/common/hash.h"

#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/net/simulator.h"
#include "src/provenance/interner.h"
#include "src/runtime/aggregates.h"
#include "src/runtime/expr_eval.h"
#include "src/runtime/plan.h"
#include "src/runtime/table.h"

namespace nettrails {
namespace runtime {

struct EngineOptions {
  /// Safety valve: abort (and flag overflowed()) if a single external
  /// trigger cascades into more than this many actions.
  uint64_t max_actions_per_trigger = 2'000'000;
  /// Probe planner-selected secondary hash indexes in the join loop instead
  /// of scanning tables. The indexes are maintained either way (the
  /// provenance store reads through them); off is only useful for measuring
  /// the join speedup (bench_join), and results are identical.
  bool use_secondary_indexes = true;
  /// Most tuple deltas coalesced into one outbound frame. Every remote
  /// delta goes into a per-destination outbox; a frame ships as soon as it
  /// holds batch_size tuples, and the rest ship when the top-level drain
  /// ends. 1 (or 0) ships every delta at once in its own single-tuple
  /// frame — the per-tuple wire traffic. Evaluation itself is per-tuple at
  /// every setting, so every batch_size converges to identical table
  /// fixpoints, aggregate values, and provenance graphs
  /// (tests/runtime/batch_equivalence_test.cc).
  uint32_t batch_size = 64;
};

struct EngineStats {
  /// Tuples entering the local delta queue. Always counted per tuple —
  /// batch frames arriving from the network are unpacked before counting —
  /// so the value is batch_size-independent.
  uint64_t deltas_enqueued = 0;
  /// Multi-tuple frames this engine received and unpacked, and the tuples
  /// they carried (single-tuple frames count in neither).
  uint64_t batches_processed = 0;
  uint64_t batched_tuples = 0;
  /// Trigger-index dispatches: one per visible table action (and per
  /// event), whatever batch_size is.
  uint64_t trigger_dispatches = 0;
  uint64_t actions_processed = 0;
  uint64_t rule_firings = 0;
  uint64_t agg_recomputes = 0;    // aggregate-group output recomputations
  uint64_t join_probes = 0;       // candidate rows examined by the join loop
  uint64_t index_probes = 0;      // joins answered by a secondary index
  uint64_t broadcast_probes = 0;  // planned whole-table joins (only the
                                  // location was bound: every row matches)
  uint64_t index_scan_fallbacks = 0;  // unplanned scans (no probe plan)
  uint64_t messages_sent = 0;     // network sends (a frame counts once)
  uint64_t tuples_shipped = 0;    // tuple deltas shipped to remote nodes
  uint64_t batch_messages_sent = 0;  // frames carrying more than one tuple
  uint64_t send_failures = 0;     // per shipped tuple, framed or not
  uint64_t eval_errors = 0;
  uint64_t expirations = 0;      // soft-state lifetime retractions
  uint64_t evictions = 0;        // max-size FIFO evictions
  uint64_t periodic_firings = 0; // timer events injected
  /// Structural list-hash digests answered from the cache inside the shared
  /// list rep while this engine was draining (Value::Hash on a kList whose
  /// hash was already computed). The cached-hash win: re-digest count per
  /// distinct list drops to <= 1.
  uint64_t hash_cache_hits = 0;
  /// VID registrations that found an already-interned VID: re-derivations
  /// and events re-touching known tuple vertices. Under provenance the
  /// views themselves (prov / ruleExec) are never registered.
  uint64_t vid_intern_hits = 0;
  /// Heap allocations (global operator new calls, process-wide) that landed
  /// while this engine was draining its delta queue. Reads 0 unless the
  /// build defines NETTRAILS_COUNT_ALLOCS (see src/common/alloc_hook.h);
  /// attribution is exact for the same reason hash_cache_hits is — drains
  /// never nest across engines. The zero-allocation shipping path drives
  /// this to (near) zero on converged churn; bench_churn reports it as
  /// allocs_per_flap and scripts/check_alloc_budget.sh pins it.
  uint64_t drain_allocs = 0;
  /// Gauges, refreshed at the end of every top-level drain: field buffers
  /// held in this engine's ValueList pool, and the pool's bound — the most
  /// lists this engine has needed on hand at once (the largest rise of
  /// lists acquired minus lists returned over an earlier low).
  uint64_t pooled_lists = 0;
  uint64_t pooled_lists_bound = 0;
};

/// The "tuple" message channel used for shipped deltas.
inline constexpr char kTupleChannel[] = "tuple";

/// Point-in-time snapshot of one node's recoverable engine state, produced
/// by Engine::TakeCheckpoint and consumed by Engine::RestoreCheckpoint.
/// In-memory format (the durable serialization would be a straightforward
/// walk of these fields); every container is in a deterministic order —
/// OrderedView for table rows, key order for soft state, (rule, group) for
/// aggregates, first-intern order for VIDs — so two checkpoints of equal
/// states compare equal.
struct EngineCheckpoint {
  /// Virtual time the checkpoint was taken at (soft-state deadlines below
  /// are absolute times).
  net::Time taken_at = 0;

  struct TableRow {
    ValueList fields;
    int64_t count = 0;
  };
  std::map<std::string, std::vector<TableRow>> tables;

  /// Soft-state expiry metadata: one entry per live (table, key) with its
  /// generation and absolute expiry deadline (0 when the table has no
  /// lifetime — max-size-only soft state).
  struct SoftEntry {
    std::string table;
    ValueList key;
    uint64_t gen = 0;
    net::Time deadline = 0;
  };
  std::vector<SoftEntry> soft;
  std::map<std::string, std::vector<std::pair<ValueList, uint64_t>>> fifo;
  std::map<std::string, int64_t> pending_evictions;

  struct AggContribution {
    Value value;
    Value vids;
    int64_t count = 0;
  };
  struct AggEntry {
    size_t rule_idx = 0;
    ValueList group;
    std::vector<AggContribution> contribs;
    bool has_output = false;
    ValueList last_output;
    std::vector<Tuple> last_prov;
  };
  std::vector<AggEntry> aggregates;

  /// Interned VIDs in dense-handle order, and the VID -> tuple index.
  std::vector<Vid> interned_vids;
  std::vector<std::pair<Vid, Tuple>> vid_index;
};

class Engine {
 public:
  /// Observes every visible table change on this node, after application.
  using ActionObserver =
      std::function<void(const std::string& table, const TableAction&)>;

  Engine(net::Simulator* sim, NodeId id, CompiledProgramPtr prog,
         EngineOptions opts = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  NodeId id() const { return id_; }
  const CompiledProgram& program() const { return *prog_; }

  /// Inserts / deletes an external (base) tuple. The tuple's location
  /// attribute must be this node. All three refuse while overflowed().
  Status Insert(const Tuple& tuple);
  Status Delete(const Tuple& tuple);
  /// Injects a transient event tuple (located here).
  Status InsertEvent(const Tuple& tuple);

  /// Materialized table, or nullptr for events / unknown names.
  const Table* GetTable(const std::string& name) const;
  std::vector<Tuple> TableContents(const std::string& name) const;
  bool HasTuple(const Tuple& tuple) const;
  int64_t CountOf(const Tuple& tuple) const;

  /// Total visible tuples across all materialized tables (storage metric;
  /// `provenance_only` restricts to the prov/ruleExec tables).
  size_t TotalTuples(bool provenance_only = false) const;

  /// VID -> tuple for local state (and locally observed events). Entries
  /// for deleted state are retained while provenance references them.
  const Tuple* FindTupleByVid(Vid vid) const;

  /// This node's VID interner (every registered tuple VID, in first-seen
  /// order). Stats land in EngineStats::vid_intern_hits.
  provenance::VidInterner* vid_interner() { return &vid_interner_; }
  const provenance::VidInterner& vid_interner() const { return vid_interner_; }

  /// Moves on every applied prov / ruleExec action and on every
  /// RestoreCheckpoint, and never goes backwards: equal values mean an
  /// unchanged provenance slice. ProvStore::version() reads it.
  uint64_t provenance_version() const { return provenance_version_; }

  void AddActionObserver(ActionObserver obs) {
    observers_.push_back(std::move(obs));
  }

  const EngineStats& stats() const { return stats_; }
  /// True if the max_actions safety valve tripped (runaway program). Until
  /// a crash or restore the engine then refuses input: the inserts return
  /// overflow_status() (naming the node and trigger), and each dropped
  /// delivery or timer firing counts as an eval error naming its predicate.
  bool overflowed() const { return overflowed_; }
  Status overflow_status() const;
  /// Last evaluation error, for diagnostics ("" if none).
  const std::string& last_error() const { return last_error_; }

  // --- Crash / recovery ---------------------------------------------------
  // See docs/ARCHITECTURE.md "Fault model and recovery" for the full
  // protocol; protocols::CrashNode / RestartNode orchestrate these with the
  // simulator's node lifecycle.

  /// Snapshot of all recoverable state: table rows (with derivation
  /// counts), soft-state expiry generations + deadlines, FIFO eviction
  /// order, aggregate groups (live contributions, last output, last
  /// emitted provenance), the VID interner, and the VID -> tuple index.
  EngineCheckpoint TakeCheckpoint() const;

  /// Marks the engine crashed: bumps the restart epoch so every
  /// outstanding timer closure (soft-state expiries, periodics) becomes a
  /// no-op, and clears the delta queue. The simulator-side counterpart is
  /// Simulator::SetNodeUp(id, false), which gates message delivery.
  void HaltForCrash();

  /// Restores a checkpoint in place: rebuilds tables (indexes and the
  /// join loop's table resolution included), aggregate state, soft-state
  /// bookkeeping (expiry timers are re-armed at their absolute deadlines —
  /// deadlines that passed while the node was down fire immediately), the
  /// VID interner and the VID index. It moves provenance_version(), so
  /// stores reading the rebuilt tables never serve a pre-restore cached
  /// answer. Periodic streams restart from iteration 1.
  void RestoreCheckpoint(const EngineCheckpoint& ckpt);

  /// Recovery reconciliation, run after RestoreCheckpoint: retracts the
  /// remote-grounded share of every restored tuple — derivations whose rule
  /// execution lives on another node (prov rows with RLoc != this node). A
  /// restarted node missed every retraction addressed to it while it was
  /// down, so remotely-derived rows in its checkpoint may be stale; dropping
  /// them (with full local cascade) and letting neighbors re-announce is
  /// what makes recovery converge to the fault-free fixpoint. The cascade
  /// does NOT ship retractions of this node's own exports: the survivors
  /// already scrubbed those at crash time (DropDerivationsFrom), and
  /// re-shipping would land unmatched -1 deltas that eat same-fields
  /// sibling derivations at the receiver.
  void DropRemoteDerivations();

  /// Survivor-side half of the crash protocol: retracts every row whose
  /// derivation was grounded at `origin` (the crashed node), with full
  /// cascade and normal shipping — retractions bound for live nodes are
  /// genuine, and those bound for the crashed node are swallowed by the
  /// simulator. Without this, a survivor keeps routing through derivations
  /// whose deriver no longer exists, and the restarted node's
  /// re-announcements would double-count against the stale copies.
  void DropDerivationsFrom(NodeId origin);

 private:
  struct Delta {
    std::string table;
    ValueList fields;
    int64_t mult = 1;
    bool is_delete = false;
    bool is_eviction = false;  // decrement the pending-eviction counter
    /// >= 0: a firing of this rule under provenance (see EmitFiring), with
    /// the head in `fields` and the body VIDs in `vids`; `table` unused.
    int32_t firing_rule = -1;
    Value vids = Value::Null();
  };

  void OnTupleMessage(net::Message& msg);
  /// True, after counting an eval error naming `pred`, when overflowed.
  bool DropIfOverflowed(const std::string& pred);
  void EnqueueLocal(Delta delta);

  /// ValueList recycling pool for the delta pipeline. Field buffers flow
  /// emit -> queue -> process -> back-to-pool, so a converged flap's
  /// tuple churn reuses the same allocations instead of paying one
  /// malloc/free pair per derived tuple. Shipped tuples carry their buffers
  /// from the sender's pool into the receiver's and none ever flow back, so
  /// the pool is bounded by the most lists this engine has ever needed on
  /// hand at once: the largest rise of its running net draw (lists acquired
  /// minus lists returned) over an earlier low. Lists returned past the
  /// bound are freed. A pool that size serves any stretch of work no more
  /// demanding than one already seen without allocating, while a net
  /// receiver, whose draw mostly falls as it returns unpacked wire buffers,
  /// keeps only what its own bursts of derivation and shipping need.
  /// (Bounding by the lists acquired within one drain instead lets a
  /// receiver hoard lists in proportion to the frames it unpacks.)
  ValueList AcquireList() {
    ++lists_drawn_;
    list_pool_bound_ = std::max(list_pool_bound_, lists_drawn_ - lists_low_);
    if (list_pool_.empty()) return ValueList();
    ValueList out = std::move(list_pool_.back());
    list_pool_.pop_back();
    out.clear();
    return out;
  }
  void ReleaseList(ValueList&& v) {
    lists_low_ = std::min(lists_low_, --lists_drawn_);
    if (static_cast<int64_t>(list_pool_.size()) < list_pool_bound_) {
      list_pool_.push_back(std::move(v));
    } else {
      ValueList().swap(v);  // free now: the caller's list may outlive this call
    }
  }
  /// Copy of `src` backed by a pooled buffer (the enqueue-a-copy idiom).
  ValueList CopyToPooled(const ValueList& src) {
    ValueList out = AcquireList();
    out = src;
    return out;
  }
  /// Runs the local queue to quiescence: per-tuple semi-naive evaluation,
  /// with touched aggregate groups recomputed each time the queue runs
  /// empty, and the outbox flushed when the top-level drain ends.
  void DrainQueue();
  /// Plans, evaluates and applies one delta. Takes the delta mutably only
  /// to lend an event's fields to the trigger without copying them.
  void ProcessDelta(Delta& delta);
  /// Shared core of DropRemoteDerivations / DropDerivationsFrom: retracts
  /// prov rows (and their targets) grounded at any remote node
  /// (`any_remote`) or at `origin` specifically, cascading locally;
  /// outbound deltas ship only when `ship_retractions`.
  void ScrubGroundedRows(bool any_remote, NodeId origin,
                         bool ship_retractions);
  void FireTriggers(const std::string& pred, const TableAction& action);
  /// Joins the rule body around the delta atom; `action` is the visible
  /// change that seeded the evaluation.
  void EvalRuleWithDelta(size_t rule_idx, size_t delta_term,
                         const TableAction& action);
  /// `plans` is the per-body-term probe plan for this (rule, delta_term)
  /// choice, or nullptr to scan every atom.
  void JoinRec(const CompiledRule& cr, size_t rule_idx, size_t term_idx,
               size_t delta_term, const std::vector<AtomProbePlan>* plans,
               const TableAction& action, Frame* frame, int64_t mult);
  /// Matches `fields` against the lowered atom pattern, binding previously
  /// unbound frame slots. On success the newly bound slots are appended to
  /// `added` (the caller's undo log: Unset them to restore the frame — an
  /// O(1) bit clear per slot); on failure the frame is restored before
  /// returning.
  bool MatchAtom(const CompiledAtom& atom, const ValueList& fields,
                 Frame* frame, std::vector<int>* added) const;
  /// Derives a firing's head; under provenance, queues a firing entry.
  void EmitHead(const CompiledRule& cr, size_t rule_idx, const Frame& frame,
                int64_t mult, bool is_delete);
  /// Emits a dequeued firing: the head (unless a maybe rule's, or an event
  /// being retracted), then its ruleExec row, then its prov edge.
  void EmitFiring(const Delta& firing);
  /// Queues `fields` locally or ships them to the node in fields[0].
  void EmitTuple(const std::string& pred, ValueList fields, int64_t mult,
                 bool is_delete);
  /// ruleExec(@here, RID, rule, vids) and prov(@head_loc, head_vid, RID,
  /// here, Maybe) for one execution of `cr` here, RID as f_mkrid computes
  /// it. Ordinary firings and aggregate recomputes both build them here.
  void ProvenanceRows(const CompiledRule& cr, const Value& head_loc,
                      Vid head_vid, const Value& vids, ValueList* rule_exec,
                      ValueList* prov);
  /// Appends one tuple delta to `dst`'s outbox frame, sending the frame
  /// once it holds batch_size tuples.
  void ShipRemote(NodeId dst, Tuple tuple, int64_t mult, bool is_delete);
  /// Sends one outbox frame: a lone delta in the legacy single-tuple shape,
  /// more as a multi-tuple frame.
  void SendOutboxFrame(net::Simulator::FrameRef f);
  /// Sends every destination's partly filled frame (end of a top-level
  /// drain).
  void FlushOutbox();
  void HandleAggContribution(const CompiledRule& cr, size_t rule_idx,
                             const Frame& frame, int64_t mult,
                             bool is_delete);
  struct AggGroupState;
  void RecomputeAggGroup(const CompiledRule& cr, const ValueList& group_key,
                         AggGroupState* state);
  /// Recomputes (once each) the aggregate groups touched since the queue
  /// last ran empty, in first-touch order.
  void FlushDirtyAggregates();
  /// Forgets the touched groups without recomputing them (overflow, crash,
  /// restore).
  void DropDirtyAggregates();
  /// Interns the tuple's VID and indexes the tuple on first sight. Takes
  /// (name, fields) so repeat registrations (every re-derivation) skip the
  /// Tuple construction entirely — the VID digest itself reuses cached list
  /// hashes.
  void RegisterVid(const std::string& name, const ValueList& fields);
  void NoteEvalError(const Status& status);
  /// Soft-state bookkeeping after a visible insert: refresh the expiry
  /// timer and enforce FIFO max-size eviction.
  void HandleSoftState(const Table& table, const TableAction& action);
  /// Arms one epoch-guarded expiry timer at the absolute `deadline`.
  void ScheduleExpiry(const std::string& name, const ValueList& key,
                      uint64_t gen, net::Time deadline);
  /// Schedules the program's periodic(@X,E,T,C) timer streams.
  void SchedulePeriodics();
  void FirePeriodic(PeriodicStream stream, int64_t iteration);
  /// (Re)builds tables_ from the program — storage, planner-selected
  /// indexes, and the join loop's per-term table resolution. Shared by the
  /// constructor and RestoreCheckpoint (which must rebuild term_tables_
  /// too: it holds raw pointers into tables_).
  void InitTables();

  net::Simulator* sim_;
  NodeId id_;
  CompiledProgramPtr prog_;
  EngineOptions opts_;
  /// Interned "tuple" channel id, resolved once at construction so shipping
  /// never touches the channel string.
  net::ChannelId tuple_channel_ = 0;

  std::map<std::string, Table> tables_;
  /// Per (rule, body-term) table resolution: term_tables_[rule][term] is
  /// the materialized table backing that body atom (nullptr for events and
  /// non-atom terms), resolved once at construction so the join loop never
  /// does a string-keyed map lookup. Pointers into tables_ are stable
  /// (node-based map, populated before this).
  std::vector<std::vector<const Table*>> term_tables_;
  /// Scratch evaluation frame, reset per EvalRuleWithDelta. Safe as a
  /// member because rule evaluation never nests: derived heads are
  /// enqueued, not evaluated inline, and drains do not re-enter.
  Frame frame_;
  /// The local delta FIFO: a vector consumed from `queue_head_`, reset when
  /// it runs empty, so its storage is reused across drains instead of
  /// allocating and freeing deque blocks.
  std::vector<Delta> queue_;
  size_t queue_head_ = 0;
  bool draining_ = false;
  /// True while a scrub cascade runs with shipping suppressed (see
  /// DropRemoteDerivations); checked at the top of ShipRemote.
  bool suppress_shipping_ = false;
  uint64_t actions_this_trigger_ = 0;
  bool overflowed_ = false;
  std::string overflow_trigger_;  // predicate dispatched when it tripped

  std::unordered_map<Vid, Tuple> vid_index_;
  provenance::VidInterner vid_interner_;
  uint64_t provenance_version_ = 0;

  struct AggGroupState {
    AggGroup group;
    bool dirty = false;  // already on dirty_aggs_
    bool has_output = false;
    ValueList last_output;
    std::vector<Tuple> last_prov;  // emitted prov + ruleExec tuples
  };
  /// Hash/equality over (rule index, group key). Group-key hashing reuses
  /// the digests cached in shared list reps. Both agg containers are pure
  /// lookup structures — never iterated — so hash layout cannot leak into
  /// evaluation order (dirty_aggs_ keeps the deterministic first-touch
  /// order).
  struct AggKeyHash {
    size_t operator()(const std::pair<size_t, ValueList>& k) const {
      Hasher h;
      h.AddU64(k.first);
      AddValueRange(&h, k.second.data(), k.second.data() + k.second.size());
      return static_cast<size_t>(h.Digest());
    }
  };
  struct AggKeyEq {
    bool operator()(const std::pair<size_t, ValueList>& a,
                    const std::pair<size_t, ValueList>& b) const {
      return a.first == b.first && ValueListEq{}(a.second, b.second);
    }
  };
  // (rule index, group key) -> state
  std::unordered_map<std::pair<size_t, ValueList>, AggGroupState, AggKeyHash,
                     AggKeyEq>
      agg_state_;

  /// Touched aggregate groups in first-touch order. Group key and state
  /// live in agg_state_ nodes (stable — the map never erases), so the dirty
  /// list carries pointers, not ValueList copies.
  struct DirtyAgg {
    size_t rule_idx;
    const ValueList* group;
    AggGroupState* state;
  };
  std::vector<DirtyAgg> dirty_aggs_;
  std::vector<NodeId> outbox_order_;  // destinations, first-use order
  /// dst -> simulator frame ref + 1 of its open frame (absent = none).
  /// Entries are built in place in the pooled frame's Message::batch, so
  /// per-destination buffering allocates nothing once frames have warmed
  /// up.
  FlatHashMap64<uint32_t> outbox_;

  // Drain-scoped scratch buffers (reused across deltas so a converged
  // drain allocates nothing): the current delta's planned actions, the
  // shared frame-undo stack for MatchAtom (callers restore to their saved
  // mark — safe across JoinRec recursion), the secondary-index probe key,
  // and the aggregate lookup key (find-before-emplace keeps the hit path
  // free of pair<rule, group> copies).
  ActionBuffer actions_;
  std::vector<int> undo_stack_;
  ValueList probe_key_;
  std::pair<size_t, ValueList> agg_key_scratch_;
  ValueList agg_vid_scratch_;
  /// Recompute scratch: winners, one execution's raw VIDs, and the desired-
  /// provenance build buffer (swapped against each state's last_prov, so
  /// tuple storage cycles instead of being reallocated per recompute).
  std::vector<AggGroup::ContribKey> winners_scratch_;
  std::vector<Vid> rid_vids_scratch_;
  std::vector<Tuple> agg_prov_scratch_;
  std::vector<ValueList> list_pool_;
  /// Running net draw on the pool (acquired minus returned; it falls below
  /// zero as unpacked wire buffers are returned), its lowest value so far,
  /// and its largest rise over an earlier low (the pool's bound).
  int64_t lists_drawn_ = 0;
  int64_t lists_low_ = 0;
  int64_t list_pool_bound_ = 0;

  // Soft state: per-key insertion generation (a re-insertion refreshes the
  // expiry timer and invalidates stale timers), the absolute expiry
  // deadline (recorded so checkpoints can re-arm timers), and FIFO
  // insertion order.
  struct TableKeyLess {
    bool operator()(const std::pair<std::string, ValueList>& a,
                    const std::pair<std::string, ValueList>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return ValueListLess{}(a.second, b.second);
    }
  };
  struct SoftMeta {
    uint64_t gen = 0;
    net::Time deadline = 0;  // 0 when the table has no lifetime
  };
  std::map<std::pair<std::string, ValueList>, SoftMeta, TableKeyLess>
      soft_gen_;
  std::map<std::string, std::deque<std::pair<ValueList, uint64_t>>> fifo_;
  std::map<std::string, int64_t> pending_evictions_;

  /// Bumped by HaltForCrash/RestoreCheckpoint; timer closures capture the
  /// epoch they were armed in and no-op if it has moved on, so a restored
  /// engine never executes a pre-crash timer.
  uint64_t restart_epoch_ = 0;

  std::vector<ActionObserver> observers_;
  EngineStats stats_;
  std::string last_error_;
};

}  // namespace runtime
}  // namespace nettrails

#endif  // NETTRAILS_RUNTIME_ENGINE_H_
