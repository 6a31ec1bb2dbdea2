#include "src/runtime/engine.h"

#include <algorithm>
#include <cassert>

#include "src/common/alloc_hook.h"
#include "src/common/hash.h"
#include "src/provenance/rewrite.h"
#include "src/runtime/builtins.h"

namespace nettrails {
namespace runtime {

namespace {

using ndlog::Atom;

/// VID of the concrete tuple a lowered atom matched, hashed straight from
/// a completed join frame (matching the atom bound all its variables).
/// Bit-identical to TupleVid(predicate, fields-materialized-from-the-frame)
/// — it replays DigestTuple's layout (name, then AddValueRange's count +
/// element digests) without building the ValueList.
Vid AtomVid(const std::string& predicate, const CompiledAtom& atom,
            const Frame& frame) {
  Hasher h;
  h.AddString(predicate);
  h.AddU64(atom.args.size());
  for (const SlotArg& arg : atom.args) {
    assert(arg.is_const() || frame.IsBound(arg.slot));
    h.AddU64(arg.is_const() ? arg.constant.Hash()
                            : frame.Get(arg.slot).Hash());
  }
  return h.Digest();
}

/// The VIDs of the body tuples a completed join frame matched, as the list
/// a ruleExec row carries. A maybe rule's first body atom is its observed
/// head: an effect, not a cause, so it is left out.
void BodyVids(const CompiledRule& cr, const Frame& frame, ValueList* out) {
  out->clear();
  for (size_t i = cr.rule.is_maybe ? 1 : 0; i < cr.atom_positions.size();
       ++i) {
    const size_t pos = cr.atom_positions[i];
    out->push_back(VidToValue(AtomVid(
        std::get<Atom>(cr.rule.body[pos]).predicate, cr.body[pos].atom,
        frame)));
  }
}

}  // namespace

Engine::Engine(net::Simulator* sim, NodeId id, CompiledProgramPtr prog,
               EngineOptions opts)
    : sim_(sim), id_(id), prog_(std::move(prog)), opts_(opts) {
  InitTables();
  tuple_channel_ = sim_->InternChannel(kTupleChannel);
  sim_->RegisterHandler(id_, kTupleChannel,
                        [this](net::Message& msg) { OnTupleMessage(msg); });
  SchedulePeriodics();
}

void Engine::InitTables() {
  tables_.clear();
  for (const auto& [name, info] : prog_->tables) {
    if (info.materialized) tables_.emplace(name, Table(info));
  }
  // Registration order must match the compiled index ids (AddIndex
  // returns ids sequentially and the planner dedups per table).
  for (const auto& [name, specs] : prog_->table_indexes) {
    auto it = tables_.find(name);
    if (it == tables_.end()) continue;
    for (const std::vector<int>& positions : specs) {
      it->second.AddIndex(positions);
    }
  }
  // Resolve each body atom's table once: the join loop indexes
  // term_tables_ instead of probing the string-keyed table map per visit.
  term_tables_.assign(prog_->rules.size(), {});
  for (size_t r = 0; r < prog_->rules.size(); ++r) {
    const CompiledRule& cr = prog_->rules[r];
    term_tables_[r].assign(cr.rule.body.size(), nullptr);
    for (size_t pos : cr.atom_positions) {
      const Atom& atom = std::get<Atom>(cr.rule.body[pos]);
      auto it = tables_.find(atom.predicate);
      if (it != tables_.end()) term_tables_[r][pos] = &it->second;
    }
  }
}

void Engine::SchedulePeriodics() {
  const uint64_t epoch = restart_epoch_;
  for (const PeriodicStream& stream : prog_->periodic_streams) {
    sim_->ScheduleAfter(
        static_cast<net::Time>(stream.period_secs) * net::kSecond,
        [this, stream, epoch]() {
          if (restart_epoch_ == epoch) FirePeriodic(stream, 1);
        });
  }
}

void Engine::FirePeriodic(PeriodicStream stream, int64_t iteration) {
  if (DropIfOverflowed(kPeriodicPredicate)) return;
  ++stats_.periodic_firings;
  // Fresh event id per firing, stable across runs (no wall clock). The
  // restart epoch is mixed in so a restored engine's re-run of the stream
  // (which restarts from iteration 1) emits ids distinct from the
  // checkpointed firings of its previous incarnation.
  Hasher h;
  h.AddU64(id_);
  h.AddU64(static_cast<uint64_t>(stream.period_secs));
  h.AddU64(static_cast<uint64_t>(iteration));
  h.AddU64(restart_epoch_);
  Value eid = Value::Int(static_cast<int64_t>(h.Digest() >> 1));
  EnqueueLocal({kPeriodicPredicate,
                {Value::Address(id_), eid, Value::Int(stream.period_secs),
                 Value::Int(stream.count)},
                1,
                /*is_delete=*/false});
  DrainQueue();
  if (iteration < stream.count) {
    const uint64_t epoch = restart_epoch_;
    sim_->ScheduleAfter(
        static_cast<net::Time>(stream.period_secs) * net::kSecond,
        [this, stream, iteration, epoch]() {
          if (restart_epoch_ == epoch) FirePeriodic(stream, iteration + 1);
        });
  }
}

Status Engine::Insert(const Tuple& tuple) {
  if (!tuple.HasLocation() || tuple.Location() != id_) {
    return Status::InvalidArgument("tuple " + tuple.ToString() +
                                   " is not located at node " +
                                   std::to_string(id_));
  }
  auto it = tables_.find(tuple.name());
  if (it == tables_.end()) {
    return Status::NotFound("no materialized table " + tuple.name());
  }
  NT_RETURN_IF_ERROR(overflow_status());
  EnqueueLocal({tuple.name(), tuple.fields(), 1, /*is_delete=*/false});
  DrainQueue();
  return Status::OK();
}

Status Engine::Delete(const Tuple& tuple) {
  if (!tuple.HasLocation() || tuple.Location() != id_) {
    return Status::InvalidArgument("tuple " + tuple.ToString() +
                                   " is not located at node " +
                                   std::to_string(id_));
  }
  auto it = tables_.find(tuple.name());
  if (it == tables_.end()) {
    return Status::NotFound("no materialized table " + tuple.name());
  }
  // External deletion retracts the tuple entirely (all external
  // derivations); base tuples normally have count 1.
  int64_t count = it->second.CountOf(tuple.fields());
  if (count == 0) {
    return Status::NotFound("tuple " + tuple.ToString() + " not present");
  }
  NT_RETURN_IF_ERROR(overflow_status());
  EnqueueLocal({tuple.name(), tuple.fields(), count, /*is_delete=*/true});
  DrainQueue();
  return Status::OK();
}

Status Engine::InsertEvent(const Tuple& tuple) {
  if (!tuple.HasLocation() || tuple.Location() != id_) {
    return Status::InvalidArgument("event " + tuple.ToString() +
                                   " is not located at node " +
                                   std::to_string(id_));
  }
  if (tables_.count(tuple.name())) {
    return Status::InvalidArgument("table " + tuple.name() +
                                   " is materialized; use Insert");
  }
  NT_RETURN_IF_ERROR(overflow_status());
  EnqueueLocal({tuple.name(), tuple.fields(), 1, /*is_delete=*/false});
  DrainQueue();
  return Status::OK();
}

Status Engine::overflow_status() const {
  if (!overflowed_) return Status::OK();
  return Status::RuntimeError(
      "node " + std::to_string(id_) + " overflowed: max_actions_per_trigger (" +
      std::to_string(opts_.max_actions_per_trigger) + ") exceeded on " +
      overflow_trigger_);
}

bool Engine::DropIfOverflowed(const std::string& pred) {
  if (!overflowed_) return false;
  NoteEvalError(Status::RuntimeError("dropped " + pred + ": " +
                                     overflow_status().message()));
  return true;
}

void Engine::OnTupleMessage(net::Message& msg) {
  // Delivery hands the frame's contents to the handler, so tuple fields move
  // straight from the wire frame into the delta queue (no per-tuple copy;
  // the frame is recycled after we return).
  if (!msg.batch.empty()) {
    // Multi-tuple frame: unpack in order. deltas_enqueued stays per tuple.
    ++stats_.batches_processed;
    stats_.batched_tuples += msg.batch.size();
    for (net::BatchedTuple& b : msg.batch) {
      if (DropIfOverflowed(b.payload.name())) continue;
      EnqueueLocal({b.payload.name(), std::move(b.payload.mutable_fields()),
                    b.multiplicity, b.is_delete});
    }
    DrainQueue();
    return;
  }
  if (DropIfOverflowed(msg.payload.name())) return;
  EnqueueLocal({msg.payload.name(), std::move(msg.payload.mutable_fields()),
                msg.multiplicity, msg.is_delete});
  DrainQueue();
}

void Engine::EnqueueLocal(Delta delta) {
  ++stats_.deltas_enqueued;
  // Before the FIFO would grow, drop its consumed prefix if that is at
  // least half of it: storage stays within twice the live peak even in a
  // drain whose queue never runs empty.
  if (queue_.size() == queue_.capacity() && queue_head_ * 2 >= queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
    queue_head_ = 0;
  }
  queue_.push_back(std::move(delta));
}

void Engine::DrainQueue() {
  if (draining_) return;
  draining_ = true;
  actions_this_trigger_ = 0;
  // Both counters are per-thread; a drain executes entirely on the thread
  // that entered it (cross-engine message delivery goes through the
  // simulator's event queue, so drains never nest across engines), which
  // keeps the before/after deltas exactly attributable to this engine even
  // when other workers hash and allocate concurrently.
  const uint64_t hash_hits_before = Value::ListHashCacheHits();
  const uint64_t allocs_before = AllocCountThisThread();
  while (true) {
    if (queue_head_ == queue_.size()) {
      queue_.clear();
      queue_head_ = 0;
      // Local quiescence: recompute each touched aggregate group once. A
      // cascade that adjusts a group N times pays one recomputation and
      // enqueues no intermediate outputs; the outputs refill the queue.
      if (dirty_aggs_.empty()) break;
      FlushDirtyAggregates();
      continue;
    }
    Delta delta = std::move(queue_[queue_head_++]);
    ProcessDelta(delta);
    ReleaseList(std::move(delta.fields));
    if (overflowed_) {
      queue_.clear();
      queue_head_ = 0;
      DropDirtyAggregates();
      break;
    }
  }
  FlushOutbox();
  stats_.hash_cache_hits += Value::ListHashCacheHits() - hash_hits_before;
  stats_.vid_intern_hits = vid_interner_.hits();
  stats_.drain_allocs += AllocCountThisThread() - allocs_before;
  stats_.pooled_lists = list_pool_.size();
  stats_.pooled_lists_bound = static_cast<uint64_t>(list_pool_bound_);
  draining_ = false;
}

void Engine::ProcessDelta(Delta& delta) {
  if (delta.firing_rule >= 0) {
    EmitFiring(delta);
    return;
  }
  auto it = tables_.find(delta.table);
  if (it == tables_.end()) {
    // Event: fire triggers, register the VID, never store.
    if (delta.is_delete) return;  // events have no retraction
    RegisterVid(delta.table, delta.fields);
    // The action borrows the delta's buffer and hands it back afterwards.
    TableAction action{std::move(delta.fields), delta.mult,
                       /*is_delete=*/false};
    FireTriggers(delta.table, action);
    delta.fields = std::move(action.fields);
    return;
  }

  Table& table = it->second;
  if (delta.is_eviction) --pending_evictions_[delta.table];
  actions_.Reset();
  table.Plan(delta.fields, delta.mult, delta.is_delete, &actions_);
  // ProvStore reads the provenance views, so their changes move
  // provenance_version(). Their rows are never graph vertices and skip VID
  // registration — under provenance; without it they are user tables.
  const bool prov_view = provenance::IsProvenancePredicate(delta.table);
  if (prov_view) provenance_version_ += actions_.size();
  const bool track_vids = !(prog_->provenance && prov_view);
  for (const TableAction& action : actions_) {
    // Rules see the pre-action store; atoms positioned before the delta
    // atom adjust by the action's effect (exact semi-naive maintenance).
    FireTriggers(delta.table, action);
    table.Apply(action);
    if (track_vids && !action.is_delete) {
      RegisterVid(delta.table, action.fields);
    }
    for (const ActionObserver& obs : observers_) obs(delta.table, action);
    if (!action.is_delete) HandleSoftState(table, action);
  }
}

void Engine::ScheduleExpiry(const std::string& name, const ValueList& key,
                            uint64_t gen, net::Time deadline) {
  const uint64_t epoch = restart_epoch_;
  sim_->ScheduleAt(deadline, [this, name, key, gen, epoch]() {
    if (restart_epoch_ != epoch) return;  // armed before a crash/restore
    auto git = soft_gen_.find({name, key});
    if (git == soft_gen_.end() || git->second.gen != gen) return;
    const Table* t = GetTable(name);
    if (t == nullptr) return;
    const Table::Row* row = t->FindByKey(key);
    if (row == nullptr || DropIfOverflowed(name)) return;
    ++stats_.expirations;
    EnqueueLocal({name, CopyToPooled(row->fields), row->count,
                  /*is_delete=*/true});
    DrainQueue();
  });
}

void Engine::HandleSoftState(const Table& table, const TableAction& action) {
  const ndlog::TableInfo& info = table.info();
  if (info.lifetime_secs < 0 && info.max_size < 0) return;
  const std::string& name = table.name();
  ValueList key = table.KeyOf(action.fields);
  SoftMeta& meta = soft_gen_[{name, key}];
  uint64_t gen = ++meta.gen;

  if (info.lifetime_secs >= 0) {
    meta.deadline =
        sim_->now() + static_cast<net::Time>(info.lifetime_secs) * net::kSecond;
    ScheduleExpiry(name, key, gen, meta.deadline);
  }

  if (info.max_size >= 0) {
    std::deque<std::pair<ValueList, uint64_t>>& order = fifo_[name];
    order.push_back({key, gen});
    int64_t& pending = pending_evictions_[name];
    while (static_cast<int64_t>(table.size()) - pending > info.max_size &&
           !order.empty()) {
      auto [victim_key, victim_gen] = order.front();
      order.pop_front();
      auto git = soft_gen_.find({name, victim_key});
      if (git == soft_gen_.end() || git->second.gen != victim_gen) {
        continue;  // refreshed or replaced since: a newer entry exists
      }
      const Table::Row* row = table.FindByKey(victim_key);
      if (row == nullptr) continue;
      ++stats_.evictions;
      ++pending;
      Delta evict{name, CopyToPooled(row->fields), row->count,
                  /*is_delete=*/true};
      evict.is_eviction = true;
      EnqueueLocal(std::move(evict));
    }
  }
}

void Engine::FireTriggers(const std::string& pred, const TableAction& action) {
  if (++actions_this_trigger_ > opts_.max_actions_per_trigger) {
    overflowed_ = true;
    overflow_trigger_ = pred;
    last_error_ = overflow_status().message();
    return;
  }
  ++stats_.actions_processed;
  ++stats_.trigger_dispatches;
  auto it = prog_->triggers.find(pred);
  if (it == prog_->triggers.end()) return;
  for (const auto& [rule_idx, term_idx] : it->second) {
    EvalRuleWithDelta(rule_idx, term_idx, action);
  }
}

bool Engine::MatchAtom(const CompiledAtom& atom, const ValueList& fields,
                       Frame* frame, std::vector<int>* added) const {
  const size_t undo_mark = added->size();
  auto fail = [&]() {
    while (added->size() > undo_mark) {
      frame->Unset(added->back());
      added->pop_back();
    }
    return false;
  };
  if (atom.args.size() != fields.size()) return fail();
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const SlotArg& arg = atom.args[i];
    if (arg.is_const()) {
      if (arg.constant != fields[i]) return fail();
    } else if (!frame->IsBound(arg.slot)) {
      frame->Set(arg.slot, fields[i]);
      added->push_back(arg.slot);
    } else if (frame->Get(arg.slot) != fields[i]) {
      return fail();
    }
  }
  return true;
}

void Engine::EvalRuleWithDelta(size_t rule_idx, size_t delta_term,
                               const TableAction& action) {
  const CompiledRule& cr = prog_->rules[rule_idx];
  const CompiledAtom& delta_atom = cr.body[delta_term].atom;
  frame_.Reset(cr.slots.size());
  // The shared undo stack starts empty per evaluation (the frame reset just
  // cleared every binding the previous evaluation logged).
  undo_stack_.clear();
  if (!MatchAtom(delta_atom, action.fields, &frame_, &undo_stack_)) return;
  const std::vector<AtomProbePlan>* plans = nullptr;
  if (opts_.use_secondary_indexes) {
    auto pit = cr.join_plans.find(delta_term);
    if (pit != cr.join_plans.end()) plans = &pit->second;
  }
  JoinRec(cr, rule_idx, 0, delta_term, plans, action, &frame_, action.mult);
}

void Engine::JoinRec(const CompiledRule& cr, size_t rule_idx, size_t term_idx,
                     size_t delta_term, const std::vector<AtomProbePlan>* plans,
                     const TableAction& action, Frame* frame, int64_t mult) {
  if (overflowed_) return;
  if (term_idx == cr.rule.body.size()) {
    EmitHead(cr, rule_idx, *frame, mult, action.is_delete);
    return;
  }
  if (term_idx == delta_term) {
    JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, frame,
            mult);
    return;
  }
  const CompiledTerm& term = cr.body[term_idx];
  if (term.kind == CompiledTerm::Kind::kAtom) {
    const CompiledAtom& atom = term.atom;
    const Table* tptr = term_tables_[rule_idx][term_idx];
    if (tptr == nullptr) return;  // event atom: only ever the delta
    const Table& table = *tptr;
    const AtomProbePlan* probe =
        plans != nullptr ? &(*plans)[term_idx] : nullptr;
    const bool same_pred =
        probe != nullptr
            ? probe->same_pred_as_delta
            : std::get<Atom>(cr.rule.body[term_idx]).predicate ==
                  std::get<Atom>(cr.rule.body[delta_term]).predicate;
    const bool before_delta = term_idx < delta_term;

    // Semi-naive visibility for self-join atoms: the store is pre-action,
    // so atoms before the delta position (which must see the post-action
    // state) adjust matches of the action tuple itself — and an inserted
    // tuple not yet in the store is joined as an extra candidate.
    const bool synthetic_needed = before_delta && same_pred &&
                                  !action.is_delete &&
                                  table.CountOf(action.fields) == 0;

    // One candidate row, shared by the probe and scan paths. The shared
    // undo stack (restored to the saved mark after each candidate — one bit
    // clear per newly bound slot) replaces a per-call vector, so recursing
    // through the body allocates nothing.
    auto consider = [&](const ValueList& fields, int64_t count) {
      ++stats_.join_probes;
      if (same_pred) {
        if (before_delta && fields == action.fields) {
          count += action.is_delete ? -action.mult : action.mult;
        }
        if (count <= 0) return;
      }
      const size_t mark = undo_stack_.size();
      if (MatchAtom(atom, fields, frame, &undo_stack_)) {
        JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, frame,
                mult * count);
        while (undo_stack_.size() > mark) {
          frame->Unset(undo_stack_.back());
          undo_stack_.pop_back();
        }
      }
    };

    if (probe != nullptr && probe->broadcast) {
      // Planner-proven broadcast join: only the location is bound, which
      // every row of a node-local table matches — full iteration is the
      // optimal plan, not a fallback.
      ++stats_.broadcast_probes;
      for (Table::RowHandle h : table.OrderedView()) {
        const Table::Row& row = table.Deref(h);
        consider(row.fields, row.count);
      }
    } else if (probe != nullptr && probe->index_id >= 0) {
      // All bound positions are constants or bound slots by construction
      // of the plan; build the probe key directly from the frame. An
      // unbound slot here would mean PlanJoinIndexes diverged from
      // JoinRec's binding order — fail loud (as the old name-keyed at()
      // lookup did) rather than silently probing with a stale slot value.
      // probe_key_ is shared scratch: Probe consumes it before recursion
      // can refill it (deeper levels only run inside `consider`, after the
      // probe answered).
      probe_key_.clear();
      for (int p : probe->bound_positions) {
        const SlotArg& arg = atom.args[static_cast<size_t>(p)];
        if (!arg.is_const() && !frame->IsBound(arg.slot)) {
          NoteEvalError(Status::RuntimeError(
              "internal: planner-proven probe slot for " + arg.name +
              " is unbound in rule " + cr.rule.name));
          return;
        }
        probe_key_.push_back(arg.is_const() ? arg.constant
                                            : frame->Get(arg.slot));
      }
      ++stats_.index_probes;
      const std::vector<Table::RowHandle>* rows =
          table.Probe(probe->index_id, probe_key_);
      if (rows != nullptr) {
        for (Table::RowHandle h : *rows) {
          const Table::Row& row = table.Deref(h);
          consider(row.fields, row.count);
        }
      }
    } else {
      ++stats_.index_scan_fallbacks;
      for (Table::RowHandle h : table.OrderedView()) {
        const Table::Row& row = table.Deref(h);
        consider(row.fields, row.count);
      }
    }
    if (synthetic_needed) {
      const size_t mark = undo_stack_.size();
      if (MatchAtom(atom, action.fields, frame, &undo_stack_)) {
        JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, frame,
                mult * action.mult);
        while (undo_stack_.size() > mark) {
          frame->Unset(undo_stack_.back());
          undo_stack_.pop_back();
        }
      }
    }
    return;
  }
  if (term.kind == CompiledTerm::Kind::kAssign) {
    Result<Value> v = Eval(term.expr, *frame);
    if (!v.ok()) {
      NoteEvalError(v.status());
      return;
    }
    if (frame->IsBound(term.assign_slot)) return;  // rebinding conflict: prune
    frame->Set(term.assign_slot, std::move(v).value());
    JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, frame,
            mult);
    frame->Unset(term.assign_slot);
    return;
  }
  Result<Value> v = Eval(term.expr, *frame);  // selection
  if (!v.ok()) {
    NoteEvalError(v.status());
    return;
  }
  if (v.value().Truthy()) {
    JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, frame,
            mult);
  }
}

void Engine::EmitHead(const CompiledRule& cr, size_t rule_idx,
                      const Frame& frame, int64_t mult, bool is_delete) {
  if (cr.has_agg) {
    HandleAggContribution(cr, rule_idx, frame, mult, is_delete);
    return;
  }
  // No event retraction — though a recorded firing still retracts its
  // provenance (EmitFiring).
  if (cr.head_is_event && is_delete && !cr.records_provenance) return;

  auto eval_head = [&]() -> Result<ValueList> {
    ValueList out = AcquireList();
    out.reserve(cr.head_exprs.size());
    for (const CompiledExpr& e : cr.head_exprs) {
      NT_ASSIGN_OR_RETURN(Value v, Eval(e, frame));
      out.push_back(std::move(v));
    }
    return out;
  };
  Result<ValueList> fields = eval_head();
  if (!fields.ok()) {
    NoteEvalError(fields.status());
    return;
  }
  if (fields->empty() || !(*fields)[0].is_address()) {
    NoteEvalError(Status::RuntimeError(
        "rule " + cr.rule.name + ": head location is not an address"));
    return;
  }
  ++stats_.rule_firings;
  if (!cr.records_provenance) {
    EmitTuple(cr.rule.head.predicate, std::move(fields).value(), mult,
              is_delete);
    return;
  }
  ValueList vids;
  BodyVids(cr, frame, &vids);
  Delta firing{{}, std::move(fields).value(), mult, is_delete};
  firing.firing_rule = static_cast<int32_t>(rule_idx);
  firing.vids = Value::List(std::move(vids));
  EnqueueLocal(std::move(firing));
}

void Engine::EmitFiring(const Delta& firing) {
  const CompiledRule& cr =
      prog_->rules[static_cast<size_t>(firing.firing_rule)];
  const std::string& head = cr.rule.head.predicate;
  ValueList rule_exec, prov;
  ProvenanceRows(cr, firing.fields[0], TupleVid(head, firing.fields),
                 firing.vids, &rule_exec, &prov);
  if (!cr.rule.is_maybe && !(cr.head_is_event && firing.is_delete)) {
    EmitTuple(head, CopyToPooled(firing.fields), firing.mult,
              firing.is_delete);
  }
  EnqueueLocal({provenance::kRuleExecTable, std::move(rule_exec), firing.mult,
                firing.is_delete});
  EmitTuple(provenance::kProvTable, std::move(prov), firing.mult,
            firing.is_delete);
}

void Engine::ProvenanceRows(const CompiledRule& cr, const Value& head_loc,
                            Vid head_vid, const Value& vids,
                            ValueList* rule_exec, ValueList* prov) {
  rid_vids_scratch_.clear();
  for (const Value& v : vids.as_list()) {
    rid_vids_scratch_.push_back(ValueToVid(v));
  }
  const Value rid =
      VidToValue(RuleExecRid(cr.rule.name, id_, rid_vids_scratch_));
  const Value here = Value::Address(id_);
  *rule_exec = AcquireList();
  rule_exec->assign({here, rid, Value::Str(cr.rule.name), vids});
  *prov = AcquireList();
  prov->assign({head_loc, VidToValue(head_vid), rid, here,
                Value::Int(cr.rule.is_maybe ? 1 : 0)});
}

void Engine::EmitTuple(const std::string& pred, ValueList fields,
                       int64_t mult, bool is_delete) {
  const NodeId dst = fields[0].as_address();
  if (dst == id_) {
    EnqueueLocal({pred, std::move(fields), mult, is_delete});
    return;
  }
  ShipRemote(dst, Tuple(pred, std::move(fields)), mult, is_delete);
}

void Engine::ShipRemote(NodeId dst, Tuple tuple, int64_t mult,
                        bool is_delete) {
  if (suppress_shipping_) return;
  // Per-destination buffering happens directly in a pooled simulator
  // frame: the entry is built in place in the frame's arena, so nothing is
  // copied again at send time.
  uint32_t& slot = outbox_[dst];
  if (slot == 0) {
    net::Simulator::FrameRef f = sim_->AcquireFrame();
    net::Message& m = sim_->FrameMessage(f);
    m.src = id_;
    m.dst = dst;
    m.channel = tuple_channel_;
    slot = f + 1;
    outbox_order_.push_back(dst);
  }
  const net::Simulator::FrameRef f = slot - 1;
  std::vector<net::BatchedTuple>& batch = sim_->FrameMessage(f).batch;
  batch.push_back({std::move(tuple), is_delete, mult});
  if (batch.size() >= std::max<uint32_t>(opts_.batch_size, 1)) {
    outbox_.Erase(dst);  // a later delta for dst opens a fresh frame
    SendOutboxFrame(f);
  }
}

void Engine::SendOutboxFrame(net::Simulator::FrameRef f) {
  net::Message& msg = sim_->FrameMessage(f);
  const size_t n = msg.batch.size();
  if (n == 1) {
    // A lone delta ships as the legacy single-tuple frame (its wire size
    // is smaller than a one-entry batch).
    msg.payload = std::move(msg.batch[0].payload);
    msg.is_delete = msg.batch[0].is_delete;
    msg.multiplicity = msg.batch[0].multiplicity;
    msg.batch.clear();
  } else {
    ++stats_.batch_messages_sent;
  }
  ++stats_.messages_sent;
  stats_.tuples_shipped += n;
  if (!sim_->SendFrame(f)) stats_.send_failures += n;
}

void Engine::FlushOutbox() {
  // outbox_order_ may name a destination twice (its frame filled and a new
  // one opened); the first visit sends and erases the open frame.
  for (NodeId dst : outbox_order_) {
    const uint32_t* slot = outbox_.Find(dst);
    if (slot == nullptr) continue;
    const net::Simulator::FrameRef f = *slot - 1;
    outbox_.Erase(dst);
    SendOutboxFrame(f);
  }
  outbox_order_.clear();
}

void Engine::HandleAggContribution(const CompiledRule& cr, size_t rule_idx,
                                   const Frame& frame, int64_t mult,
                                   bool is_delete) {
  // Group key: head args except the aggregate, in order. Built in the
  // shared (rule, group) lookup key so the agg-state and dirty-set hit
  // paths below run find-first against it — no pair/ValueList copies per
  // firing (RecomputeAggGroup never re-enters this function, so the
  // scratch cannot be clobbered mid-use).
  agg_key_scratch_.first = rule_idx;
  ValueList& group = agg_key_scratch_.second;
  group.clear();
  for (size_t i = 0; i < cr.head_exprs.size(); ++i) {
    if (i == cr.agg_arg_index) continue;
    Result<Value> v = Eval(cr.head_exprs[i], frame);
    if (!v.ok()) {
      NoteEvalError(v.status());
      return;
    }
    group.push_back(std::move(v).value());
  }
  // Aggregated value (a_count<*> has no expression and contributes 1).
  Value agg_value = Value::Int(1);
  if (cr.head_exprs[cr.agg_arg_index].valid()) {
    Result<Value> v = Eval(cr.head_exprs[cr.agg_arg_index], frame);
    if (!v.ok()) {
      NoteEvalError(v.status());
      return;
    }
    agg_value = std::move(v).value();
  }
  // Input VIDs for provenance, built in reusable scratch. AggGroup wraps
  // them in a Value::List only when the contribution is brand new; repeat
  // derivations (including re-inserts after a retraction) compare against
  // the stored list in place.
  const ValueList* vids = nullptr;
  if (prog_->provenance) {
    BodyVids(cr, frame, &agg_vid_scratch_);
    vids = &agg_vid_scratch_;
  }
  ++stats_.rule_firings;
  auto it = agg_state_.find(agg_key_scratch_);
  if (it == agg_state_.end()) {
    it = agg_state_.emplace(std::make_pair(rule_idx, group), AggGroupState{})
             .first;
  }
  AggGroupState& state = it->second;
  state.group.Adjust(agg_value, vids, is_delete ? -mult : mult);
  // Defer the output to the next local quiescence (see DrainQueue). The
  // per-state flag replaces a keyed dirty set: states are unique per
  // (rule, group), so marking the state is equivalent and skips the
  // group-key copy.
  if (!state.dirty) {
    state.dirty = true;
    dirty_aggs_.push_back({rule_idx, &it->first.second, &state});
  }
}

void Engine::FlushDirtyAggregates() {
  for (const DirtyAgg& d : dirty_aggs_) {
    d.state->dirty = false;
    RecomputeAggGroup(prog_->rules[d.rule_idx], *d.group, d.state);
  }
  dirty_aggs_.clear();
}

void Engine::DropDirtyAggregates() {
  for (const DirtyAgg& d : dirty_aggs_) d.state->dirty = false;
  dirty_aggs_.clear();
}

void Engine::RecomputeAggGroup(const CompiledRule& cr,
                               const ValueList& group_key,
                               AggGroupState* state_ptr) {
  ++stats_.agg_recomputes;
  AggGroupState& state = *state_ptr;
  std::optional<Value> output = state.group.Output(cr.agg_fn);

  // Desired provenance tuples for the (new) output, built in scratch whose
  // tuple field buffers come from the list pool (and return to it when the
  // state's previous provenance is retired below).
  std::vector<Tuple>& desired_prov = agg_prov_scratch_;
  desired_prov.clear();
  ValueList new_fields = AcquireList();
  if (output) {
    new_fields = group_key;
    new_fields.insert(new_fields.begin() + static_cast<long>(cr.agg_arg_index),
                      *output);
    if (prog_->provenance) {
      const Vid head_vid = TupleVid(cr.rule.head.predicate, new_fields);
      state.group.Winners(cr.agg_fn, &winners_scratch_);
      for (const AggGroup::ContribKey& win : winners_scratch_) {
        if (!win.vids.is_list()) continue;
        ValueList rx, pv;
        ProvenanceRows(cr, Value::Address(id_), head_vid, win.vids, &rx,
                       &pv);
        desired_prov.emplace_back(provenance::kRuleExecTable, std::move(rx));
        desired_prov.emplace_back(provenance::kProvTable, std::move(pv));
      }
    }
  }

  // Retract stale provenance, emit fresh provenance (set difference).
  auto contains = [](const std::vector<Tuple>& xs, const Tuple& t) {
    for (const Tuple& x : xs) {
      if (x == t) return true;
    }
    return false;
  };
  for (const Tuple& old : state.last_prov) {
    if (!contains(desired_prov, old)) {
      EnqueueLocal({old.name(), CopyToPooled(old.fields()), 1,
                    /*is_delete=*/true});
    }
  }
  for (const Tuple& fresh : desired_prov) {
    if (!contains(state.last_prov, fresh)) {
      EnqueueLocal({fresh.name(), CopyToPooled(fresh.fields()), 1,
                    /*is_delete=*/false});
    }
  }
  // Retire the old provenance set: recycle its field buffers, then swap the
  // vectors so both the tuple storage and the scratch capacity cycle.
  for (Tuple& t : state.last_prov) ReleaseList(std::move(t.mutable_fields()));
  state.last_prov.swap(desired_prov);
  desired_prov.clear();

  // Output maintenance via key replacement on the head table.
  if (!output) {
    ReleaseList(std::move(new_fields));
    if (state.has_output) {
      EnqueueLocal({cr.rule.head.predicate, CopyToPooled(state.last_output), 1,
                    /*is_delete=*/true});
      state.has_output = false;
      state.last_output.clear();
    }
    return;
  }
  if (state.has_output && state.last_output == new_fields) {
    ReleaseList(std::move(new_fields));
    return;
  }
  EnqueueLocal({cr.rule.head.predicate, CopyToPooled(new_fields), 1,
                /*is_delete=*/false});
  state.has_output = true;
  // Swap so the displaced last_output buffer goes back to the pool instead
  // of being freed by a move-assign.
  std::swap(state.last_output, new_fields);
  ReleaseList(std::move(new_fields));
}

void Engine::RegisterVid(const std::string& name, const ValueList& fields) {
  Vid vid = TupleVid(name, fields);
  vid_interner_.Intern(vid);
  // Re-derivations re-register the same VID constantly; try_emplace
  // constructs the Tuple only when the VID is new (one lookup, no copy on
  // the hit path).
  vid_index_.try_emplace(vid, name, fields);
}

void Engine::NoteEvalError(const Status& status) {
  ++stats_.eval_errors;
  last_error_ = status.ToString();
}

const Table* Engine::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

std::vector<Tuple> Engine::TableContents(const std::string& name) const {
  const Table* table = GetTable(name);
  return table == nullptr ? std::vector<Tuple>{} : table->Contents();
}

bool Engine::HasTuple(const Tuple& tuple) const { return CountOf(tuple) > 0; }

int64_t Engine::CountOf(const Tuple& tuple) const {
  const Table* table = GetTable(tuple.name());
  return table == nullptr ? 0 : table->CountOf(tuple.fields());
}

size_t Engine::TotalTuples(bool provenance_only) const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) {
    if (provenance_only && !provenance::IsProvenancePredicate(name)) continue;
    total += table.size();
  }
  return total;
}

const Tuple* Engine::FindTupleByVid(Vid vid) const {
  auto it = vid_index_.find(vid);
  return it == vid_index_.end() ? nullptr : &it->second;
}

EngineCheckpoint Engine::TakeCheckpoint() const {
  EngineCheckpoint ckpt;
  ckpt.taken_at = sim_->now();
  for (const auto& [name, table] : tables_) {
    std::vector<EngineCheckpoint::TableRow>& rows = ckpt.tables[name];
    for (Table::RowHandle h : table.OrderedView()) {
      const Table::Row& row = table.Deref(h);
      rows.push_back({row.fields, row.count});
    }
  }
  for (const auto& [key, meta] : soft_gen_) {
    ckpt.soft.push_back({key.first, key.second, meta.gen, meta.deadline});
  }
  for (const auto& [name, order] : fifo_) {
    ckpt.fifo[name].assign(order.begin(), order.end());
  }
  ckpt.pending_evictions = pending_evictions_;
  // agg_state_ is a hash map (never iterated on evaluation paths); sort the
  // serialized entries so equal states checkpoint identically.
  std::vector<std::pair<AggGroup::ContribKey, int64_t>> live;
  for (const auto& [key, state] : agg_state_) {
    EngineCheckpoint::AggEntry e;
    e.rule_idx = key.first;
    e.group = key.second;
    state.group.LiveContributions(&live);
    e.contribs.reserve(live.size());
    for (const auto& [k, count] : live) {
      e.contribs.push_back({k.value, k.vids, count});
    }
    e.has_output = state.has_output;
    e.last_output = state.last_output;
    e.last_prov = state.last_prov;
    ckpt.aggregates.push_back(std::move(e));
  }
  std::sort(ckpt.aggregates.begin(), ckpt.aggregates.end(),
            [](const EngineCheckpoint::AggEntry& a,
               const EngineCheckpoint::AggEntry& b) {
              if (a.rule_idx != b.rule_idx) return a.rule_idx < b.rule_idx;
              return ValueListLess{}(a.group, b.group);
            });
  ckpt.interned_vids.reserve(vid_interner_.size());
  for (size_t h = 0; h < vid_interner_.size(); ++h) {
    ckpt.interned_vids.push_back(
        vid_interner_.ToVid(static_cast<provenance::VidInterner::Handle>(h)));
  }
  ckpt.vid_index.reserve(vid_index_.size());
  for (const auto& [vid, tuple] : vid_index_) {
    ckpt.vid_index.emplace_back(vid, tuple);
  }
  std::sort(ckpt.vid_index.begin(), ckpt.vid_index.end(),
            [](const std::pair<Vid, Tuple>& a, const std::pair<Vid, Tuple>& b) {
              return a.first < b.first;
            });
  return ckpt;
}

void Engine::HaltForCrash() {
  ++restart_epoch_;  // every armed timer closure becomes a no-op
  queue_.clear();
  queue_head_ = 0;
  DropDirtyAggregates();
  draining_ = false;
  overflowed_ = false;
  overflow_trigger_.clear();
  last_error_.clear();
}

void Engine::RestoreCheckpoint(const EngineCheckpoint& ckpt) {
  ++restart_epoch_;
  queue_.clear();
  queue_head_ = 0;
  draining_ = false;
  overflowed_ = false;
  overflow_trigger_.clear();
  last_error_.clear();
  DropDirtyAggregates();
  outbox_.Clear();
  outbox_order_.clear();
  // The restored provenance slice is a different graph from the one the
  // crash interrupted: move the version so no cached answer survives.
  ++provenance_version_;

  // Tables are rebuilt from scratch — term_tables_ holds raw pointers into
  // tables_, so InitTables re-resolves it too. Rows load through the
  // ordinary plan/apply path (correct for both bag and key-replacement
  // tables) but fire no triggers, observers, or VID registration: derived
  // state is restored as data, not re-derived.
  InitTables();
  for (const auto& [name, rows] : ckpt.tables) {
    auto it = tables_.find(name);
    if (it == tables_.end()) continue;
    Table& table = it->second;
    for (const EngineCheckpoint::TableRow& row : rows) {
      actions_.Reset();
      table.Plan(row.fields, row.count, /*is_delete=*/false, &actions_);
      for (const TableAction& a : actions_) table.Apply(a);
    }
  }

  soft_gen_.clear();
  fifo_.clear();
  pending_evictions_ = ckpt.pending_evictions;
  for (const EngineCheckpoint::SoftEntry& e : ckpt.soft) {
    soft_gen_[{e.table, e.key}] = SoftMeta{e.gen, e.deadline};
  }
  for (const auto& [name, order] : ckpt.fifo) {
    fifo_[name].assign(order.begin(), order.end());
  }
  // Re-arm expiry timers at their absolute deadlines. ScheduleAt clamps
  // past times to now, so an entry whose lifetime elapsed while the node
  // was down is retracted immediately after restart — expiry order (by
  // original deadline, then schedule order) is preserved.
  for (const EngineCheckpoint::SoftEntry& e : ckpt.soft) {
    if (e.deadline == 0) continue;
    const Table* t = GetTable(e.table);
    if (t == nullptr || t->info().lifetime_secs < 0) continue;
    ScheduleExpiry(e.table, e.key, e.gen, e.deadline);
  }

  agg_state_.clear();
  for (const EngineCheckpoint::AggEntry& e : ckpt.aggregates) {
    AggGroupState state;
    for (const EngineCheckpoint::AggContribution& c : e.contribs) {
      state.group.Adjust(c.value, c.vids, c.count);
    }
    state.has_output = e.has_output;
    state.last_output = e.last_output;
    state.last_prov = e.last_prov;
    agg_state_.emplace(std::make_pair(e.rule_idx, e.group), std::move(state));
  }

  vid_interner_ = provenance::VidInterner();
  for (Vid vid : ckpt.interned_vids) vid_interner_.Intern(vid);
  vid_index_.clear();
  for (const auto& [vid, tuple] : ckpt.vid_index) {
    vid_index_.emplace(vid, tuple);
  }

  SchedulePeriodics();
}

void Engine::DropRemoteDerivations() {
  // Suppress shipping: the survivors already scrubbed this node's exports
  // when it crashed (DropDerivationsFrom), so re-shipping the retractions
  // here would deliver unmatched -1 deltas that clamp against — and eat —
  // same-fields sibling derivations at the receiver.
  ScrubGroundedRows(/*any_remote=*/true, /*origin=*/0,
                    /*ship_retractions=*/false);
}

void Engine::DropDerivationsFrom(NodeId origin) {
  ScrubGroundedRows(/*any_remote=*/false, origin, /*ship_retractions=*/true);
}

void Engine::ScrubGroundedRows(bool any_remote, NodeId origin,
                               bool ship_retractions) {
  if (!prog_->provenance) return;
  const Table* prov = GetTable(provenance::kProvTable);
  if (prov == nullptr) return;
  // Snapshot the remote-grounded prov rows first: the deletes below cascade
  // through the rules and mutate the table while draining.
  struct Victim {
    ValueList prov_fields;
    int64_t prov_count;
    std::string target_name;
    ValueList target_fields;
  };
  std::vector<Victim> victims;
  for (Table::RowHandle h : prov->OrderedView()) {
    const Table::Row& row = prov->Deref(h);
    // prov(@Loc, VID, RID, RLoc, Maybe): RLoc is where the derivation's
    // rule executed. RLoc == id_ means locally grounded — keep.
    if (row.fields.size() < 4 || !row.fields[3].is_address()) continue;
    const NodeId rloc = row.fields[3].as_address();
    if (rloc == id_) continue;
    if (!any_remote && rloc != origin) continue;
    Victim v;
    v.prov_fields = row.fields;
    v.prov_count = row.count;
    const Tuple* target = FindTupleByVid(ValueToVid(row.fields[1]));
    if (target != nullptr) {
      v.target_name = target->name();
      v.target_fields = target->fields();
    }
    victims.push_back(std::move(v));
  }
  const bool saved_suppress = suppress_shipping_;
  suppress_shipping_ = !ship_retractions;
  for (Victim& v : victims) {
    // The prov row itself arrived as shipped deltas from the remote
    // deriver; no local rule maintains it, so delete it directly. Then
    // retract the remote-grounded share of the target tuple (its local
    // derivations, if any, stay) — this cascades through the node's own
    // rules, retracting downstream derivations.
    EnqueueLocal({provenance::kProvTable, std::move(v.prov_fields),
                  v.prov_count, /*is_delete=*/true});
    if (!v.target_name.empty()) {
      EnqueueLocal({v.target_name, std::move(v.target_fields), v.prov_count,
                    /*is_delete=*/true});
    }
  }
  DrainQueue();
  suppress_shipping_ = saved_suppress;
}

}  // namespace runtime
}  // namespace nettrails
