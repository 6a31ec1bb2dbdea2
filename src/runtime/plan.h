// Compilation pipeline: NDlog source -> parsed -> analyzed -> localized ->
// (optionally) provenance-rewritten -> trigger-indexed executable plan
// shared by every node's engine.
#ifndef NETTRAILS_RUNTIME_PLAN_H_
#define NETTRAILS_RUNTIME_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/ndlog/analysis.h"
#include "src/ndlog/lint.h"
#include "src/runtime/expr_eval.h"

namespace nettrails {
namespace runtime {

struct CompileOptions {
  /// Apply the ExSPAN provenance rewrite. Maybe rules are dropped (with no
  /// effect) when false, since their sole output is provenance.
  bool provenance = true;
  /// Run the ndlint static-analysis passes over the user program (before
  /// localization). Error-severity findings fail the compile with a
  /// PlanError; warnings and notes are silent here (run the ndlint CLI to
  /// see them). In-source `// ndlint: allow(NDxxx)` pragmas apply.
  bool lint = true;
  /// Lint configuration (link predicates, extra allowed codes).
  ndlog::LintOptions lint_options;
};

/// Options with the ExSPAN provenance rewrite disabled (lint stays on).
inline CompileOptions NoProvenanceOptions() {
  CompileOptions options;
  options.provenance = false;
  return options;
}

/// Probe plan for one body atom under a specific choice of delta atom:
/// which argument positions are already bound when the join reaches it, and
/// the table-local secondary index covering exactly those positions.
///
/// The location attribute (position 0) is excluded from index keys: every
/// row of a node-local table carries that node's address there, so a
/// location key can never discriminate — indexing it would just duplicate
/// the table into one giant bucket (and make its maintenance quadratic).
struct AtomProbePlan {
  /// Sorted non-location argument positions whose values are known
  /// (constants or variables bound by the delta atom, earlier atoms, or
  /// assignments) when this atom is probed.
  std::vector<int> bound_positions;
  /// Id of the secondary index on bound_positions (Table::AddIndex
  /// registration order per table); -1 means no index.
  int index_id = -1;
  /// Set when the planner proved only the location is bound: the probe
  /// degenerates to a whole-table iteration in which every row is a
  /// genuine join candidate (a per-node broadcast join, e.g. "all
  /// neighbors"), as opposed to an unplanned scan fallback.
  bool broadcast = false;
  /// This atom's predicate equals the delta atom's predicate (a self-join).
  /// The engine's semi-naive visibility adjustments apply only to such
  /// atoms; precomputing the flag removes a per-probe string comparison
  /// from the join loop.
  bool same_pred_as_delta = false;
};

/// How much of one body term a join has bound when it reaches the term.
enum class ProbeBinding : uint8_t {
  kNotProbed,     // the delta, an event atom, an assignment or a selection
  kNothing,       // a stored atom with nothing bound, location included
  kLocationOnly,  // a stored atom with only the location bound (broadcast)
  kPositions,     // a stored atom with non-location positions bound
};

/// The binding shape of one body term under one choice of delta atom.
struct ProbeShape {
  ProbeBinding binding = ProbeBinding::kNotProbed;
  /// Sorted bound non-location positions (non-empty iff kPositions).
  std::vector<int> bound_positions;
};

/// Body-term indices of the atoms that act as deltas for `rule`: an event
/// (non-materialized) atom pins the delta, since events are instantaneous
/// and cannot be scanned as stored relations; otherwise every atom takes a
/// turn, in body order.
std::vector<size_t> TriggerPositions(
    const ndlog::Rule& rule,
    const std::map<std::string, ndlog::TableInfo>& tables);

/// The binding shape of every term of `rule` (index-parallel to rule.body)
/// evaluated with body term `delta_term` as the delta atom. Follows
/// Engine::JoinRec: bindings start from the delta atom, then body terms are
/// processed in order (skipping the delta), assignments binding their
/// target and each probed atom binding its variables.
std::vector<ProbeShape> ProbeShapes(
    const ndlog::Rule& rule, size_t delta_term,
    const std::map<std::string, ndlog::TableInfo>& tables);

/// Lowered atom argument: a frame slot (variable) or a constant. Body atom
/// arguments are Var/Const only after analysis, so this is total.
struct SlotArg {
  int slot = -1;     // >= 0: frame slot holding the variable
  Value constant;    // the value when slot < 0
  std::string name;  // variable name (diagnostics only; never on hot path)

  bool is_const() const { return slot < 0; }
};

/// Lowered body-atom pattern: the engine matches candidate rows against it,
/// binding unbound slots, and rebuilds concrete tuples from a full frame.
struct CompiledAtom {
  std::vector<SlotArg> args;
};

/// One lowered body term, index-parallel to CompiledRule::rule.body.
struct CompiledTerm {
  enum class Kind : uint8_t { kAtom, kAssign, kSelect };
  Kind kind = Kind::kSelect;
  CompiledAtom atom;     // kAtom
  int assign_slot = -1;  // kAssign: slot the assignment binds
  CompiledExpr expr;     // kAssign / kSelect
};

/// One executable rule.
struct CompiledRule {
  ndlog::Rule rule;
  /// Indices into rule.body that are atoms, in body order.
  std::vector<size_t> atom_positions;
  /// Slot frame layout: every variable appearing in the rule, interned to a
  /// dense id at compile time. Evaluation frames are sized to slots.size().
  SlotMap slots;
  /// Lowered body, index-parallel to rule.body (patterns for atoms,
  /// slot-compiled expressions for assignments and selections).
  std::vector<CompiledTerm> body;
  /// Lowered head-argument expressions, index-parallel to rule.head.args.
  /// The a_count<*> aggregate argument has no expression (entry invalid).
  std::vector<CompiledExpr> head_exprs;
  /// Head predicate is an event (not materialized).
  bool head_is_event = false;
  /// Under provenance, each firing also records its ruleExec row and prov
  /// edge (every non-aggregate rule except the base-tuple self-edge rules,
  /// whose head is prov itself). A maybe rule (rule.is_maybe) records only
  /// those: its body term 0 is the observed head, which it never derives.
  bool records_provenance = false;
  /// Aggregate rule bookkeeping.
  bool has_agg = false;
  ndlog::AggFn agg_fn = ndlog::AggFn::kMin;
  size_t agg_arg_index = 0;  // position of the aggregate in the head args
  /// delta body-term index -> probe plan per body term (entries for
  /// non-delta materialized atoms; everything else keeps index_id == -1).
  /// Populated for exactly the (rule, delta) pairs in the trigger index.
  std::map<size_t, std::vector<AtomProbePlan>> join_plans;
};

/// The reserved periodic-event predicate: periodic(@X, E, Period, Count)
/// fires Count times every Period seconds at each node, with a fresh event
/// id E per firing (the P2/RapidNet timer mechanism).
inline constexpr char kPeriodicPredicate[] = "periodic";

/// A distinct periodic stream required by the program.
struct PeriodicStream {
  int64_t period_secs = 1;
  int64_t count = 1;

  bool operator<(const PeriodicStream& other) const {
    if (period_secs != other.period_secs) {
      return period_secs < other.period_secs;
    }
    return count < other.count;
  }
};

/// The shared, immutable execution plan.
struct CompiledProgram {
  /// Final program text (after localization and rewrite): the paper's
  /// "modified program that contains additional rules for capturing the
  /// program's provenance information", less the rule-execution rows and
  /// edges the engine records itself (see provenance/rewrite.h).
  ndlog::Program program;
  std::map<std::string, ndlog::TableInfo> tables;
  std::vector<CompiledRule> rules;
  /// predicate -> [(rule index, body-term index of the triggering atom)].
  std::map<std::string, std::vector<std::pair<size_t, size_t>>> triggers;
  /// table -> distinct sorted bound-position sets required by the join
  /// plans; the vector index is the index id the engine registers with
  /// Table::AddIndex (in order).
  std::map<std::string, std::vector<std::vector<int>>> table_indexes;
  /// Distinct (period, count) timer streams the engines must run.
  std::vector<PeriodicStream> periodic_streams;
  bool provenance = false;

  const ndlog::TableInfo* FindTable(const std::string& name) const {
    auto it = tables.find(name);
    return it == tables.end() ? nullptr : &it->second;
  }

  /// Rendered program text (for tests, docs, and the demo display of the
  /// rewritten rules).
  std::string Dump() const { return program.ToString(); }
};

using CompiledProgramPtr = std::shared_ptr<const CompiledProgram>;

/// Full pipeline from source text.
Result<CompiledProgramPtr> Compile(const std::string& source,
                                   const CompileOptions& options = {});

}  // namespace runtime
}  // namespace nettrails

#endif  // NETTRAILS_RUNTIME_PLAN_H_
