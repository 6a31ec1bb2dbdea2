#include "src/ndlog/lint.h"

#include <algorithm>
#include <map>

#include "src/ndlog/localize.h"
#include "src/runtime/builtins.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace ndlog {

namespace {

using runtime::BuiltinInfo;
using runtime::FindBuiltinInfo;
using runtime::TypeMask;
using runtime::TypeMaskName;
namespace tmask = runtime::typemask;

TypeMask MaskOfValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kInt:
      return tmask::kInt;
    case Value::Kind::kDouble:
      return tmask::kDouble;
    case Value::Kind::kString:
      return tmask::kString;
    case Value::Kind::kAddress:
      return tmask::kAddress;
    case Value::Kind::kList:
      return tmask::kList;
    case Value::Kind::kNull:
      return tmask::kAny;
  }
  return tmask::kAny;
}

bool IsArith(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
    case BinOp::kMod:
      return true;
    default:
      return false;
  }
}

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Collects (variable name, span) pairs from an expression tree.
void CollectVarSpans(const Expr& e,
                     std::vector<std::pair<std::string, Span>>* out) {
  if (e.is_var()) {
    out->emplace_back(e.var_name(), e.span());
    return;
  }
  if (const auto* call = std::get_if<Expr::Call>(&e.rep())) {
    for (const ExprPtr& a : call->args) CollectVarSpans(*a, out);
  } else if (const auto* bin = std::get_if<Expr::Binary>(&e.rep())) {
    CollectVarSpans(*bin->lhs, out);
    CollectVarSpans(*bin->rhs, out);
  } else if (const auto* un = std::get_if<Expr::Unary>(&e.rep())) {
    CollectVarSpans(*un->operand, out);
  } else if (const auto* list = std::get_if<Expr::ListLit>(&e.rep())) {
    for (const ExprPtr& el : list->elements) CollectVarSpans(*el, out);
  }
}

/// All lint passes over one analyzed program. Field-type masks shrink
/// monotonically, so the inference fixpoint terminates; diagnostics are
/// collected in a final reporting pass and deduplicated by (code, span).
class Linter {
 public:
  Linter(const AnalyzedProgram& ap, const LintOptions& opts)
      : ap_(ap), opts_(opts) {}

  DiagnosticEngine Run() {
    CheckStratification();
    InferTypes();
    CheckLinkRestriction();
    CheckDeadCode();
    CheckPlanQuality();
    CheckDeclarations();
    diags_.Suppress(opts_.allow);
    diags_.Sort();
    return std::move(diags_);
  }

 private:
  void Report(const char* code, Span span, const std::string& rule,
              std::string message) {
    std::string key = std::string(code) + "@" + std::to_string(span.line) +
                      ":" + std::to_string(span.column) + ":" + message;
    if (!seen_.insert(key).second) return;
    const DiagnosticInfo* info = FindDiagnostic(code);
    diags_.Add(code, info ? info->default_severity : Severity::kWarning, span,
               rule, std::move(message));
  }

  // ---------------------------------------------- stratification (ND1xx) --
  void CheckStratification() {
    // Transitive closure of the predicate dependency graph (head depends on
    // every body predicate). Predicate counts are small; the O(n^3)-ish
    // closure is simpler than SCC bookkeeping and plenty fast.
    std::map<std::string, std::set<std::string>> reach;
    for (const Rule& rule : ap_.program.rules) {
      for (const Atom* atom : rule.BodyAtoms()) {
        reach[rule.head.predicate].insert(atom->predicate);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [p, rs] : reach) {
        std::set<std::string> add;
        for (const std::string& q : rs) {
          auto it = reach.find(q);
          if (it == reach.end()) continue;
          for (const std::string& r : it->second) {
            if (!rs.count(r)) add.insert(r);
          }
        }
        if (!add.empty()) {
          rs.insert(add.begin(), add.end());
          changed = true;
        }
      }
    }
    auto closes_cycle = [&](const Rule& rule) -> const Atom* {
      for (const Atom* atom : rule.BodyAtoms()) {
        if (atom->predicate == rule.head.predicate) return atom;
        auto it = reach.find(atom->predicate);
        if (it != reach.end() && it->second.count(rule.head.predicate)) {
          return atom;
        }
      }
      return nullptr;
    };
    for (const Rule& rule : ap_.program.rules) {
      const Atom* via = closes_cycle(rule);
      if (via == nullptr) continue;
      if (!rule.is_maybe && rule.head.HasAggregate()) {
        AggFn fn = AggFn::kMin;
        for (const AtomArg& arg : rule.head.args) {
          if (arg.agg) fn = *arg.agg;
        }
        // Recursion through min/max converges under semi-naive evaluation
        // (the paper's MINCOST does exactly this); count/sum in a cycle is
        // unstratifiable — deltas through the cycle change the aggregate
        // non-monotonically and the fixpoint is not well defined.
        if (fn == AggFn::kCount || fn == AggFn::kSum) {
          Report("ND101", rule.span, rule.name,
                 "unstratified aggregation: " + rule.head.predicate +
                     " depends on itself through " + AggFnName(fn) +
                     " (via " + via->predicate + ")");
        }
      }
      if (rule.is_maybe) {
        Report("ND102", rule.span, rule.name,
               "maybe rule participates in a dependency cycle through " +
                   via->predicate +
                   ": inferred derivations feed back into their own "
                   "premises (non-monotone inference)");
      }
    }
  }

  // --------------------------------------------- type inference (ND2xx) --
  /// Per-predicate per-field kind masks, unified across every rule. The
  /// location field is always an address; everything else starts as kAny
  /// and shrinks as uses constrain it. An empty meet of two non-empty
  /// masks is a conflict: reported (in the reporting pass) and NOT
  /// applied, so one bad use cannot cascade into noise everywhere else.
  void InferTypes() {
    for (const auto& [name, info] : ap_.tables) {
      if (info.arity == 0) continue;
      std::vector<TypeMask>& f = fields_[name];
      f.assign(info.arity, tmask::kAny);
      f[0] = tmask::kAddress;
    }
    for (int iter = 0; iter < 64; ++iter) {
      types_changed_ = false;
      for (const Rule& rule : ap_.program.rules) InferRule(rule, false);
      if (!types_changed_) break;
    }
    for (const Rule& rule : ap_.program.rules) InferRule(rule, true);
  }

  void MeetField(const std::string& pred, size_t pos, TypeMask mask, Span span,
                 const Rule& rule, bool reporting) {
    auto it = fields_.find(pred);
    if (it == fields_.end() || pos >= it->second.size()) return;
    TypeMask& field = it->second[pos];
    TypeMask met = field & mask;
    if (met == 0 && field != 0 && mask != 0) {
      if (reporting) {
        Report("ND201", span, rule.name,
               "type conflict: field " + std::to_string(pos + 1) + " of " +
                   pred + " is " + TypeMaskName(field) +
                   " elsewhere but used as " + TypeMaskName(mask) + " here");
      }
      return;
    }
    if (met != field) {
      field = met;
      types_changed_ = true;
    }
  }

  void InferRule(const Rule& rule, bool reporting) {
    std::map<std::string, TypeMask> vars;
    auto var_mask = [&](const std::string& name) -> TypeMask& {
      auto it = vars.find(name);
      if (it == vars.end()) it = vars.emplace(name, tmask::kAny).first;
      return it->second;
    };
    auto meet_var = [&](const std::string& name, TypeMask mask, Span span,
                        const char* code, const std::string& what) {
      TypeMask& v = var_mask(name);
      TypeMask met = v & mask;
      if (met == 0 && v != 0 && mask != 0) {
        if (reporting) {
          Report(code, span, rule.name,
                 "type conflict: " + name + " is " + TypeMaskName(v) +
                     " but " + what + " requires " + TypeMaskName(mask));
        }
        return;
      }
      v = met;
    };

    // Bottom-up expression typing. Constrains bare-variable operands with
    // the sound facts the evaluator enforces (arith operands are numeric,
    // builtin args obey their BuiltinInfo contract) and reports
    // impossibilities.
    std::function<TypeMask(const Expr&)> expr_mask =
        [&](const Expr& e) -> TypeMask {
      if (e.is_const()) return MaskOfValue(e.const_value());
      if (e.is_var()) return var_mask(e.var_name());
      if (const auto* call = std::get_if<Expr::Call>(&e.rep())) {
        const BuiltinInfo* info = FindBuiltinInfo(call->fn);
        for (size_t i = 0; i < call->args.size(); ++i) {
          const Expr& arg = *call->args[i];
          TypeMask m = expr_mask(arg);
          if (info == nullptr) continue;  // CompileExpr rejects later
          TypeMask want = i < info->arg_types.size() ? info->arg_types[i]
                                                     : info->rest_type;
          if ((m & want) == 0 && m != 0 && want != 0) {
            if (reporting) {
              Report("ND202", arg.span().valid() ? arg.span() : e.span(),
                     rule.name,
                     call->fn + " argument " + std::to_string(i + 1) +
                         " must be " + TypeMaskName(want) + ", got " +
                         TypeMaskName(m));
            }
          } else if (arg.is_var()) {
            meet_var(arg.var_name(), want, arg.span(), "ND202",
                     call->fn + " argument " + std::to_string(i + 1));
          }
        }
        return info ? info->result_type : tmask::kAny;
      }
      if (const auto* bin = std::get_if<Expr::Binary>(&e.rep())) {
        TypeMask lm = expr_mask(*bin->lhs);
        TypeMask rm = expr_mask(*bin->rhs);
        if (IsArith(bin->op)) {
          for (const ExprPtr& side : {bin->lhs, bin->rhs}) {
            TypeMask m = side == bin->lhs ? lm : rm;
            if ((m & tmask::kNumeric) == 0 && m != 0) {
              if (reporting) {
                Report("ND203", side->span().valid() ? side->span() : e.span(),
                       rule.name,
                       "arithmetic on non-numeric operand of type " +
                           TypeMaskName(m));
              }
            } else if (side->is_var()) {
              meet_var(side->var_name(), tmask::kNumeric, side->span(), "ND203",
                       "arithmetic");
            }
          }
          TypeMask result = (lm | rm) & tmask::kNumeric;
          return result == 0 ? tmask::kNumeric : result;
        }
        if (IsComparison(bin->op)) {
          // Disjoint masks prove the runtime kinds differ: equality is
          // always false and ordering degenerates to the kind rank. Mixed
          // int/double is fine (numeric promotion).
          bool both_numeric = (lm & tmask::kNumeric) && (rm & tmask::kNumeric);
          if (lm != 0 && rm != 0 && (lm & rm) == 0 && !both_numeric &&
              reporting) {
            Report("ND203", e.span(), rule.name,
                   "comparison between disjoint types " + TypeMaskName(lm) +
                       " and " + TypeMaskName(rm) +
                       " can never hold structurally");
          }
          return tmask::kInt;
        }
        return tmask::kInt;  // kAnd / kOr yield 0/1
      }
      if (const auto* un = std::get_if<Expr::Unary>(&e.rep())) {
        TypeMask m = expr_mask(*un->operand);
        if (un->op == UnOp::kNeg) {
          if ((m & tmask::kNumeric) == 0 && m != 0) {
            if (reporting) {
              Report("ND203", e.span(), rule.name,
                     "negation of non-numeric operand of type " +
                         TypeMaskName(m));
            }
          } else if (un->operand->is_var()) {
            meet_var(un->operand->var_name(), tmask::kNumeric,
                     un->operand->span(), "ND203", "negation");
          }
          TypeMask result = m & tmask::kNumeric;
          return result == 0 ? tmask::kNumeric : result;
        }
        return tmask::kInt;
      }
      return tmask::kList;  // ListLit
    };

    // One atom argument: pull the field's mask into the variable (or check
    // the constant against it). Field-side updates happen in the backprop
    // sweep below so in-rule ordering cannot hide a conflict.
    auto visit_atom = [&](const Atom& atom) {
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const AtomArg& arg = atom.args[i];
        if (!arg.expr) continue;  // a_count<*>
        if (arg.agg) {
          if (*arg.agg == AggFn::kSum && arg.expr->is_var()) {
            meet_var(arg.expr->var_name(), tmask::kNumeric, arg.expr->span(),
                     "ND201", "a_sum");
          }
          continue;
        }
        if (arg.expr->is_const()) {
          MeetField(atom.predicate, i, MaskOfValue(arg.expr->const_value()),
                    arg.expr->span(), rule, reporting);
        } else if (arg.expr->is_var()) {
          auto fit = fields_.find(atom.predicate);
          if (fit != fields_.end() && i < fit->second.size()) {
            meet_var(arg.expr->var_name(), fit->second[i], arg.expr->span(),
                     "ND201", "field " + std::to_string(i + 1) + " of " +
                                  atom.predicate);
          }
        }
      }
    };

    for (const BodyTerm& term : rule.body) {
      if (const Atom* atom = std::get_if<Atom>(&term)) {
        visit_atom(*atom);
      } else if (const Assign* assign = std::get_if<Assign>(&term)) {
        TypeMask m = expr_mask(*assign->expr);
        meet_var(assign->var, m, assign->span, "ND201",
                 "the assigned expression");
      } else {
        const Select& sel = std::get<Select>(term);
        expr_mask(*sel.expr);
      }
    }
    visit_atom(rule.head);
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      const AtomArg& arg = rule.head.args[i];
      if (arg.agg) {
        // Aggregate result fields: a_count is always an int; min/max/sum
        // results have the contribution variable's type.
        if (*arg.agg == AggFn::kCount) {
          MeetField(rule.head.predicate, i, tmask::kInt,
                    arg.expr ? arg.expr->span() : rule.span, rule, reporting);
        } else if (arg.expr && arg.expr->is_var()) {
          MeetField(rule.head.predicate, i, var_mask(arg.expr->var_name()),
                    arg.expr->span(), rule, reporting);
        }
      } else if (arg.expr && !arg.expr->is_var() && !arg.expr->is_const()) {
        expr_mask(*arg.expr);
      }
    }

    // Backprop: every variable's final mask narrows the fields it binds.
    auto backprop_atom = [&](const Atom& atom) {
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const AtomArg& arg = atom.args[i];
        if (!arg.expr || arg.agg || !arg.expr->is_var()) continue;
        MeetField(atom.predicate, i, var_mask(arg.expr->var_name()),
                  arg.expr->span(), rule, reporting);
      }
    };
    for (const Atom* atom : rule.BodyAtoms()) backprop_atom(*atom);
    backprop_atom(rule.head);
  }

  // ------------------------------------------- link restriction (ND3xx) --
  void CheckLinkRestriction() {
    for (const Rule& rule : ap_.program.rules) {
      if (rule.is_maybe) continue;  // analysis already forces locality
      std::vector<const Atom*> atoms = rule.BodyAtoms();
      if (atoms.empty()) continue;
      std::set<std::string> locs = BodyLocations(rule);
      if (locs.size() > 2) {
        Report("ND301", rule.span, rule.name,
               "body spans " + std::to_string(locs.size()) +
                   " locations; NDlog rules are localizable across at most "
                   "two");
        continue;
      }
      if (locs.size() == 2) {
        if (!FindConnector(rule, locs)) {
          Report("ND302", rule.span, rule.name,
                 "body spans two locations with no link-shaped atom "
                 "connecting them (need l(@A,B,...) with the rest of the "
                 "body at B)");
        }
        continue;
      }
      // Single evaluation site: the head may stay local or ship one hop
      // along a declared link predicate (the NDlog link restriction —
      // localize.cc and the runtime assume tuples travel only on links).
      const AtomArg& head_loc = rule.head.args[0];
      if (head_loc.expr->is_var()) {
        const std::string& h = head_loc.expr->var_name();
        if (locs.count(h)) continue;
        bool via_link = false;
        for (const Atom* atom : atoms) {
          if (!opts_.link_predicates.count(atom->predicate)) continue;
          if (atom->args.size() >= 2 && atom->args[1].expr->is_var() &&
              atom->args[1].expr->var_name() == h) {
            via_link = true;
            break;
          }
        }
        if (!via_link) {
          Report("ND303", head_loc.expr->span().valid()
                              ? head_loc.expr->span()
                              : rule.span,
                 rule.name,
                 "head ships tuples to @" + h +
                     ", which is not the evaluation site and not bound as "
                     "the neighbor field of a link predicate (" +
                     LinkPredicateList() + ")");
        }
      } else {
        // Constant destination: fine only if the whole body runs there.
        bool local = false;
        if (locs.empty() && !atoms.empty()) {
          const AtomArg& body_loc = atoms[0]->args[0];
          local = body_loc.expr->is_const() &&
                  body_loc.expr->const_value() == head_loc.expr->const_value();
        }
        if (!local) {
          Report("ND303", head_loc.expr->span().valid()
                              ? head_loc.expr->span()
                              : rule.span,
                 rule.name,
                 "head ships every derived tuple to the fixed node " +
                     head_loc.expr->const_value().ToString() +
                     " regardless of where the rule fires");
        }
      }
    }
  }

  std::string LinkPredicateList() const {
    std::string out;
    for (const std::string& p : opts_.link_predicates) {
      if (!out.empty()) out += ", ";
      out += p;
    }
    return out.empty() ? "none declared" : out;
  }

  // ------------------------------------------------- dead code (ND4xx) --
  void CheckDeadCode() {
    std::set<std::string> consumed;
    for (const Rule& rule : ap_.program.rules) {
      for (const Atom* atom : rule.BodyAtoms()) consumed.insert(atom->predicate);
    }
    for (const Rule& rule : ap_.program.rules) {
      if (!rule.is_maybe) {
        const TableInfo* info = ap_.FindTable(rule.head.predicate);
        bool event_head = info == nullptr || !info->materialized;
        if (event_head && !consumed.count(rule.head.predicate)) {
          Report("ND401", rule.span, rule.name,
                 "derives event " + rule.head.predicate +
                     " which no rule consumes: tuples are computed (and "
                     "possibly shipped) then dropped");
        }
      }
      CheckRuleVariables(rule);
    }
  }

  void CheckRuleVariables(const Rule& rule) {
    struct VarUse {
      int count = 0;
      Span first_span;
      bool only_location = true;
      bool is_assign_target = false;
      Span assign_span;
    };
    std::map<std::string, VarUse> uses;
    auto add = [&](const std::string& name, Span span, bool is_location) {
      VarUse& u = uses[name];
      if (u.count == 0) u.first_span = span;
      ++u.count;
      if (!is_location) u.only_location = false;
    };
    auto add_expr = [&](const Expr& e) {
      std::vector<std::pair<std::string, Span>> vs;
      CollectVarSpans(e, &vs);
      for (auto& [name, span] : vs) add(name, span, false);
    };
    auto add_atom = [&](const Atom& atom) {
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const AtomArg& arg = atom.args[i];
        if (!arg.expr) continue;
        if (arg.expr->is_var()) {
          add(arg.expr->var_name(), arg.expr->span(), i == 0);
        } else if (!arg.expr->is_const()) {
          add_expr(*arg.expr);
        }
      }
    };
    for (const BodyTerm& term : rule.body) {
      if (const Atom* atom = std::get_if<Atom>(&term)) {
        add_atom(*atom);
      } else if (const Assign* assign = std::get_if<Assign>(&term)) {
        VarUse& u = uses[assign->var];
        u.is_assign_target = true;
        u.assign_span = assign->span;
        add_expr(*assign->expr);
      } else {
        add_expr(*std::get<Select>(term).expr);
      }
    }
    add_atom(rule.head);

    for (const auto& [name, u] : uses) {
      if (u.is_assign_target && u.count == 0) {
        Report("ND402", u.assign_span, rule.name,
               "variable " + name + " is assigned but never read");
      } else if (!u.is_assign_target && u.count == 1 && !u.only_location) {
        // A variable that appears exactly once matches anything and binds
        // to nothing downstream — often a typo for another variable.
        // Location fields are exempt: an atom must name its site even when
        // nothing else uses it.
        Report("ND403", u.first_span, rule.name,
               "variable " + name +
                   " appears exactly once; its binding is never used");
      }
    }
  }

  // ----------------------------------------------- plan quality (ND5xx) --
  /// Plans the rules the engine runs: the localized program, with the
  /// planner's own trigger selection and probe binding. Localize keeps
  /// every body term at its position, so each finding is reported at the
  /// user's atom. A program that does not localize has an ND301/ND302.
  void CheckPlanQuality() {
    Result<Program> localized = Localize(ap_);
    if (!localized.ok()) return;
    Result<AnalyzedProgram> executed = Analyze(std::move(localized).value());
    if (!executed.ok()) return;
    const std::map<std::string, TableInfo>& tables = executed->tables;
    const std::vector<Rule>& runs = executed->program.rules;
    auto run = runs.begin();
    for (const Rule& rule : ap_.program.rules) {
      // Skip the generated reversal rules Localize inserts (no span).
      auto same = [&](const Rule& r) {
        return r.name == rule.name && r.span.line == rule.span.line &&
               r.span.column == rule.span.column &&
               r.body.size() == rule.body.size();
      };
      run = std::find_if(run, runs.end(), same);
      if (run == runs.end()) return;
      const Rule& executed_rule = *run++;
      if (rule.is_maybe) continue;  // without provenance they never run
      for (size_t delta : runtime::TriggerPositions(executed_rule, tables)) {
        std::vector<runtime::ProbeShape> shapes =
            runtime::ProbeShapes(executed_rule, delta, tables);
        const std::string& delta_pred =
            std::get<Atom>(rule.body[delta]).predicate;
        for (size_t i = 0; i < shapes.size(); ++i) {
          const Atom* atom = std::get_if<Atom>(&rule.body[i]);
          if (atom == nullptr) continue;
          Span at = atom->span.valid() ? atom->span : rule.span;
          if (shapes[i].binding == runtime::ProbeBinding::kNothing) {
            Report("ND501", at, rule.name,
                   "probing " + atom->predicate + " on a " + delta_pred +
                       " delta binds no argument (location included): "
                       "every delta scans the whole table "
                       "(index_scan_fallbacks)");
          } else if (shapes[i].binding ==
                     runtime::ProbeBinding::kLocationOnly) {
            Report("ND502", at, rule.name,
                   "joining " + atom->predicate + " on a " + delta_pred +
                       " delta binds only the location: every stored "
                       "row is a join candidate (broadcast join)");
          }
        }
      }
    }
  }

  // ------------------------------------- declaration hygiene (ND6xx) --
  void CheckDeclarations() {
    std::set<std::string> referenced;
    for (const Rule& rule : ap_.program.rules) {
      referenced.insert(rule.head.predicate);
      for (const Atom* atom : rule.BodyAtoms()) referenced.insert(atom->predicate);
    }
    std::set<std::string> agg_heads;
    for (const Rule& rule : ap_.program.rules) {
      if (!rule.is_maybe && rule.head.HasAggregate()) {
        agg_heads.insert(rule.head.predicate);
      }
    }
    for (const MaterializeDecl& decl : ap_.program.materializations) {
      if (!referenced.count(decl.table)) {
        Report("ND601", decl.span, "",
               "materialized table " + decl.table +
                   " is never referenced by any rule");
      }
      if ((decl.lifetime_secs >= 0 || decl.max_size >= 0) &&
          agg_heads.count(decl.table)) {
        Report("ND602", decl.span, "",
               "soft state on aggregate output " + decl.table +
                   ": expiry/eviction removes rows the aggregate rule "
                   "believes it owns, silently corrupting results");
      }
    }
  }

  const AnalyzedProgram& ap_;
  const LintOptions& opts_;
  DiagnosticEngine diags_;
  std::set<std::string> seen_;
  std::map<std::string, std::vector<TypeMask>> fields_;
  bool types_changed_ = false;
};

}  // namespace

std::vector<std::string> ParseLintPragmas(const std::string& source) {
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = source.find("ndlint:", pos)) != std::string::npos) {
    size_t open = source.find("allow(", pos);
    if (open == std::string::npos) break;
    size_t close = source.find(')', open);
    if (close == std::string::npos) break;
    std::string codes = source.substr(open + 6, close - open - 6);
    std::string cur;
    for (char c : codes + ",") {
      if (c == ',') {
        if (!cur.empty()) out.push_back(cur);
        cur.clear();
      } else if (c != ' ' && c != '\t') {
        cur += c;
      }
    }
    pos = close;
  }
  return out;
}

DiagnosticEngine LintProgram(const AnalyzedProgram& analyzed,
                             const LintOptions& options) {
  return Linter(analyzed, options).Run();
}

}  // namespace ndlog
}  // namespace nettrails
