#include "src/provenance/rewrite.h"

#include <set>

namespace nettrails {
namespace provenance {

namespace {

using ndlog::Atom;
using ndlog::AtomArg;
using ndlog::Assign;
using ndlog::Expr;
using ndlog::ExprPtr;
using ndlog::MaterializeDecl;
using ndlog::Program;
using ndlog::Rule;

AtomArg PlainArg(ExprPtr expr) {
  AtomArg arg;
  arg.expr = std::move(expr);
  return arg;
}

AtomArg LocArg(ExprPtr expr) {
  AtomArg arg;
  arg.is_location = true;
  arg.expr = std::move(expr);
  return arg;
}

MaterializeDecl AllFieldsDecl(const std::string& table) {
  MaterializeDecl decl;
  decl.table = table;
  decl.lifetime_secs = -1;
  decl.max_size = -1;
  // Empty key list = all fields: derivation-counting semantics.
  return decl;
}

}  // namespace

bool IsProvenancePredicate(const std::string& name) {
  return name == kProvTable || name == kRuleExecTable;
}

Result<Program> RewriteForProvenance(const ndlog::AnalyzedProgram& analyzed) {
  const Program& in = analyzed.program;
  Program out;
  out.materializations = in.materializations;
  out.materializations.push_back(AllFieldsDecl(kProvTable));
  out.materializations.push_back(AllFieldsDecl(kRuleExecTable));

  // Unique rule names are required: RIDs embed them.
  std::set<std::string> rule_names;
  for (const Rule& rule : in.rules) {
    if (!rule_names.insert(rule.name).second) {
      return Status::PlanError("duplicate rule name " + rule.name +
                               " (provenance rewrite requires unique names)");
    }
    if (IsProvenancePredicate(rule.head.predicate)) {
      return Status::PlanError("rule " + rule.name +
                               ": predicate " + rule.head.predicate +
                               " is reserved for the provenance rewrite");
    }
  }

  // Rules pass through: the engine records their provenance as they fire.
  // (Analysis has already rejected aggregating maybe rules.)
  for (const Rule& rule : in.rules) {
    out.rules.push_back(rule);
    if (rule.is_maybe) {
      // The externally observed head tuple joins as the first body atom.
      Rule& maybe = out.rules.back();
      maybe.body.insert(maybe.body.begin(), rule.head);
    }
  }

  // Base-tuple self-edges: prov(@L, VID, VID, L, 0) :- b(@L, ...).
  for (const auto& [name, info] : analyzed.tables) {
    if (!info.materialized || !info.is_base || info.is_maybe_head) continue;
    if (IsProvenancePredicate(name)) continue;
    if (info.arity == 0) continue;  // never referenced by a rule: unknowable
    Rule bp;
    bp.name = name + "_bprov";
    Atom body;
    body.predicate = name;
    std::vector<ExprPtr> vid_args;
    vid_args.push_back(Expr::MakeConst(Value::Str(name)));
    for (size_t i = 0; i < info.arity; ++i) {
      ExprPtr v = Expr::MakeVar("NT_B" + std::to_string(i));
      AtomArg arg = i == 0 ? LocArg(v) : PlainArg(v);
      body.args.push_back(std::move(arg));
      vid_args.push_back(v);
    }
    bp.head.predicate = kProvTable;
    bp.head.args.push_back(LocArg(body.args[0].expr));
    bp.head.args.push_back(PlainArg(Expr::MakeVar("NT_VID")));
    bp.head.args.push_back(PlainArg(Expr::MakeVar("NT_VID")));
    bp.head.args.push_back(PlainArg(body.args[0].expr));
    bp.head.args.push_back(PlainArg(Expr::MakeConst(Value::Int(0))));
    bp.body.emplace_back(std::move(body));
    bp.body.emplace_back(
        Assign{"NT_VID", Expr::MakeCall("f_mkvid", std::move(vid_args)), {}});
    out.rules.push_back(std::move(bp));
  }

  return out;
}

}  // namespace provenance
}  // namespace nettrails
