#include "src/ndlog/localize.h"

#include <set>

namespace nettrails {
namespace ndlog {

namespace {

/// Location variable of a normalized atom, or empty for an @n constant.
std::string LocVar(const Atom& atom) {
  return atom.args[0].expr->is_var() ? atom.args[0].expr->var_name()
                                     : std::string();
}

/// Builds the generated rule  p_d(@V1, V0, V2...) :- p(@V0, V1, V2...).
Rule MakeReversalRule(const std::string& pred, size_t arity) {
  Rule rule;
  rule.name = pred + "_loc";
  Atom head;
  head.predicate = pred + kReversedSuffix;
  Atom body;
  body.predicate = pred;
  for (size_t i = 0; i < arity; ++i) {
    AtomArg arg;
    arg.expr = Expr::MakeVar("LZ" + std::to_string(i));
    body.args.push_back(arg);
  }
  body.args[0].is_location = true;
  // Head: swap first two.
  AtomArg h0;
  h0.is_location = true;
  h0.expr = Expr::MakeVar("LZ1");
  head.args.push_back(h0);
  AtomArg h1;
  h1.expr = Expr::MakeVar("LZ0");
  head.args.push_back(h1);
  for (size_t i = 2; i < arity; ++i) {
    AtomArg a;
    a.expr = Expr::MakeVar("LZ" + std::to_string(i));
    head.args.push_back(a);
  }
  rule.head = std::move(head);
  rule.body.emplace_back(std::move(body));
  return rule;
}

}  // namespace

std::set<std::string> BodyLocations(const Rule& rule) {
  std::set<std::string> locs;
  for (const Atom* atom : rule.BodyAtoms()) {
    std::string lv = LocVar(*atom);
    if (!lv.empty()) locs.insert(lv);
  }
  return locs;
}

std::optional<size_t> FindConnector(const Rule& rule,
                                    const std::set<std::string>& locs) {
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Atom* cand = std::get_if<Atom>(&rule.body[i]);
    if (cand == nullptr) continue;
    std::string a = LocVar(*cand);
    if (a.empty() || cand->args.size() < 2 || !cand->args[1].expr->is_var()) {
      continue;
    }
    std::string b = cand->args[1].expr->var_name();
    if (!locs.count(a) || !locs.count(b) || a == b) continue;
    bool others_at_b = true;
    for (size_t j = 0; j < rule.body.size() && others_at_b; ++j) {
      const Atom* other = std::get_if<Atom>(&rule.body[j]);
      others_at_b = j == i || other == nullptr || LocVar(*other) == b;
    }
    if (others_at_b) return i;
  }
  return std::nullopt;
}

Result<Program> Localize(const AnalyzedProgram& analyzed) {
  const Program& in = analyzed.program;
  Program out;
  out.materializations = in.materializations;

  // Predicates for which the reversed table has been generated.
  std::set<std::string> reversed;

  for (const Rule& rule : in.rules) {
    std::set<std::string> locs = BodyLocations(rule);
    if (locs.size() <= 1) {
      out.rules.push_back(rule);
      continue;
    }
    if (locs.size() > 2) {
      return Status::PlanError("rule " + rule.name +
                               ": body spans more than two locations; not "
                               "localizable");
    }
    if (rule.is_maybe) {
      return Status::PlanError("rule " + rule.name +
                               ": maybe rules must be local");
    }
    std::optional<size_t> connector = FindConnector(rule, locs);
    if (!connector) {
      return Status::PlanError(
          "rule " + rule.name +
          ": body spans two locations but no link-shaped atom connects "
          "them; not localizable");
    }

    // Rewrite the connector in place: p(@A, B, rest...) -> p_d(@B, A, rest...).
    Rule rewritten = rule;
    Atom& cand = std::get<Atom>(rewritten.body[*connector]);
    const std::string pred = cand.predicate;
    const TableInfo* info = analyzed.FindTable(pred);
    Atom repl;
    repl.predicate = pred + kReversedSuffix;
    AtomArg r0;
    r0.is_location = true;
    r0.expr = cand.args[1].expr;
    repl.args.push_back(r0);
    AtomArg r1;
    r1.expr = cand.args[0].expr;
    repl.args.push_back(r1);
    for (size_t j = 2; j < cand.args.size(); ++j) {
      repl.args.push_back(cand.args[j]);
    }
    size_t arity = cand.args.size();
    cand = std::move(repl);

    if (!reversed.count(pred)) {
      reversed.insert(pred);
      out.rules.push_back(MakeReversalRule(pred, arity));
      if (info != nullptr && info->materialized) {
        MaterializeDecl decl;
        decl.table = pred + kReversedSuffix;
        // Copy lifetime/size from the original declaration if present.
        if (const MaterializeDecl* orig = in.FindMaterialization(pred)) {
          decl.lifetime_secs = orig->lifetime_secs;
          decl.max_size = orig->max_size;
        }
        for (int k : info->keys) {
          decl.keys.push_back(k == 0 ? 1 : (k == 1 ? 0 : k));
        }
        out.materializations.push_back(std::move(decl));
      }
    }
    out.rules.push_back(std::move(rewritten));
  }
  return out;
}

}  // namespace ndlog
}  // namespace nettrails
