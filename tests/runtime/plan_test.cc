#include "src/runtime/plan.h"

#include <gtest/gtest.h>

#include "src/protocols/programs.h"
#include "src/provenance/rewrite.h"

namespace nettrails {
namespace runtime {
namespace {

TEST(PlanTest, CompilesMincostWithoutProvenance) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), opts);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_FALSE((*prog)->provenance);
  // mc1, mc2 (localized), mc3, plus the link reversal rule.
  EXPECT_EQ((*prog)->rules.size(), 4u);
  EXPECT_NE((*prog)->FindTable("link_d"), nullptr);
}

TEST(PlanTest, CompilesMincostWithProvenance) {
  Result<CompiledProgramPtr> prog = Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE((*prog)->provenance);
  EXPECT_NE((*prog)->FindTable(provenance::kProvTable), nullptr);
  EXPECT_NE((*prog)->FindTable(provenance::kRuleExecTable), nullptr);
  // The engine records each firing's provenance itself: no generated
  // execution-history tables. The rules are the four compiled without
  // provenance plus link's base-tuple self-edge rule.
  for (const auto& [name, info] : (*prog)->tables) {
    EXPECT_NE(name.rfind("eh_", 0), 0u) << name;
  }
  EXPECT_EQ((*prog)->rules.size(), 5u);
  size_t recording = 0;
  for (const CompiledRule& cr : (*prog)->rules) {
    if (cr.records_provenance) ++recording;
  }
  // mc1, mc2 and the reversal rule; not the aggregate mc3 (the engine
  // records its winners) nor link_bprov (its head is prov).
  EXPECT_EQ(recording, 3u);
}

TEST(PlanTest, CompilesPathVectorWithProvenance) {
  Result<CompiledProgramPtr> plain =
      Compile(protocols::PathVectorProgram(), NoProvenanceOptions());
  Result<CompiledProgramPtr> prog = Compile(protocols::PathVectorProgram());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  // Provenance adds only link's base-tuple self-edge rule.
  EXPECT_EQ((*plain)->rules.size(), 5u);
  EXPECT_EQ((*prog)->rules.size(), 6u);
  EXPECT_NE((*prog)->FindTable(provenance::kProvTable), nullptr);
}

TEST(PlanTest, AllShippedProtocolsCompile) {
  for (const char* src :
       {protocols::MincostProgram(), protocols::PathVectorProgram(),
        protocols::DsrProgram(), protocols::BgpMaybeProgram()}) {
    for (bool prov : {false, true}) {
      CompileOptions opts;
      opts.provenance = prov;
      Result<CompiledProgramPtr> prog = Compile(src, opts);
      EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    }
  }
}

TEST(PlanTest, TriggersIndexEveryBodyAtom) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), opts);
  ASSERT_TRUE(prog.ok());
  // link triggers mc1 and the reversal rule; link_d and mincost trigger mc2;
  // cost triggers mc3.
  EXPECT_GE((*prog)->triggers.at("link").size(), 2u);
  EXPECT_EQ((*prog)->triggers.at("mincost").size(), 1u);
  EXPECT_EQ((*prog)->triggers.at("cost").size(), 1u);
}

TEST(PlanTest, EventRulesTriggerOnlyOnTheEvent) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog = Compile(protocols::DsrProgram(), opts);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  // dr1/dr2 contain the rreq event and a link atom: the rules must not be
  // triggered by link deltas.
  auto it = (*prog)->triggers.find("link");
  if (it != (*prog)->triggers.end()) {
    for (const auto& [rule_idx, pos] : it->second) {
      const CompiledRule& cr = (*prog)->rules[rule_idx];
      for (size_t p : cr.atom_positions) {
        const auto& atom = std::get<ndlog::Atom>(cr.rule.body[p]);
        EXPECT_NE(atom.predicate, "rreq")
            << "rule with event body triggered by link: " << cr.rule.name;
      }
    }
  }
  EXPECT_GE((*prog)->triggers.at("rreq").size(), 2u);
}

TEST(PlanTest, AggregateRuleMetadata) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), opts);
  ASSERT_TRUE(prog.ok());
  const CompiledRule* agg = nullptr;
  for (const CompiledRule& cr : (*prog)->rules) {
    if (cr.has_agg) agg = &cr;
  }
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->rule.name, "mc3");
  EXPECT_EQ(agg->agg_fn, ndlog::AggFn::kMin);
  EXPECT_EQ(agg->agg_arg_index, 2u);
}

TEST(PlanTest, AggregateHeadKeyMustMatchGroup) {
  const char* src = R"(
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2,3)).
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
  )";
  EXPECT_FALSE(Compile(src).ok());
}

TEST(PlanTest, UnknownBuiltinRejected) {
  // Rejected when the program compiles — expression lowering resolves every
  // builtin — not lazily on the first firing.
  const char* src = R"(
    materialize(t, infinity, infinity, keys(1)).
    r1 t(@X) :- t(@X), f_bogus(X) == 1.
  )";
  Result<CompiledProgramPtr> prog = Compile(src);
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), Status::Code::kPlanError);
  EXPECT_NE(prog.status().message().find("f_bogus"), std::string::npos);
}

TEST(PlanTest, BuiltinArityRejectedAtCompileTime) {
  // f_size is unary; the arity violation is caught by the lowering pass.
  const char* src = R"(
    materialize(t, infinity, infinity, keys(1)).
    r1 t(@X) :- t(@X), f_size(X, X) == 1.
  )";
  Result<CompiledProgramPtr> prog = Compile(src);
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), Status::Code::kPlanError);
  EXPECT_NE(prog.status().message().find("argument"), std::string::npos);
  // Same check covers head expressions.
  const char* head_src = R"(
    materialize(t, infinity, infinity, keys(1)).
    materialize(u, infinity, infinity, keys(1,2)).
    r1 u(@X, f_abs(X, X)) :- t(@X).
  )";
  EXPECT_FALSE(Compile(head_src).ok());
}

TEST(PlanTest, RulesLowerToSlotFrames) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), opts);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  for (const CompiledRule& cr : (*prog)->rules) {
    // Lowered body and head are index-parallel to the AST rule.
    ASSERT_EQ(cr.body.size(), cr.rule.body.size());
    ASSERT_EQ(cr.head_exprs.size(), cr.rule.head.args.size());
    EXPECT_GT(cr.slots.size(), 0u) << cr.rule.name;
    for (size_t i = 0; i < cr.body.size(); ++i) {
      const CompiledTerm& term = cr.body[i];
      if (const auto* atom = std::get_if<ndlog::Atom>(&cr.rule.body[i])) {
        ASSERT_EQ(term.kind, CompiledTerm::Kind::kAtom);
        ASSERT_EQ(term.atom.args.size(), atom->args.size());
        for (size_t a = 0; a < atom->args.size(); ++a) {
          const SlotArg& sa = term.atom.args[a];
          if (atom->args[a].expr->is_var()) {
            ASSERT_GE(sa.slot, 0);
            ASSERT_LT(static_cast<size_t>(sa.slot), cr.slots.size());
            // The slot maps back to exactly this variable name.
            EXPECT_EQ(cr.slots.name(sa.slot), atom->args[a].expr->var_name());
          } else {
            EXPECT_TRUE(sa.is_const());
            EXPECT_EQ(sa.constant, atom->args[a].expr->const_value());
          }
        }
      } else if (std::get_if<ndlog::Assign>(&cr.rule.body[i])) {
        ASSERT_EQ(term.kind, CompiledTerm::Kind::kAssign);
        EXPECT_GE(term.assign_slot, 0);
        EXPECT_TRUE(term.expr.valid());
      } else {
        ASSERT_EQ(term.kind, CompiledTerm::Kind::kSelect);
        EXPECT_TRUE(term.expr.valid());
      }
    }
    // Aggregate a_count<*> aside, every head argument lowers.
    for (size_t i = 0; i < cr.head_exprs.size(); ++i) {
      if (cr.rule.head.args[i].expr) {
        EXPECT_TRUE(cr.head_exprs[i].valid());
      }
    }
  }
}

TEST(PlanTest, LoweredCallsArePreResolved) {
  // The provenance rewrite makes heavy use of f_mkvid/f_mkrid; every Call
  // node in the compiled program must carry its resolved builtin pointer.
  Result<CompiledProgramPtr> prog = Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  size_t call_nodes = 0;
  auto check_expr = [&](const CompiledExpr& e) {
    for (const CompiledExpr::Node& node : e.nodes) {
      if (node.op != CompiledExpr::Op::kCall) continue;
      ++call_nodes;
      ASSERT_NE(node.fn, nullptr) << node.name;
      EXPECT_EQ(node.fn, FindBuiltin(node.name)) << node.name;
    }
  };
  for (const CompiledRule& cr : (*prog)->rules) {
    for (const CompiledTerm& term : cr.body) {
      if (term.expr.valid()) check_expr(term.expr);
    }
    for (const CompiledExpr& e : cr.head_exprs) {
      if (e.valid()) check_expr(e);
    }
  }
  EXPECT_GT(call_nodes, 0u);
}

TEST(PlanTest, MaybeRulesDroppedWithoutProvenance) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::BgpMaybeProgram(), opts);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE((*prog)->rules.empty());
}

TEST(PlanTest, MaybeRulesBecomeProvenanceRules) {
  Result<CompiledProgramPtr> prog = Compile(protocols::BgpMaybeProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const CompiledRule* br1 = nullptr;
  for (const CompiledRule& cr : (*prog)->rules) {
    EXPECT_NE(cr.rule.head.predicate.rfind("eh_", 0), 0u);
    if (cr.rule.name == "br1") br1 = &cr;
  }
  ASSERT_NE(br1, nullptr);
  // A provenance-only rule: it records ruleExec/prov (Maybe = 1) when the
  // observed head joins its body as the first atom, and never derives
  // outputRoute, which stays external.
  EXPECT_TRUE(br1->rule.is_maybe);
  EXPECT_TRUE(br1->records_provenance);
  ASSERT_FALSE(br1->atom_positions.empty());
  EXPECT_EQ(std::get<ndlog::Atom>(br1->rule.body[br1->atom_positions[0]])
                .predicate,
            br1->rule.head.predicate);
  EXPECT_EQ(br1->rule.head.predicate, "outputRoute");
}

TEST(PlanTest, ReservedPredicatesRejected) {
  const char* src = R"(
    materialize(prov, infinity, infinity, keys(1,2)).
    r1 prov(@X,Y) :- somebase(@X,Y).
  )";
  EXPECT_FALSE(Compile(src).ok());
}

TEST(PlanTest, DuplicateRuleNamesRejectedWithProvenance) {
  const char* src = R"(
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(b, infinity, infinity, keys(1,2)).
    r1 b(@X,Y) :- a(@X,Y).
    r1 a(@X,Y) :- b(@X,Y).
  )";
  EXPECT_FALSE(Compile(src).ok());
}

TEST(PlanTest, DumpShowsRewrittenProgram) {
  Result<CompiledProgramPtr> prog = Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok());
  std::string dump = (*prog)->Dump();
  // Both views are declared; the base-tuple self-edge rules derive prov.
  EXPECT_NE(dump.find("materialize(prov"), std::string::npos);
  EXPECT_NE(dump.find("materialize(ruleExec"), std::string::npos);
  EXPECT_NE(dump.find("prov(@"), std::string::npos);
  EXPECT_NE(dump.find("f_mkvid"), std::string::npos);
  // Rule executions are recorded by the engine, not by generated rules.
  EXPECT_EQ(dump.find("f_mkrid"), std::string::npos);
}

TEST(PlanTest, DumpedProgramsAreValidNdlog) {
  // The rewritten program text (what the demo displays as "the modified
  // program containing the provenance rules") must itself re-compile.
  for (const char* src :
       {protocols::MincostProgram(), protocols::PathVectorProgram(),
        protocols::DsrProgram()}) {
    Result<CompiledProgramPtr> prog = Compile(src);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    CompileOptions no_prov;
    no_prov.provenance = false;  // it already contains the prov rules
    Result<CompiledProgramPtr> again = Compile((*prog)->Dump(), no_prov);
    EXPECT_TRUE(again.ok()) << again.status().ToString();
    if (again.ok()) {
      EXPECT_EQ((*again)->rules.size(), (*prog)->rules.size());
    }
  }
}

TEST(PlanTest, BodyWithoutAtomsRejected) {
  const char* src = R"(
    materialize(t, infinity, infinity, keys(1)).
    r1 t(@X) :- X := @1.
  )";
  // X := @1 binds X, but a rule needs at least one atom to be triggered.
  EXPECT_FALSE(Compile(src).ok());
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
