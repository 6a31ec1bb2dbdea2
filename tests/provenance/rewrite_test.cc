#include "src/provenance/rewrite.h"

#include <gtest/gtest.h>

#include "src/ndlog/parser.h"

namespace nettrails {
namespace provenance {
namespace {

using ndlog::AnalyzedProgram;
using ndlog::Program;
using ndlog::Rule;

Result<Program> RewriteSrc(const std::string& src) {
  Result<Program> prog = ndlog::Parse(src);
  if (!prog.ok()) return prog.status();
  Result<AnalyzedProgram> analyzed = ndlog::Analyze(std::move(prog).value());
  if (!analyzed.ok()) return analyzed.status();
  return RewriteForProvenance(*analyzed);
}

const Rule* FindRule(const Program& prog, const std::string& name) {
  for (const Rule& r : prog.rules) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

constexpr char kSimpleSrc[] = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(reach, infinity, infinity, keys(1,2)).
  r1 reach(@X,Y) :- link(@X,Y,C).
)";

TEST(RewriteTest, ReservedPredicateDetection) {
  EXPECT_TRUE(IsProvenancePredicate("prov"));
  EXPECT_TRUE(IsProvenancePredicate("ruleExec"));
  // The engine records rule executions itself: no eh_* views remain.
  EXPECT_FALSE(IsProvenancePredicate("eh_r1"));
  EXPECT_FALSE(IsProvenancePredicate("reach"));
  EXPECT_FALSE(IsProvenancePredicate("myeh_x"));
}

TEST(RewriteTest, OrdinaryRulesPassThrough) {
  Result<Program> out = RewriteSrc(kSimpleSrc);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The engine records each firing's ruleExec row and prov edge, so the
  // rule stays as written and no execution-history rules are generated.
  const Rule* r1 = FindRule(*out, "r1");
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->head.predicate, "reach");
  EXPECT_EQ(r1->body.size(), 1u);
  for (const char* gone : {"r1_eh", "r1_hd", "r1_re", "r1_pr"}) {
    EXPECT_EQ(FindRule(*out, gone), nullptr) << gone;
  }
  // r1 plus link's self-edge rule.
  EXPECT_EQ(out->rules.size(), 2u);
}

TEST(RewriteTest, DeclaresProvenanceTables) {
  Result<Program> out = RewriteSrc(kSimpleSrc);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->FindMaterialization(kProvTable), nullptr);
  EXPECT_NE(out->FindMaterialization(kRuleExecTable), nullptr);
  EXPECT_EQ(out->FindMaterialization("eh_r1"), nullptr);
  // All-fields keys (counting semantics).
  EXPECT_TRUE(out->FindMaterialization(kProvTable)->keys.empty());
}

TEST(RewriteTest, BaseTablesGetSelfEdgeRules) {
  Result<Program> out = RewriteSrc(kSimpleSrc);
  ASSERT_TRUE(out.ok());
  const Rule* bp = FindRule(*out, "link_bprov");
  ASSERT_NE(bp, nullptr);
  EXPECT_EQ(bp->head.predicate, kProvTable);
  ASSERT_EQ(bp->head.args.size(), kProvArity);
  // VID and RID are the same variable: self-edge.
  EXPECT_EQ(bp->head.args[1].expr->ToString(),
            bp->head.args[2].expr->ToString());
  // Derived tables get no self-edge rule.
  EXPECT_EQ(FindRule(*out, "reach_bprov"), nullptr);
}

TEST(RewriteTest, MaybeRuleJoinsHeadAsBody) {
  const char* src = R"(
    materialize(i, infinity, infinity, keys(1,2)).
    materialize(o, infinity, infinity, keys(1,2)).
    m1 o(@X,R2) ?- i(@X,R1), f_isExtend(R2,R1,X) == 1.
  )";
  Result<Program> out = RewriteSrc(src);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Rule* m1 = FindRule(*out, "m1");
  ASSERT_NE(m1, nullptr);
  // Still a maybe rule (the engine records it provenance-only, with
  // Maybe = 1); its first body atom is the (externally inserted) head.
  EXPECT_TRUE(m1->is_maybe);
  ASSERT_EQ(m1->BodyAtoms().size(), 2u);
  EXPECT_EQ(m1->BodyAtoms()[0]->predicate, "o");
  EXPECT_EQ(m1->BodyAtoms()[1]->predicate, "i");
  for (const char* gone : {"m1_eh", "m1_hd", "m1_re", "m1_pr"}) {
    EXPECT_EQ(FindRule(*out, gone), nullptr) << gone;
  }
  // Maybe heads do not get base self-edges (their prov is the inference).
  EXPECT_EQ(FindRule(*out, "o_bprov"), nullptr);
  EXPECT_NE(FindRule(*out, "i_bprov"), nullptr);
}

TEST(RewriteTest, AggregateRulesPassThrough) {
  const char* src = R"(
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2)).
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
  )";
  Result<Program> out = RewriteSrc(src);
  ASSERT_TRUE(out.ok());
  const Rule* mc3 = FindRule(*out, "mc3");
  ASSERT_NE(mc3, nullptr);
  EXPECT_TRUE(mc3->head.HasAggregate());
}

TEST(RewriteTest, DuplicateRuleNamesRejected) {
  const char* src = R"(
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(b, infinity, infinity, keys(1,2)).
    r1 b(@X,Y) :- a(@X,Y).
    r1 a(@X,Y) :- b(@X,Y).
  )";
  EXPECT_FALSE(RewriteSrc(src).ok());
}

TEST(RewriteTest, ReservedHeadRejected) {
  const char* src = R"(
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(ruleExec, infinity, infinity, keys(1,2)).
    r1 ruleExec(@X,Y) :- a(@X,Y).
  )";
  EXPECT_FALSE(RewriteSrc(src).ok());
}

TEST(RewriteTest, RewrittenProgramReanalyzes) {
  Result<Program> out = RewriteSrc(kSimpleSrc);
  ASSERT_TRUE(out.ok());
  Result<AnalyzedProgram> again = ndlog::Analyze(std::move(out).value());
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST(RewriteTest, SelfEdgeVidUsesMkVid) {
  Result<Program> out = RewriteSrc(kSimpleSrc);
  ASSERT_TRUE(out.ok());
  std::string text = out->ToString();
  EXPECT_NE(text.find("f_mkvid(\"link\""), std::string::npos);
  // Rule-execution digests are the engine's, not generated rules'.
  EXPECT_EQ(text.find("f_mkrid"), std::string::npos);
}

}  // namespace
}  // namespace provenance
}  // namespace nettrails
