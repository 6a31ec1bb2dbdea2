#include "src/ndlog/localize.h"

#include <gtest/gtest.h>

#include "src/ndlog/parser.h"
#include "tests/ndlog/shipped_programs.h"

namespace nettrails {
namespace ndlog {
namespace {

Result<Program> ParseAnalyzeLocalize(const std::string& src) {
  Result<Program> prog = Parse(src);
  if (!prog.ok()) return prog.status();
  Result<AnalyzedProgram> analyzed = Analyze(std::move(prog).value());
  if (!analyzed.ok()) return analyzed.status();
  return Localize(*analyzed);
}

// All body atoms of every rule share one location variable.
void ExpectLocalized(const Program& prog) {
  for (const Rule& rule : prog.rules) {
    std::set<std::string> locs;
    for (const Atom* atom : rule.BodyAtoms()) {
      if (atom->args[0].expr->is_var()) {
        locs.insert(atom->args[0].expr->var_name());
      }
    }
    EXPECT_LE(locs.size(), 1u) << rule.ToString();
  }
}

TEST(LocalizeTest, LocalRulesPassThrough) {
  Result<Program> out = ParseAnalyzeLocalize(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(path, infinity, infinity, keys(1,2)).
    r1 path(@X,Y) :- link(@X,Y,C).
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rules.size(), 1u);
}

TEST(LocalizeTest, CanonicalPathVectorRule) {
  Result<Program> out = ParseAnalyzeLocalize(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(path, infinity, infinity, keys(1,2,3,4)).
    sp1 path(@X,Y,C,P) :- link(@X,Y,C), P := f_list(X,Y).
    sp2 path(@X,Z,C,P) :- link(@X,Y,C1), path(@Y,Z,C2,P2),
                          C := C1 + C2, P := f_prepend(X,P2).
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectLocalized(*out);

  // The reversed-link table and its deriving rule were generated.
  bool found_reversal_rule = false;
  for (const Rule& r : out->rules) {
    if (r.head.predicate == "link_d") {
      found_reversal_rule = true;
      ASSERT_EQ(r.BodyAtoms().size(), 1u);
      EXPECT_EQ(r.BodyAtoms()[0]->predicate, "link");
    }
  }
  EXPECT_TRUE(found_reversal_rule);
  const MaterializeDecl* decl = out->FindMaterialization("link_d");
  ASSERT_NE(decl, nullptr);
  // Keys (1,2) swap to (2,1) -> stored 0-based {1,0} in some order.
  std::vector<int> keys = decl->keys;
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<int>{0, 1}));

  // sp2 now uses link_d at @Y.
  for (const Rule& r : out->rules) {
    if (r.name == "sp2") {
      ASSERT_EQ(r.BodyAtoms().size(), 2u);
      EXPECT_EQ(r.BodyAtoms()[0]->predicate, "link_d");
      EXPECT_EQ(r.BodyAtoms()[0]->args[0].expr->var_name(), "Y");
    }
  }
}

TEST(LocalizeTest, ReversalGeneratedOncePerPredicate) {
  Result<Program> out = ParseAnalyzeLocalize(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(b, infinity, infinity, keys(1,2)).
    r1 a(@X,Z) :- link(@X,Y,C), a(@Y,Z).
    r2 b(@X,Z) :- link(@X,Y,C), b(@Y,Z).
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  int reversal_rules = 0;
  for (const Rule& r : out->rules) {
    if (r.head.predicate == "link_d") ++reversal_rules;
  }
  EXPECT_EQ(reversal_rules, 1);
}

TEST(LocalizeTest, RuleAtLinkSourceAlreadyLocal) {
  // All body atoms at X; the head ships to Y. No rewrite needed.
  Result<Program> out = ParseAnalyzeLocalize(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(reach, infinity, infinity, keys(1,2)).
    r1 reach(@Y,X) :- link(@X,Y,C), reach(@X,X2).
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rules.size(), 1u);
  ExpectLocalized(*out);
}

TEST(LocalizeTest, ThreeLocationsRejected) {
  Result<Program> out = ParseAnalyzeLocalize(R"(
    materialize(a, infinity, infinity, keys(1)).
    materialize(b, infinity, infinity, keys(1)).
    materialize(c, infinity, infinity, keys(1)).
    materialize(o, infinity, infinity, keys(1)).
    r1 o(@X) :- a(@X), b(@Y), c(@Z).
  )");
  EXPECT_FALSE(out.ok());
}

TEST(LocalizeTest, TwoLocationsWithoutLinkAtomRejected) {
  Result<Program> out = ParseAnalyzeLocalize(R"(
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(b, infinity, infinity, keys(1,2)).
    materialize(o, infinity, infinity, keys(1,2)).
    r1 o(@X,W) :- a(@X,V), b(@Y,W).
  )");
  EXPECT_FALSE(out.ok());
}

TEST(LocalizeTest, LocalizedProgramReanalyzes) {
  Result<Program> out = ParseAnalyzeLocalize(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(path, infinity, infinity, keys(1,2,3,4)).
    sp2 path(@X,Z,C,P) :- link(@X,Y,C1), path(@Y,Z,C2,P2),
                          C := C1 + C2, P := f_prepend(X,P2).
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  Result<AnalyzedProgram> again = Analyze(std::move(out).value());
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST(LocalizeTest, RulesKeepNameAndBodyPositions) {
  // The invariant ndlint's plan-quality pass relies on: each user rule
  // appears in order under its own name and span, and body term i of the
  // localized rule is body term i of the user's rule, except that the
  // connector l(@A,B,...) becomes l_d(@B,A,...) in place.
  int rewritten = 0;
  for (const auto& [label, src] : ShippedSources()) {
    SCOPED_TRACE(label);
    Result<Program> parsed = Parse(src);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Result<AnalyzedProgram> analyzed = Analyze(std::move(parsed).value());
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    Result<Program> out = Localize(*analyzed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();

    auto next = out->rules.begin();
    for (const Rule& user : analyzed->program.rules) {
      while (next != out->rules.end() && next->name != user.name) {
        EXPECT_FALSE(next->span.valid()) << "unexpected " << next->ToString();
        ++next;
      }
      ASSERT_NE(next, out->rules.end()) << "lost rule " << user.name;
      const Rule& local = *next++;
      EXPECT_EQ(local.span.line, user.span.line) << user.name;
      EXPECT_EQ(local.span.column, user.span.column) << user.name;
      ASSERT_EQ(local.body.size(), user.body.size()) << user.name;
      int replaced = 0;
      for (size_t i = 0; i < user.body.size(); ++i) {
        if (BodyTermToString(local.body[i]) ==
            BodyTermToString(user.body[i])) {
          continue;
        }
        ++replaced;
        const Atom* was = std::get_if<Atom>(&user.body[i]);
        const Atom* now = std::get_if<Atom>(&local.body[i]);
        ASSERT_NE(was, nullptr) << user.name << " term " << i;
        ASSERT_NE(now, nullptr) << user.name << " term " << i;
        EXPECT_EQ(now->predicate, was->predicate + kReversedSuffix);
        ASSERT_EQ(now->args.size(), was->args.size());
        EXPECT_EQ(now->args[0].expr->ToString(), was->args[1].expr->ToString());
        EXPECT_EQ(now->args[1].expr->ToString(), was->args[0].expr->ToString());
        for (size_t a = 2; a < was->args.size(); ++a) {
          EXPECT_EQ(now->args[a].expr->ToString(),
                    was->args[a].expr->ToString());
        }
      }
      EXPECT_LE(replaced, 1) << user.name;
      rewritten += replaced;
    }
  }
  // The corpus's two-site rules: mc2, pv2, r2 and sp2.
  EXPECT_EQ(rewritten, 4);
}

}  // namespace
}  // namespace ndlog
}  // namespace nettrails
