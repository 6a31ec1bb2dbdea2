// ndlint pass tests: one malformed fixture per diagnostic code (asserting
// code, severity, and span), clean-lint assertions over every shipped
// protocol program, suppression pragmas, and the Compile() integration
// (error findings become PlanErrors; warnings and notes do not).
#include "src/ndlog/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "src/ndlog/analysis.h"
#include "src/ndlog/parser.h"
#include "src/protocols/programs.h"
#include "src/runtime/plan.h"
#include "tests/ndlog/shipped_programs.h"

namespace nettrails {
namespace ndlog {
namespace {

DiagnosticEngine Lint(const std::string& src, LintOptions options = {}) {
  Result<Program> prog = Parse(src);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  Result<AnalyzedProgram> analyzed = Analyze(std::move(prog).value());
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::vector<std::string> pragmas = ParseLintPragmas(src);
  options.allow.insert(options.allow.end(), pragmas.begin(), pragmas.end());
  return LintProgram(analyzed.value(), options);
}

/// First finding with `code`, or nullptr.
const Diagnostic* Find(const DiagnosticEngine& diags, const std::string& code) {
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

::testing::AssertionResult HasFinding(const DiagnosticEngine& diags,
                                      const std::string& code,
                                      Severity severity, int line) {
  const Diagnostic* d = Find(diags, code);
  if (d == nullptr) {
    return ::testing::AssertionFailure()
           << "no " << code << " finding; got:\n" << diags.RenderAll();
  }
  if (d->severity != severity) {
    return ::testing::AssertionFailure()
           << code << " severity " << SeverityName(d->severity) << ", want "
           << SeverityName(severity);
  }
  if (d->span.line != line) {
    return ::testing::AssertionFailure()
           << code << " at line " << d->span.line << ", want line " << line
           << " (" << d->Render() << ")";
  }
  if (d->span.column <= 0) {
    return ::testing::AssertionFailure() << code << " has no column";
  }
  return ::testing::AssertionSuccess();
}

size_t CountWarningsOrWorse(const DiagnosticEngine& diags) {
  return diags.CountAtLeast(Severity::kWarning);
}

// ---------------------------------------------------------------------------
// Stratification (ND1xx)

TEST(LintTest, ND101UnstratifiedCountCycle) {
  DiagnosticEngine diags = Lint(
      R"(materialize(cnt, infinity, infinity, keys(1)).
materialize(obs, infinity, infinity, keys(1,2)).
c1 cnt(@X,a_count<*>) :- obs(@X,Y).
c2 obs(@X,N) :- cnt(@X,N).
)");
  EXPECT_TRUE(HasFinding(diags, "ND101", Severity::kError, 3));
}

TEST(LintTest, ND101SumCycleAlsoFlagged) {
  DiagnosticEngine diags = Lint(
      R"(materialize(total, infinity, infinity, keys(1)).
materialize(obs, infinity, infinity, keys(1,2)).
s1 total(@X,a_sum<Y>) :- obs(@X,Y).
s2 obs(@X,N) :- total(@X,N).
)");
  EXPECT_TRUE(HasFinding(diags, "ND101", Severity::kError, 3));
}

TEST(LintTest, MinRecursionIsLegal) {
  // MINCOST's recursion through a_min is the paper's own program; it must
  // not be flagged.
  DiagnosticEngine diags = Lint(protocols::MincostProgram());
  EXPECT_EQ(Find(diags, "ND101"), nullptr) << diags.RenderAll();
}

TEST(LintTest, ND102MaybeRuleInCycle) {
  DiagnosticEngine diags = Lint(
      R"(materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
m1 a(@X,Y) ?- b(@X,Y).
r1 b(@X,Y) :- a(@X,Y).
)");
  EXPECT_TRUE(HasFinding(diags, "ND102", Severity::kWarning, 3));
}

// ---------------------------------------------------------------------------
// Type inference (ND2xx)

TEST(LintTest, ND201ConflictingFieldTypes) {
  DiagnosticEngine diags = Lint(
      R"(materialize(t, infinity, infinity, keys(1,2)).
f1 t(@X,1) :- periodic(@X,E,1,1).
f2 t(@X,"s") :- periodic(@X,E,1,1).
)");
  // The conflict is reported at the later use (program order).
  EXPECT_TRUE(HasFinding(diags, "ND201", Severity::kError, 3));
}

TEST(LintTest, StringFieldFlowsAcrossRulesIntoArithmetic) {
  // The string type flows const -> field -> var across rules; the
  // arithmetic misuse is caught with no literal at the conflict site.
  DiagnosticEngine diags = Lint(
      R"(materialize(t, infinity, infinity, keys(1,2)).
materialize(u, infinity, infinity, keys(1,2)).
f1 t(@X,"s") :- periodic(@X,E,1,1).
f2 u(@X,S2) :- t(@X,S), S2 := S + 1.
)");
  ASSERT_NE(Find(diags, "ND203"), nullptr) << diags.RenderAll();
}

TEST(LintTest, ND202BuiltinArgumentMismatch) {
  DiagnosticEngine diags = Lint(
      R"(s1 out(@X,S) :- periodic(@X,E,1,1), S := f_size(7).
)");
  EXPECT_TRUE(HasFinding(diags, "ND202", Severity::kError, 1));
}

TEST(LintTest, ND203DisjointComparison) {
  DiagnosticEngine diags = Lint(
      R"(s1 out(@X) :- periodic(@X,E,1,1), A := f_list(X), A == 3.
)");
  EXPECT_TRUE(HasFinding(diags, "ND203", Severity::kWarning, 1));
}

TEST(LintTest, IntDoubleComparisonIsNotFlagged) {
  DiagnosticEngine diags = Lint(
      R"(s1 out(@X) :- periodic(@X,E,1,1), A := 1 + 2, A < 2.5.
)");
  EXPECT_EQ(Find(diags, "ND203"), nullptr) << diags.RenderAll();
}

// ---------------------------------------------------------------------------
// Link restriction (ND3xx)

TEST(LintTest, ND301ThreeLocations) {
  DiagnosticEngine diags = Lint(
      R"(materialize(a, infinity, infinity, keys(1,2)).
r1 out(@X) :- a(@X,Y), a(@Y,Z), a(@Z,W).
)");
  EXPECT_TRUE(HasFinding(diags, "ND301", Severity::kError, 2));
}

TEST(LintTest, ND302TwoLocationsNoConnector) {
  DiagnosticEngine diags = Lint(
      R"(materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
r1 out(@X) :- a(@X,C), b(@Y,C).
)");
  EXPECT_TRUE(HasFinding(diags, "ND302", Severity::kError, 3));
}

TEST(LintTest, LinkShapedConnectorIsAccepted) {
  // The canonical path-vector sp2 shape: link(@X,Y,...) with the rest of
  // the body at Y.
  DiagnosticEngine diags = Lint(
      R"(materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
r1 path(@X,Z,C) :- link(@X,Y,C1), path(@Y,Z,C2), C := C1 + C2.
)");
  EXPECT_EQ(Find(diags, "ND301"), nullptr) << diags.RenderAll();
  EXPECT_EQ(Find(diags, "ND302"), nullptr) << diags.RenderAll();
}

TEST(LintTest, ND303ShipToNonLinkNeighbor) {
  DiagnosticEngine diags = Lint(
      R"(materialize(a, infinity, infinity, keys(1,2)).
r1 out(@Y,X) :- a(@X,Y).
)");
  EXPECT_TRUE(HasFinding(diags, "ND303", Severity::kWarning, 2));
}

TEST(LintTest, ND303RespectsDeclaredLinkPredicates) {
  // Same rule, but `a` declared as a link predicate: shipping along its
  // second field is the legal one-hop pattern.
  LintOptions options;
  options.link_predicates.insert("a");
  DiagnosticEngine diags = Lint(
      R"(materialize(a, infinity, infinity, keys(1,2)).
r1 out(@Y,X) :- a(@X,Y).
)",
      options);
  EXPECT_EQ(Find(diags, "ND303"), nullptr) << diags.RenderAll();
}

// ---------------------------------------------------------------------------
// Dead code (ND4xx)

TEST(LintTest, ND401DeadEventRule) {
  DiagnosticEngine diags = Lint(
      R"(materialize(link, infinity, infinity, keys(1,2)).
r1 ev(@X,Y) :- link(@X,Y,C).
)");
  EXPECT_TRUE(HasFinding(diags, "ND401", Severity::kWarning, 2));
}

TEST(LintTest, ND402WriteOnlyVariable) {
  DiagnosticEngine diags = Lint(
      R"(materialize(link, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@X,Y) :- link(@X,Y,C), Z := C + 1.
)");
  EXPECT_TRUE(HasFinding(diags, "ND402", Severity::kWarning, 3));
}

TEST(LintTest, ND403SingletonVariable) {
  DiagnosticEngine diags = Lint(
      R"(materialize(link, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1)).
r1 out(@X) :- link(@X,Y,C).
)");
  EXPECT_TRUE(HasFinding(diags, "ND403", Severity::kNote, 3));
}

TEST(LintTest, LocationVariablesAreNeverSingletons) {
  // X names the evaluation site; it must not be flagged even though it
  // appears nowhere else.
  DiagnosticEngine diags = Lint(
      R"(materialize(t, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@X,Y) :- t(@X,Y).
)");
  EXPECT_EQ(Find(diags, "ND403"), nullptr) << diags.RenderAll();
}

// ---------------------------------------------------------------------------
// Plan quality (ND5xx)

TEST(LintTest, ND501ScanFallbackJoin) {
  // On a `b` delta nothing in `a` is bound — not even the location — so
  // every delta scans the whole table.
  DiagnosticEngine diags = Lint(
      R"(materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
r1 out(@X,Z) :- a(@X,Y), b(@1,Z), Y == Z.
)");
  EXPECT_TRUE(HasFinding(diags, "ND501", Severity::kWarning, 3));
}

TEST(LintTest, ND502BroadcastJoin) {
  DiagnosticEngine diags = Lint(
      R"(materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2,3)).
r1 out(@X,Y,Z) :- a(@X,Y), b(@X,Z).
)");
  EXPECT_TRUE(HasFinding(diags, "ND502", Severity::kNote, 4));
}

TEST(LintTest, IndexedJoinIsClean) {
  DiagnosticEngine diags = Lint(
      R"(materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@X,Y) :- a(@X,Y), b(@X,Y).
)");
  EXPECT_EQ(Find(diags, "ND501"), nullptr) << diags.RenderAll();
  EXPECT_EQ(Find(diags, "ND502"), nullptr) << diags.RenderAll();
}

TEST(LintTest, TwoSiteRuleBroadcastReportedAtUserAtom) {
  // After localization link(@X,Y,C) runs as link_d(@Y,X,C) joined with
  // path(@Y,...) on Y alone; the finding names the user's atom.
  DiagnosticEngine diags = Lint(
      R"(materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2)).
r1 path(@X,Z) :- link(@X,Y,C),
                 path(@Y,Z).
)");
  std::set<std::pair<int, std::string>> broadcasts;
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.code != "ND502") continue;
    broadcasts.emplace(d.span.line,
                       d.message.substr(0, d.message.find(" delta")));
  }
  EXPECT_EQ(broadcasts,
            (std::set<std::pair<int, std::string>>{
                {3, "joining link on a path"}, {4, "joining path on a link"}}))
      << diags.RenderAll();
}

TEST(LintTest, PlanFindingsMatchCompiledPlans) {
  // ND501/ND502 are exactly the scan fallbacks and broadcast joins of the
  // plans Compile builds (provenance off), each at the user's atom: body
  // term i of an executed rule is body term i of the user's rule.
  using Finding = std::tuple<std::string, int, int, std::string>;
  size_t planned = 0;
  for (const auto& [label, src] : ShippedSources()) {
    SCOPED_TRACE(label);
    Result<Program> user = Parse(src);
    ASSERT_TRUE(user.ok()) << user.status().ToString();
    Result<runtime::CompiledProgramPtr> compiled =
        runtime::Compile(src, runtime::NoProvenanceOptions());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::set<Finding> want;
    for (const runtime::CompiledRule& cr : (*compiled)->rules) {
      auto user_rule =
          std::find_if(user->rules.begin(), user->rules.end(),
                       [&](const Rule& r) { return r.name == cr.rule.name; });
      if (user_rule == user->rules.end()) continue;  // generated by Localize
      for (const auto& [delta, plans] : cr.join_plans) {
        for (size_t i = 0; i < plans.size(); ++i) {
          const Atom* atom = std::get_if<Atom>(&cr.rule.body[i]);
          if (i == delta || atom == nullptr) continue;
          const TableInfo* info = (*compiled)->FindTable(atom->predicate);
          if (info == nullptr || !info->materialized) continue;
          const Span span = std::get<Atom>(user_rule->body[i]).span;
          if (plans[i].broadcast) {
            want.emplace(cr.rule.name, span.line, span.column, "ND502");
          } else if (plans[i].index_id < 0) {
            want.emplace(cr.rule.name, span.line, span.column, "ND501");
          }
        }
      }
    }
    DiagnosticEngine diags = Lint(src);
    std::set<Finding> got;
    for (const Diagnostic& d : diags.diagnostics()) {
      if (d.code == "ND501" || d.code == "ND502") {
        got.emplace(d.rule, d.span.line, d.span.column, d.code);
      }
    }
    EXPECT_EQ(got, want);
    planned += want.size();
  }
  EXPECT_GT(planned, 0u);
}

// ---------------------------------------------------------------------------
// Declaration hygiene (ND6xx)

TEST(LintTest, ND601UnreferencedTable) {
  DiagnosticEngine diags = Lint(
      R"(materialize(ghost, infinity, infinity, keys(1)).
materialize(link, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@X,Y) :- link(@X,Y,C).
)");
  EXPECT_TRUE(HasFinding(diags, "ND601", Severity::kWarning, 1));
}

TEST(LintTest, ND602SoftStateOnAggregateOutput) {
  DiagnosticEngine diags = Lint(
      R"(materialize(best, 30, infinity, keys(1)).
materialize(obs, infinity, infinity, keys(1,2)).
g1 best(@X,a_min<Y>) :- obs(@X,Y).
)");
  EXPECT_TRUE(HasFinding(diags, "ND602", Severity::kWarning, 1));
}

// ---------------------------------------------------------------------------
// Front-end codes and the registry

TEST(LintTest, FrontEndFailuresMapToND001AndND002) {
  // The ndlint CLI folds parse/analysis failures into ND001/ND002 so every
  // outcome renders uniformly; the codes must exist and be errors.
  const DiagnosticInfo* parse_info = FindDiagnostic("ND001");
  ASSERT_NE(parse_info, nullptr);
  EXPECT_EQ(parse_info->default_severity, Severity::kError);
  const DiagnosticInfo* sema_info = FindDiagnostic("ND002");
  ASSERT_NE(sema_info, nullptr);
  EXPECT_EQ(sema_info->default_severity, Severity::kError);
  EXPECT_FALSE(Parse("r1 out(@X :- link(@X,Y,C).").ok());
  Result<Program> dup = Parse(
      R"(materialize(t, infinity, infinity, keys(1)).
materialize(t, infinity, infinity, keys(1)).
)");
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(Analyze(std::move(dup).value()).ok());
}

TEST(LintTest, RegistryCoversAllEmittedCodes) {
  // At least 8 distinct codes across the five pass families, all
  // registered with summaries.
  EXPECT_GE(AllDiagnostics().size(), 8u);
  for (const char* code :
       {"ND101", "ND102", "ND201", "ND202", "ND203", "ND301", "ND302",
        "ND303", "ND401", "ND402", "ND403", "ND501", "ND502", "ND601",
        "ND602"}) {
    const DiagnosticInfo* info = FindDiagnostic(code);
    ASSERT_NE(info, nullptr) << code;
    EXPECT_NE(std::string(info->summary), "") << code;
  }
}

// ---------------------------------------------------------------------------
// Suppression pragmas

TEST(LintTest, PragmaParsing) {
  std::vector<std::string> allow =
      ParseLintPragmas("// ndlint: allow(ND303)\n// ndlint: allow(ND401, ND403)\n");
  EXPECT_EQ(allow, (std::vector<std::string>{"ND303", "ND401", "ND403"}));
}

TEST(LintTest, PragmaSuppressesFinding) {
  DiagnosticEngine diags = Lint(
      R"(// ndlint: allow(ND303)
materialize(a, infinity, infinity, keys(1,2)).
r1 out(@Y,X) :- a(@X,Y).
)");
  EXPECT_EQ(Find(diags, "ND303"), nullptr) << diags.RenderAll();
}

// ---------------------------------------------------------------------------
// Shipped programs lint clean (the CI gate's contract)

TEST(LintTest, ShippedProtocolProgramsLintClean) {
  for (const char* source :
       {protocols::MincostProgram(), protocols::PathVectorProgram(),
        protocols::DsrProgram(), protocols::LinkStateProgram(),
        protocols::BgpMaybeProgram()}) {
    DiagnosticEngine diags = Lint(source);
    EXPECT_EQ(CountWarningsOrWorse(diags), 0u) << diags.RenderAll();
  }
}

// ---------------------------------------------------------------------------
// Compile() integration

TEST(LintTest, CompileFailsOnLintError) {
  const char* bad =
      R"(materialize(t, infinity, infinity, keys(1,2)).
f1 t(@X,1) :- periodic(@X,E,1,1).
f2 t(@X,"s") :- periodic(@X,E,1,1).
)";
  Result<runtime::CompiledProgramPtr> r = runtime::Compile(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("lint failed"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("ND201"), std::string::npos)
      << r.status().message();

  // The same program compiles with lint off: the findings change nothing
  // about what is computed.
  runtime::CompileOptions no_lint;
  no_lint.lint = false;
  EXPECT_TRUE(runtime::Compile(bad, no_lint).ok());
}

TEST(LintTest, CompileIgnoresWarningsAndNotes) {
  // ND303 + ND401 + ND403 findings, but nothing error-severity: compiles.
  const char* warn_only =
      R"(materialize(link, infinity, infinity, keys(1,2)).
r1 ev(@X,Y) :- link(@X,Y,C).
)";
  Result<runtime::CompiledProgramPtr> r = runtime::Compile(warn_only);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(LintTest, CompileHonorsSuppressionPragma) {
  // ND101 is an error, but an in-source pragma waives it for the file.
  const char* suppressed =
      R"(// ndlint: allow(ND101)
materialize(cnt, infinity, infinity, keys(1)).
materialize(obs, infinity, infinity, keys(1,2)).
c1 cnt(@X,a_count<*>) :- obs(@X,Y).
c2 obs(@X,N) :- cnt(@X,N).
)";
  EXPECT_TRUE(runtime::Compile(suppressed).ok());
}

// ---------------------------------------------------------------------------
// Span-threaded PlanError messages (front-end regression tests)

TEST(LintTest, AnalysisErrorsCarrySpans) {
  Result<Program> prog = Parse(
      R"(materialize(link, infinity, infinity, keys(1,2)).
r1 out(@X,Q) :- link(@X,Y,C).
)");
  ASSERT_TRUE(prog.ok());
  Result<AnalyzedProgram> r = Analyze(std::move(prog).value());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("unbound variable Q"),
            std::string::npos)
      << r.status().message();
}

TEST(LintTest, UnknownBuiltinErrorCarriesSpan) {
  Result<runtime::CompiledProgramPtr> r = runtime::Compile(
      R"(materialize(link, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@X,Y2) :- link(@X,Y,C), Y2 := f_nope(Y).
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown builtin function f_nope"),
            std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
}

TEST(LintTest, ArityErrorCarriesSpan) {
  Result<runtime::CompiledProgramPtr> r = runtime::Compile(
      R"(materialize(link, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@X,P2) :- link(@X,Y,C), P := f_list(Y), P2 := f_append(P).
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("f_append expects"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
}

// ---------------------------------------------------------------------------
// Rendering and ordering

TEST(LintTest, FindingsAreSortedBySourcePosition) {
  DiagnosticEngine diags = Lint(
      R"(materialize(link, infinity, infinity, keys(1,2)).
r1 ev(@X,Y) :- link(@X,Y,C), Z := C + 1.
r2 ev2(@X,Y) :- link(@X,Y,C).
)");
  const std::vector<Diagnostic>& all = diags.diagnostics();
  ASSERT_GE(all.size(), 2u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const Diagnostic& a, const Diagnostic& b) {
                               return a.span.line < b.span.line;
                             }))
      << diags.RenderAll();
}

TEST(LintTest, MachineRenderingIsTabSeparated) {
  Diagnostic d;
  d.code = "ND501";
  d.severity = Severity::kWarning;
  d.span = Span{3, 7};
  d.rule = "r1";
  d.message = "msg";
  EXPECT_EQ(d.RenderMachine("f.ndlog"),
            "f.ndlog\t3\t7\twarning\tND501\tr1\tmsg");
  EXPECT_EQ(d.Render("f.ndlog"), "f.ndlog:3:7: warning: rule r1: msg [ND501]");
}

}  // namespace
}  // namespace ndlog
}  // namespace nettrails
