#include "src/net/scenario.h"

#include <gtest/gtest.h>

#include <string>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace net {
namespace {

std::string SrcPath(const std::string& rel) {
  return std::string(NETTRAILS_SOURCE_DIR) + "/" + rel;
}

// ---------------------------------------------------------------------------
// Parser / serializer properties

TEST(ScenarioParseTest, ParsesEventsWithAllUnitsAndComments) {
  Result<Scenario> s = ParseScenario(
      "# header comment\n"
      "scenario demo\n"
      "at 500us fail 3   # trailing comment\n"
      "\n"
      "at 20ms recover 3\n"
      "at 2s crash 1\n");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->name, "demo");
  ASSERT_EQ(s->events.size(), 3u);
  EXPECT_EQ(s->events[0].time, 500u);
  EXPECT_EQ(s->events[0].action, ScenarioAction::kFailLink);
  EXPECT_EQ(s->events[0].index, 3u);
  EXPECT_EQ(s->events[1].time, 20 * kMillisecond);
  EXPECT_EQ(s->events[1].action, ScenarioAction::kRecoverLink);
  EXPECT_EQ(s->events[2].time, 2 * kSecond);
  EXPECT_EQ(s->events[2].action, ScenarioAction::kCrashNode);
}

TEST(ScenarioParseTest, SerializeParseRoundTripsBitForBit) {
  Scenario s;
  s.name = "rt";
  s.events = {{500, ScenarioAction::kFailLink, 3},
              {1500 * kMillisecond, ScenarioAction::kRecoverLink, 3},
              {2 * kSecond, ScenarioAction::kCrashNode, 1},
              {2 * kSecond, ScenarioAction::kRestartNode, 1}};
  const std::string text = SerializeScenario(s);
  Result<Scenario> back = ParseScenario(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeScenario(*back), text);
  EXPECT_EQ(back->name, s.name);
  ASSERT_EQ(back->events.size(), s.events.size());
  for (size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_EQ(back->events[i].time, s.events[i].time) << i;
    EXPECT_EQ(back->events[i].action, s.events[i].action) << i;
    EXPECT_EQ(back->events[i].index, s.events[i].index) << i;
  }
}

TEST(ScenarioParseTest, TimesRenderInTheLargestExactUnit) {
  Scenario s;
  s.events = {{1500, ScenarioAction::kFailLink, 0},
              {2000, ScenarioAction::kFailLink, 0},
              {1500 * kMillisecond, ScenarioAction::kFailLink, 0},
              {3 * kSecond, ScenarioAction::kFailLink, 0}};
  EXPECT_EQ(SerializeScenario(s),
            "at 1500us fail 0\n"
            "at 2ms fail 0\n"
            "at 1500ms fail 0\n"
            "at 3s fail 0\n");
}

TEST(ScenarioParseTest, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* want;  // substring of the error message
  };
  const Case cases[] = {
      {"at 5ms explode 1\n", "line 1"},
      {"at 5ms fail 1\nat 5 fail 2\n", "line 2"},          // missing unit
      {"at 5ms fail 1\nat 4ms fail 2\n", "non-decreasing"},
      {"at 5ms fail 1\nscenario late\n", "precede"},
      {"scenario a\nscenario b\nat 1ms fail 0\n", "duplicate"},
      {"bogus directive\n", "unknown directive"},
      {"scenario empty\n", "no events"},
      {"at 99999999999999999999s fail 0\n", "line 1"},     // overflow
  };
  for (const Case& c : cases) {
    Result<Scenario> s = ParseScenario(c.text);
    ASSERT_FALSE(s.ok()) << c.text;
    EXPECT_NE(s.status().message().find(c.want), std::string::npos)
        << "error for {" << c.text << "} was: " << s.status().message();
  }
}

TEST(ScenarioParseTest, LoadPrefixesErrorsWithThePath) {
  Result<Scenario> missing = LoadScenarioFile("/nonexistent/x.scn");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("/nonexistent/x.scn"),
            std::string::npos);
}

/// The committed corpus is stored in canonical form: loading and
/// re-serializing each file reproduces it byte for byte (minus comments —
/// the corpus files carry a comment header, so compare canonical forms).
TEST(ScenarioParseTest, CommittedCorpusRoundTripsCanonically) {
  for (const char* name : {"flap_churn", "regional_storm", "crash_restart"}) {
    const std::string path =
        SrcPath(std::string("examples/scenarios/") + name + ".scn");
    Result<Scenario> s = LoadScenarioFile(path);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_EQ(s->name, name);
    EXPECT_FALSE(s->events.empty());
    Result<Scenario> back = ParseScenario(SerializeScenario(*s));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(SerializeScenario(*back), SerializeScenario(*s)) << name;
  }
}

// ---------------------------------------------------------------------------
// Runner semantics

struct World {
  Simulator sim;
  Topology topo;
  runtime::CompiledProgramPtr prog;
  std::vector<std::unique_ptr<runtime::Engine>> engines;

  explicit World(Topology t) : topo(std::move(t)) {
    Result<runtime::CompiledProgramPtr> compiled =
        runtime::Compile(protocols::MincostProgram());
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    prog = *compiled;
    engines = protocols::MakeEngines(&sim, topo, prog);
    EXPECT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());
  }

  std::string Fingerprint() const {
    std::string out;
    for (const auto& e : engines) {
      out += "== node " + std::to_string(e->id()) + "\n";
      for (const auto& [name, info] : e->program().tables) {
        if (!info.materialized) continue;
        for (const Tuple& t : e->TableContents(name)) {
          out += t.ToString() + " x" + std::to_string(e->CountOf(t)) + "\n";
        }
      }
    }
    return out;
  }
};

Scenario Scn(std::vector<ScenarioEvent> events) {
  Scenario s;
  s.name = "test";
  s.events = std::move(events);
  return s;
}

TEST(ScenarioRunTest, FullyRecoveredChurnReachesTheUnchurnedFixpoint) {
  World churned(MakeRing(6, 1));
  const std::string before = churned.Fingerprint();
  Result<ScenarioRunStats> stats = RunScenario(
      Scn({{300 * kMillisecond, ScenarioAction::kFailLink, 0},
           {600 * kMillisecond, ScenarioAction::kRecoverLink, 0},
           {601 * kMillisecond, ScenarioAction::kFailLink, 4},
           {900 * kMillisecond, ScenarioAction::kRecoverLink, 4}}),
      churned.topo, &churned.engines, &churned.sim);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->applied, 4u);
  EXPECT_EQ(stats->skipped, 0u);
  EXPECT_EQ(churned.Fingerprint(), before);
}

TEST(ScenarioRunTest, OverflowedEngineFailsTheRunNamingNodeAndTrigger) {
  // Each installed link seeds a runaway tick chain at the far end, which
  // overflows when the first event's time advance delivers it. The event
  // itself is skipped (node 0 is not down), so it touches no engine: the
  // runner's own check must catch the overflow.
  Result<runtime::CompiledProgramPtr> prog = runtime::Compile(
      R"(
        materialize(link, infinity, infinity, keys(1,2)).
        materialize(tick, infinity, infinity, keys(1,2)).
        r0 tick(@Y,V) :- link(@X,Y,C), V := 0.
        r1 tick(@X,V2) :- tick(@X,V), V2 := V + 1.
      )",
      runtime::NoProvenanceOptions());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const Topology topo = MakeLine(2, 1);
  Simulator sim;
  runtime::EngineOptions opts;
  opts.max_actions_per_trigger = 1000;
  auto engines = protocols::MakeEngines(&sim, topo, *prog, opts);
  ASSERT_TRUE(protocols::InstallLinks(topo, &engines, &sim,
                                      /*run_to_quiescence=*/false)
                  .ok());
  Result<ScenarioRunStats> stats =
      RunScenario(Scn({{300 * kMillisecond, ScenarioAction::kRestartNode, 0}}),
                  topo, &engines, &sim);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("node 0"), std::string::npos)
      << stats.status().ToString();
  EXPECT_NE(stats.status().message().find("tick"), std::string::npos)
      << stats.status().ToString();
}

TEST(ScenarioRunTest, IndicesReduceModuloTopologySize) {
  World w(MakeRing(6, 1));
  const std::string before = w.Fingerprint();
  // links.size() == 6: index 13 is link 1.
  Result<ScenarioRunStats> stats = RunScenario(
      Scn({{300 * kMillisecond, ScenarioAction::kFailLink, 13},
           {600 * kMillisecond, ScenarioAction::kRecoverLink, 1}}),
      w.topo, &w.engines, &w.sim);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 2u);  // recover matches the reduced fail
  EXPECT_EQ(w.Fingerprint(), before);
}

TEST(ScenarioRunTest, InapplicableEventsAreSkippedDeterministically) {
  World w(MakeRing(6, 1));
  Result<ScenarioRunStats> stats = RunScenario(
      Scn({{300 * kMillisecond, ScenarioAction::kRecoverLink, 0},  // live
           {310 * kMillisecond, ScenarioAction::kFailLink, 0},
           {320 * kMillisecond, ScenarioAction::kFailLink, 0},     // down
           {330 * kMillisecond, ScenarioAction::kRestartNode, 2},  // running
           {400 * kMillisecond, ScenarioAction::kRecoverLink, 0}}),
      w.topo, &w.engines, &w.sim);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 2u);
  EXPECT_EQ(stats->skipped, 3u);
}

TEST(ScenarioRunTest, CrashAndRestartMatchesTheDirectProtocolCalls) {
  // Reference: the same crash/churn/restart sequence issued directly
  // through the protocols:: helpers (the chaos-suite style).
  World ref(MakeRingWithChords(6, 1, 2));
  runtime::EngineCheckpoint ckpt = ref.engines[2]->TakeCheckpoint();
  ASSERT_TRUE(
      protocols::CrashNode(2, ref.topo, &ref.engines, &ref.sim).ok());
  const CostedLink& l = ref.topo.links[0];  // (0,1): not incident to 2
  ASSERT_TRUE(
      protocols::FailLink(l.a, l.b, l.cost, &ref.engines, &ref.sim).ok());
  ASSERT_TRUE(
      protocols::RecoverLink(l.a, l.b, l.cost, &ref.engines, &ref.sim).ok());
  ASSERT_TRUE(protocols::RestartNode(2, ckpt, ref.topo, &ref.engines,
                                     &ref.sim)
                  .ok());

  World w(MakeRingWithChords(6, 1, 2));
  Result<ScenarioRunStats> stats = RunScenario(
      Scn({{300 * kMillisecond, ScenarioAction::kCrashNode, 2},
           {600 * kMillisecond, ScenarioAction::kFailLink, 0},
           {900 * kMillisecond, ScenarioAction::kRecoverLink, 0},
           {1200 * kMillisecond, ScenarioAction::kRestartNode, 2}}),
      w.topo, &w.engines, &w.sim);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->applied, 4u);
  EXPECT_EQ(w.Fingerprint(), ref.Fingerprint());
}

TEST(ScenarioRunTest, ChurnTouchingACrashedNodeIsSkipped) {
  World w(MakeRingWithChords(6, 1, 2));
  // Link 0 is (0,1); crash node 0, then try to fail/recover its link.
  Result<ScenarioRunStats> stats = RunScenario(
      Scn({{300 * kMillisecond, ScenarioAction::kCrashNode, 0},
           {400 * kMillisecond, ScenarioAction::kFailLink, 0},
           {500 * kMillisecond, ScenarioAction::kRecoverLink, 0},
           {600 * kMillisecond, ScenarioAction::kRestartNode, 0}}),
      w.topo, &w.engines, &w.sim);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied, 2u);  // crash + restart
  EXPECT_EQ(stats->skipped, 2u);
  // After restart the world must equal the untouched fixpoint.
  World fresh(MakeRingWithChords(6, 1, 2));
  EXPECT_EQ(w.Fingerprint(), fresh.Fingerprint());
}

TEST(ScenarioRunTest, RejectsMismatchedEngineCount) {
  World w(MakeRing(4, 1));
  Topology other = MakeRing(6, 1);
  Result<ScenarioRunStats> stats = RunScenario(
      Scn({{300 * kMillisecond, ScenarioAction::kFailLink, 0}}), other,
      &w.engines, &w.sim);
  EXPECT_FALSE(stats.ok());
}

}  // namespace
}  // namespace net
}  // namespace nettrails
