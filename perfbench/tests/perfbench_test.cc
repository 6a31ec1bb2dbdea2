// Tests of the benchmark itself: seeded streams are reproducible, the
// deterministic metrics repeat bit for bit, and every oracle rejects a
// deliberately perturbed table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/simulator.h"
#include "src/net/topology.h"
#include "src/oracle.h"
#include "src/protocols/programs.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"
#include "src/streams.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

namespace nt = nettrails;

std::vector<ChurnEvent> Churn(uint64_t seed, size_t n) {
  return MakeChurnStream(30, seed, n);
}

TEST(StreamsTest, ChurnStreamIsASeedFunction) {
  const std::string a = Serialize(Churn(7, 500));
  EXPECT_EQ(a, Serialize(Churn(7, 500)));
  EXPECT_NE(a, Serialize(Churn(8, 500)));
  // Streams are prefix-stable: a shorter stream is a prefix of a longer one.
  const std::string prefix = Serialize(Churn(7, 100));
  EXPECT_EQ(a.compare(0, prefix.size(), prefix), 0);
}

TEST(StreamsTest, ChurnStreamKeepsAtMostThreeLinksDownAndFailsLinksEvenly) {
  const std::vector<ChurnEvent> events = Churn(3, 2000);
  ASSERT_EQ(events.size(), 2000u);
  std::vector<size_t> down;
  std::vector<size_t> failures(30, 0);
  size_t kinds[3] = {0, 0, 0};
  for (const ChurnEvent& ev : events) {
    ++kinds[static_cast<int>(ev.kind)];
    if (ev.kind == ChurnEvent::Kind::kRecover) {
      ASSERT_EQ(ev.links.size(), 1u);
      auto it = std::find(down.begin(), down.end(), ev.links[0]);
      ASSERT_NE(it, down.end()) << "recovered a link that is up";
      down.erase(it);
      continue;
    }
    if (ev.kind == ChurnEvent::Kind::kBurst) {
      ASSERT_GE(ev.links.size(), 2u);
    } else {
      ASSERT_EQ(ev.links.size(), 1u);
    }
    for (size_t l : ev.links) {
      ASSERT_LT(l, 30u);
      ASSERT_EQ(std::find(down.begin(), down.end(), l), down.end())
          << "failed a link that is already down";
      down.push_back(l);
      ++failures[l];
    }
    ASSERT_LE(down.size(), kMaxLinksDown);
  }
  for (size_t k : kinds) EXPECT_GT(k, 2000u / 10);
  // Links are dealt from a deck, one pass after another.
  const auto [lo, hi] = std::minmax_element(failures.begin(), failures.end());
  EXPECT_LE(*hi - *lo, 3u);
}

TEST(StreamsTest, QueryStreamIsASeedFunction) {
  const std::string a = Serialize(MakeQueryStream(1000, 124, 7, 3000));
  EXPECT_EQ(a, Serialize(MakeQueryStream(1000, 124, 7, 3000)));
  EXPECT_NE(a, Serialize(MakeQueryStream(1000, 124, 7 + 1, 3000)));
}

TEST(StreamsTest, QueryStreamMixAndSkew) {
  const QueryStream s = MakeQueryStream(1000, 124, 11, 20000);
  ASSERT_EQ(s.queries.size(), 20000u);
  EXPECT_EQ(s.flap_links.size(), 20000 / kQueriesPerFlap);
  std::map<size_t, size_t> per_target;
  size_t kinds[3] = {0, 0, 0};
  size_t verified = 0;
  for (const QueryOp& q : s.queries) {
    ASSERT_LT(q.target, 1000u);
    ++per_target[q.target];
    ++kinds[static_cast<int>(q.kind)];
    verified += q.verify ? 1 : 0;
  }
  EXPECT_NEAR(kinds[0] / 20000.0, 0.50, 0.02);
  EXPECT_NEAR(kinds[1] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR(kinds[2] / 20000.0, 0.25, 0.02);
  EXPECT_EQ(verified, 20000 / kVerifyEvery);
  // Zipf(1) over 1000 targets: the most popular one draws ~13% of queries.
  size_t top = 0;
  for (const auto& [target, n] : per_target) top = std::max(top, n);
  EXPECT_GT(top, 20000u / 20);
}

TEST(QuantileTest, InterpolatesAndPicksTailWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 0.5), 2);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(TailQuantileLevel(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantileLevel(200, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantileLevel(10, 0.95), 0.5);
}

// ---------------------------------------------------------------------------
// Deterministic metrics repeat bit for bit across two short runs.

/// Runs exactly the workload's deterministic prefix.
RunOptions ShortRun(const std::string& workload) {
  RunOptions o;
  o.workload = workload;
  o.seed = 5;
  o.seconds = 0;
  o.root = PERFBENCH_ROOT;
  return o;
}

std::map<std::string, double> Deterministic(const RunResult& r) {
  static const char* const kNames[] = {
      "msgs_per_op",       "bytes_per_op",      "prov_state_bytes",
      "converge_vtime_ms", "query_vlat_ms_p50", "event_vtime_ms_p50"};
  std::map<std::string, double> out;
  for (const std::vector<Metric>* list : {&r.metrics, &r.details}) {
    for (const Metric& m : *list) {
      for (const char* name : kNames) {
        if (m.name == name) out[m.name] = m.value;
      }
    }
  }
  return out;
}

void ExpectRepeatable(const std::string& workload) {
  const RunResult a = RunWorkload(ShortRun(workload));
  const RunResult b = RunWorkload(ShortRun(workload));
  ASSERT_TRUE(a.correct) << (a.errors.empty() ? "" : a.errors[0]);
  ASSERT_TRUE(b.correct) << (b.errors.empty() ? "" : b.errors[0]);
  EXPECT_EQ(a.failed, 0u);
  const std::map<std::string, double> da = Deterministic(a);
  EXPECT_GE(da.size(), 4u);
  EXPECT_EQ(da, Deterministic(b));
  for (const auto& [name, value] : da) EXPECT_GT(value, 0) << name;
}

TEST(DeterminismTest, Converge) { ExpectRepeatable("converge"); }
TEST(DeterminismTest, Churn) { ExpectRepeatable("churn"); }
TEST(DeterminismTest, Query) { ExpectRepeatable("query"); }

// ---------------------------------------------------------------------------
// Oracles accept the engine's real output and reject perturbed copies.

struct SmallWorld {
  nt::net::Topology topo = nt::net::MakeRingWithChords(8, 1, 3);
  nt::net::Simulator sim;
  std::vector<std::unique_ptr<nt::runtime::Engine>> engines;

  explicit SmallWorld(const char* program) {
    nt::Result<nt::runtime::CompiledProgramPtr> prog =
        nt::runtime::Compile(program);
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    engines = nt::protocols::MakeEngines(&sim, topo, *prog);
    EXPECT_TRUE(nt::protocols::InstallLinks(topo, &engines, &sim).ok());
  }
  std::vector<nt::runtime::Engine*> Ptrs() {
    return nt::protocols::EnginePtrs(engines);
  }
};

Tuple WithField(const Tuple& t, size_t i, nt::Value v) {
  nt::ValueList fields = t.fields();
  fields[i] = std::move(v);
  return Tuple(t.name(), std::move(fields));
}

TEST(OracleTest, MincostRejectsPerturbedTables) {
  SmallWorld w(nt::protocols::MincostProgram());
  const Dist dist = FloydWarshall(w.topo.num_nodes, w.topo.links);
  const NodeRows real = Snapshot(w.Ptrs(), "mincost");
  ASSERT_TRUE(CheckMincost(real, dist).ok());

  NodeRows wrong_cost = real;
  const Tuple& t = wrong_cost[2][0];
  wrong_cost[2][0] = WithField(t, 2, nt::Value::Int(t.field(2).as_int() + 1));
  EXPECT_FALSE(CheckMincost(wrong_cost, dist).ok());

  NodeRows missing = real;
  missing[3].pop_back();
  EXPECT_FALSE(CheckMincost(missing, dist).ok());

  NodeRows duplicate = real;
  duplicate[4].push_back(duplicate[4][0]);
  EXPECT_FALSE(CheckMincost(duplicate, dist).ok());

  NodeRows self_row = real;
  self_row[5].push_back(WithField(self_row[5][0], 1, nt::Value::Address(5)));
  EXPECT_FALSE(CheckMincost(self_row, dist).ok());

  // The same table against a network with a link down is stale.
  std::vector<nt::net::CostedLink> live = LiveLinks(w.topo, {0});
  EXPECT_FALSE(CheckMincost(real, FloydWarshall(w.topo.num_nodes, live)).ok());
}

TEST(OracleTest, PathVectorRejectsPerturbedTables) {
  SmallWorld w(nt::protocols::PathVectorProgram());
  const ShortestPaths sp = AllPairsDijkstra(w.topo.num_nodes, w.topo.links);
  const NodeRows cost = Snapshot(w.Ptrs(), "bestcost");
  const NodeRows path = Snapshot(w.Ptrs(), "bestpath");
  ASSERT_TRUE(CheckPathVector(cost, path, sp, w.topo.links).ok());

  NodeRows wrong_cost = cost;
  const Tuple& c = wrong_cost[1][0];
  wrong_cost[1][0] = WithField(c, 2, nt::Value::Int(c.field(2).as_int() + 2));
  EXPECT_FALSE(CheckPathVector(wrong_cost, path, sp, w.topo.links).ok());

  // A path that revisits its source.
  NodeRows looped = path;
  {
    const Tuple& p = looped[0][0];
    nt::ValueList hops = p.field(3).as_list();
    hops.insert(hops.begin() + 1, nt::Value::Address(0));
    looped[0][0] = WithField(p, 3, nt::Value::List(hops));
  }
  EXPECT_FALSE(CheckPathVector(cost, looped, sp, w.topo.links).ok());

  // A missing shortest path.
  NodeRows missing = path;
  missing[6].pop_back();
  EXPECT_FALSE(CheckPathVector(cost, missing, sp, w.topo.links).ok());

  // The converged tables still route over a link that is now down.
  const std::vector<nt::net::CostedLink> live = LiveLinks(w.topo, {0});
  EXPECT_FALSE(CheckPathVector(cost, path,
                               AllPairsDijkstra(w.topo.num_nodes, live), live)
                   .ok());
}

TEST(OracleTest, QueryAnswersMustMatchOnCountLeavesAndNodes) {
  Answer a;
  a.count = 3;
  a.leaves = {1, 2, 3};
  a.nodes = {0, 4};
  EXPECT_TRUE(CheckSameAnswer(a, a).ok());
  Answer count = a;
  count.count = 4;
  EXPECT_FALSE(CheckSameAnswer(a, count).ok());
  Answer leaves = a;
  leaves.leaves.pop_back();
  EXPECT_FALSE(CheckSameAnswer(a, leaves).ok());
  Answer nodes = a;
  nodes.nodes.insert(7);
  EXPECT_FALSE(CheckSameAnswer(a, nodes).ok());
}

TEST(OracleTest, HealthAcceptsAConvergedNetwork) {
  SmallWorld w(nt::protocols::MincostProgram());
  EXPECT_TRUE(CheckHealth(w.Ptrs(), w.sim).ok());
}

TEST(OracleTest, HealthRejectsAnEvaluationError) {
  nt::Result<nt::runtime::CompiledProgramPtr> prog = nt::runtime::Compile(R"(
    materialize(input, infinity, infinity, keys(1,2,3)).
    materialize(quot, infinity, infinity, keys(1,2,3)).
    rq quot(@X, A, Q) :- input(@X, A, B), Q := A / B.
  )");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  nt::net::Simulator sim;
  sim.AddNode();
  nt::runtime::Engine engine(&sim, 0, *prog);
  const Tuple divide_by_zero(
      "input", {nt::Value::Address(0), nt::Value::Int(1), nt::Value::Int(0)});
  ASSERT_TRUE(engine.Insert(divide_by_zero).ok());
  sim.Run();
  EXPECT_FALSE(CheckHealth({&engine}, sim).ok());
}

}  // namespace
}  // namespace perfbench
