// Threaded-vs-serial determinism suite: the sharded epoch-barrier event
// loop (SimulatorOptions::num_threads > 1) must be observably
// indistinguishable from the serial loop — bit-identical per-node action
// traces, table fixpoints, derivation counts, canonical provenance graphs,
// traffic accounting, and event counts — at every thread count. Three
// scenarios: the MINCOST line-convergence behind the golden-trace pin, MINCOST
// converging on an 8x8 grid (wide waves, so per-node traces are compared
// across the worker barrier), and the seeded link-churn worlds from the
// batch-equivalence suite (the heaviest deterministic workload the repo has:
// overlapping retraction / re-derivation cascades with distributed
// provenance on). Waves narrower than Simulator::kMinParallelWave run
// inline, so the 3-node line never reaches the barrier; the grid and churn
// worlds assert that it ran at threads > 1. CI runs this via
// `ctest -R threaded`, including under TSan.
//
// Trace capture is per-node: within a wave, handlers on different nodes run
// concurrently, so a global interleaved log is not defined in threaded mode
// (and appending to one would itself be a race). Per-node order is the
// contract — each node's engine is driven by exactly one worker per wave,
// in event-seq order, so its action stream must match serial execution
// exactly. Cross-node state agreement is covered by the fingerprint.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/provenance/store.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace runtime {
namespace {

/// MINCOST with the distance-vector "infinity" lowered to 24, exactly as in
/// batch_equivalence_test.cc (see the rationale there: bounds the
/// count-to-infinity transient when churn partitions the topology).
const char* kBoundedMincost = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2)).
    mc1 cost(@X,Y,C) :- link(@X,Y,C).
    mc2 cost(@X,Z,C) :- link(@X,Y,C1), mincost(@Y,Z,C2), X != Z,
                        C := C1 + C2, C < 24.
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
)";

/// Simulator-level counters that must agree across thread counts. Frame
/// pool size is deliberately excluded: pool indices and slab growth depend
/// on release/acquire interleaving, which the protocol does not (and need
/// not) pin — nothing observable reads them.
std::string SimCounters(const net::Simulator& sim) {
  net::TrafficStats total = sim.total_traffic();
  std::string out;
  out += "events=" + std::to_string(sim.events_executed()) + "\n";
  out += "dropped=" + std::to_string(sim.dropped_messages()) + "\n";
  out += "messages=" + std::to_string(total.messages) + "\n";
  out += "bytes=" + std::to_string(total.bytes) + "\n";
  out += "tuples=" + std::to_string(total.tuples) + "\n";
  for (const auto& [name, ts] : sim.ChannelTrafficByName()) {
    out += name + "=" + std::to_string(ts.messages) + "/" +
           std::to_string(ts.bytes) + "/" + std::to_string(ts.tuples) + "\n";
  }
  return out;
}

/// Full-system fingerprint: per-node table contents with derivation counts,
/// per-node canonical provenance graphs, and the simulator counters.
std::string Fingerprint(
    const net::Simulator& sim,
    const std::vector<std::unique_ptr<Engine>>& engines,
    const std::vector<std::unique_ptr<provenance::ProvStore>>& stores) {
  std::string out;
  for (const auto& engine : engines) {
    out += "== node " + std::to_string(engine->id()) + "\n";
    for (const auto& [name, info] : engine->program().tables) {
      if (!info.materialized) continue;
      for (const Tuple& t : engine->TableContents(name)) {
        out += t.ToString() + " x" + std::to_string(engine->CountOf(t)) + "\n";
      }
    }
  }
  for (const auto& store : stores) {
    out += "== provenance node " + std::to_string(store->node()) + "\n";
    out += store->CanonicalGraph();
  }
  out += "== sim\n" + SimCounters(sim);
  return out;
}

/// MINCOST converging on `topo`, with per-node action traces. Returns the
/// traces concatenated in node order followed by the simulator counters,
/// and stores the number of waves that went through the worker barrier in
/// `*parallel_waves`.
std::string ConvergenceTrace(const net::Topology& topo, unsigned threads,
                             uint64_t* parallel_waves) {
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), NoProvenanceOptions());
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return "";
  net::SimulatorOptions sopts;
  sopts.num_threads = threads;
  net::Simulator sim(sopts);
  EngineOptions opts;
  opts.batch_size = 1;
  auto engines = protocols::MakeEngines(&sim, topo, *prog, opts);
  // One buffer per node: a worker only ever appends to the buffers of the
  // nodes in its shard, and a node is in exactly one shard per wave.
  std::vector<std::string> traces(engines.size());
  for (const auto& e : engines) {
    NodeId id = e->id();
    std::string* trace = &traces[id];
    e->AddActionObserver([trace, id](const std::string& table,
                                     const TableAction& action) {
      *trace += "n" + std::to_string(id) + " " +
                (action.is_delete ? "-" : "+") +
                Tuple(table, action.fields).ToString() + " x" +
                std::to_string(action.mult) + "\n";
    });
  }
  EXPECT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());
  *parallel_waves = sim.parallel_waves();
  std::string out;
  for (const std::string& t : traces) out += t;
  out += "== sim\n" + SimCounters(sim);
  return out;
}

/// The golden-trace scenario: a 3-node line, whose waves are all narrow.
std::string LineConvergenceTrace(unsigned threads) {
  uint64_t parallel_waves = 0;
  std::string out =
      ConvergenceTrace(net::MakeLine(3, 1), threads, &parallel_waves);
  EXPECT_EQ(parallel_waves, 0u) << "threads=" << threads;
  return out;
}

/// The wide-wave scenario: an 8x8 grid, whose convergence waves reach the
/// barrier at every thread count above 1.
std::string GridConvergenceTrace(unsigned threads) {
  uint64_t parallel_waves = 0;
  std::string out =
      ConvergenceTrace(net::MakeGrid(8, 8), threads, &parallel_waves);
  if (threads == 1) {
    EXPECT_EQ(parallel_waves, 0u);
  } else {
    EXPECT_GT(parallel_waves, 0u) << "threads=" << threads;
  }
  return out;
}

/// The seeded link-churn world from batch_equivalence_test.cc, run at a
/// given thread count: converge a random 6-node topology, then 14 rounds of
/// 1-3 link flips with full reconvergence between rounds, provenance on.
/// The Rng schedule is engine-state-independent, so every thread count
/// replays identical churn.
std::string ChurnFingerprint(uint64_t seed, unsigned threads,
                             uint64_t* parallel_waves) {
  Result<CompiledProgramPtr> prog = Compile(kBoundedMincost);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return "";

  Rng rng(seed);
  net::Topology topo = net::MakeRandomConnected(6, 0.35, &rng, 3);
  net::SimulatorOptions sopts;
  sopts.num_threads = threads;
  net::Simulator sim(sopts);
  EngineOptions opts;
  opts.batch_size = 8;  // batched shipping: multi-tuple frames inside waves
  auto engines = protocols::MakeEngines(&sim, topo, *prog, opts);
  std::vector<std::unique_ptr<provenance::ProvStore>> stores;
  for (const auto& e : engines) {
    stores.push_back(std::make_unique<provenance::ProvStore>(e.get()));
  }
  EXPECT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());

  std::vector<bool> up(topo.links.size(), true);
  for (int op = 0; op < 14; ++op) {
    size_t burst = 1 + rng.NextBelow(3);
    for (size_t b = 0; b < burst; ++b) {
      size_t i = rng.NextBelow(topo.links.size());
      const net::CostedLink& l = topo.links[i];
      if (up[i]) {
        EXPECT_TRUE(protocols::FailLink(l.a, l.b, l.cost, &engines, &sim,
                                        /*run_to_quiescence=*/false)
                        .ok());
      } else {
        EXPECT_TRUE(protocols::RecoverLink(l.a, l.b, l.cost, &engines, &sim,
                                           /*run_to_quiescence=*/false)
                        .ok());
      }
      up[i] = !up[i];
    }
    sim.Run();
  }
  for (size_t i = 0; i < topo.links.size(); ++i) {
    if (!up[i]) {
      const net::CostedLink& l = topo.links[i];
      EXPECT_TRUE(protocols::RecoverLink(l.a, l.b, l.cost, &engines, &sim,
                                         /*run_to_quiescence=*/false)
                      .ok());
    }
  }
  sim.Run();
  *parallel_waves = sim.parallel_waves();
  return Fingerprint(sim, engines, stores);
}

class ThreadedDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadedDeterminism, LineConvergenceTraceMatchesSerial) {
  // Computed once; every parameterization (including threads=1, which
  // checks run-to-run stability) compares against the same serial anchor.
  static const std::string* serial =
      new std::string(LineConvergenceTrace(1));
  ASSERT_FALSE(serial->empty());
  std::string actual = LineConvergenceTrace(GetParam());
  EXPECT_EQ(actual, *serial)
      << "threads=" << GetParam() << " diverged from serial execution";
}

TEST_P(ThreadedDeterminism, GridConvergenceTraceMatchesSerial) {
  static const std::string* serial =
      new std::string(GridConvergenceTrace(1));
  ASSERT_FALSE(serial->empty());
  std::string actual = GridConvergenceTrace(GetParam());
  EXPECT_EQ(actual, *serial)
      << "threads=" << GetParam() << " diverged from serial execution";
}

TEST_P(ThreadedDeterminism, ChurnFixpointAndProvenanceMatchSerial) {
  for (uint64_t seed : {uint64_t{101}, uint64_t{202}, uint64_t{303}}) {
    uint64_t serial_waves = 0, parallel_waves = 0;
    std::string reference = ChurnFingerprint(seed, 1, &serial_waves);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(serial_waves, 0u);
    std::string actual = ChurnFingerprint(seed, GetParam(), &parallel_waves);
    EXPECT_EQ(actual, reference)
        << "threads=" << GetParam() << " seed=" << seed
        << " diverged from serial execution";
    if (GetParam() > 1) {
      EXPECT_GT(parallel_waves, 0u)
          << "threads=" << GetParam() << " seed=" << seed
          << " never reached the worker barrier";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadedDeterminism,
                         ::testing::Values(1u, 2u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(ThreadedDeterminism2, ThreadCountIsReconfigurable) {
  net::Simulator sim;
  EXPECT_EQ(sim.num_threads(), 1u);
  sim.set_num_threads(4);
  EXPECT_EQ(sim.num_threads(), 4u);
  sim.set_num_threads(0);  // clamps to 1
  EXPECT_EQ(sim.num_threads(), 1u);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
