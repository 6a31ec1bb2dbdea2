// The (protocol × topology × scenario) regression matrix — the repo's
// workload-level determinism gate.
//
// Every cell runs a full scenario script (examples/scenarios/*.scn) against
// a corpus topology (examples/topologies/*.topo, including file-loaded
// research topologies) under four engine configurations: batch {1,64} ×
// threads {1,4}, with provenance stores attached. The contract per cell:
//
//   - the protocol-state fingerprint (tables + derivation counts) and the
//     canonical provenance fingerprint are bit-identical across all four
//     configurations — batching and sharding must not change the fixpoint;
//   - traffic (events / messages / tuples) is bit-identical across thread
//     counts at a fixed batch size (batching legitimately coalesces
//     frames, so traffic is recorded per batch size);
//   - everything equals the committed golden fingerprints
//     (tests/integration/golden/scenario_fingerprints.txt), so an
//     unintentional semantic change anywhere in the stack shows up as a
//     diff against a reviewed file, not a silent drift.
//
// Regenerating goldens after an *intentional* semantic change:
//
//   NETTRAILS_REGEN_GOLDENS=1 ./build/integration_scenario_matrix_test
//
// then review and commit the rewritten golden file. The regen run still
// enforces the cross-configuration identities and SKIPs (never passes), so
// CI can never "pass" by regenerating.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/net/scenario.h"
#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/query/query_engine.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace {

std::string SrcPath(const std::string& rel) {
  return std::string(NETTRAILS_SOURCE_DIR) + "/" + rel;
}

/// MINCOST with the distance-vector "infinity" lowered to 64: large enough
/// for every corpus shortest path (the 102-node ISP tops out around 25),
/// small enough to bound the count-to-infinity transient when a scenario
/// temporarily partitions a topology (regional_storm on att_na / ring12).
const char* kMatrixMincost = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2)).
    mc1 cost(@X,Y,C) :- link(@X,Y,C).
    mc2 cost(@X,Z,C) :- link(@X,Y,C1), mincost(@Y,Z,C2), X != Z,
                        C := C1 + C2, C < 64.
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
)";

const char* ProgramFor(const std::string& proto) {
  if (proto == "mincost") return kMatrixMincost;
  if (proto == "pathvector") return protocols::PathVectorProgram();
  if (proto == "linkstate") return protocols::LinkStateProgram();
  ADD_FAILURE() << "unknown protocol " << proto;
  return nullptr;
}

net::Topology LoadTopo(const std::string& name) {
  Result<net::Topology> t =
      net::LoadTopologyFile(SrcPath("examples/topologies/" + name + ".topo"));
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.ok() ? *t : net::Topology{};
}

net::Scenario LoadScn(const std::string& name) {
  Result<net::Scenario> s =
      net::LoadScenarioFile(SrcPath("examples/scenarios/" + name + ".scn"));
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return s.ok() ? *s : net::Scenario{};
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct CellRun {
  std::string state;    // tables + derivation counts, all nodes
  std::string prov;     // canonical provenance graphs, all nodes
  uint64_t events = 0;  // simulator events executed
  uint64_t messages = 0;
  uint64_t tuples = 0;
  size_t applied = 0;  // scenario events applied (vs skipped)
};

CellRun RunCell(const std::string& proto, const net::Topology& topo,
                const net::Scenario& scn, uint32_t batch, unsigned threads) {
  CellRun out;
  Result<runtime::CompiledProgramPtr> prog =
      runtime::Compile(ProgramFor(proto));
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return out;

  net::Simulator sim;
  sim.set_num_threads(threads);
  runtime::EngineOptions eopts;
  eopts.batch_size = batch;
  std::vector<std::unique_ptr<runtime::Engine>> engines =
      protocols::MakeEngines(&sim, topo, *prog, eopts);
  query::ProvenanceQuerier querier(&sim, protocols::EnginePtrs(engines));

  EXPECT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());
  Result<net::ScenarioRunStats> stats =
      net::RunScenario(scn, topo, &engines, &sim);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats.ok()) out.applied = stats->applied;

  for (const auto& e : engines) {
    EXPECT_FALSE(e->overflowed()) << e->last_error();
    EXPECT_TRUE(e->last_error().empty()) << e->last_error();
    out.state += "== node " + std::to_string(e->id()) + "\n";
    for (const auto& [name, info] : e->program().tables) {
      if (!info.materialized) continue;
      for (const Tuple& t : e->TableContents(name)) {
        out.state +=
            t.ToString() + " x" + std::to_string(e->CountOf(t)) + "\n";
      }
    }
  }
  for (size_t i = 0; i < engines.size(); ++i) {
    out.prov += "== prov node " + std::to_string(i) + "\n";
    out.prov += querier.store(static_cast<NodeId>(i))->CanonicalGraph();
  }
  out.events = sim.events_executed();
  const net::TrafficStats t = sim.total_traffic();
  out.messages = t.messages;
  out.tuples = t.tuples;
  return out;
}

std::string HashOf(const std::string& s) {
  Hasher h;
  h.AddString(s);
  return Hex16(h.Digest());
}

struct Cell {
  const char* proto;
  const char* topo;
  const char* scn;
};

// 3 protocols × 4 topologies (all file-loaded; abilene and att_na are the
// research topologies, ring12/grid3x3 are generator exports) × 2 churn
// scripts, plus a crash/restart row and one 102-node ISP cell. Node-crash
// recovery across all three protocols is chaos_test's job; here one
// protocol exercises the scenario-driven crash path on every topology.
const Cell kCells[] = {
    {"mincost", "abilene", "flap_churn"},
    {"mincost", "abilene", "regional_storm"},
    {"mincost", "att_na", "flap_churn"},
    {"mincost", "att_na", "regional_storm"},
    {"mincost", "ring12", "flap_churn"},
    {"mincost", "ring12", "regional_storm"},
    {"mincost", "grid3x3", "flap_churn"},
    {"mincost", "grid3x3", "regional_storm"},
    {"pathvector", "abilene", "flap_churn"},
    {"pathvector", "abilene", "regional_storm"},
    {"pathvector", "att_na", "flap_churn"},
    {"pathvector", "att_na", "regional_storm"},
    {"pathvector", "ring12", "flap_churn"},
    {"pathvector", "ring12", "regional_storm"},
    {"pathvector", "grid3x3", "flap_churn"},
    {"pathvector", "grid3x3", "regional_storm"},
    {"linkstate", "abilene", "flap_churn"},
    {"linkstate", "abilene", "regional_storm"},
    {"linkstate", "att_na", "flap_churn"},
    {"linkstate", "att_na", "regional_storm"},
    {"linkstate", "ring12", "flap_churn"},
    {"linkstate", "ring12", "regional_storm"},
    {"linkstate", "grid3x3", "flap_churn"},
    {"linkstate", "grid3x3", "regional_storm"},
    {"mincost", "abilene", "crash_restart"},
    {"mincost", "att_na", "crash_restart"},
    {"mincost", "ring12", "crash_restart"},
    {"mincost", "grid3x3", "crash_restart"},
    {"mincost", "isp_synth_102", "regional_storm"},
};

std::string GoldenPath() {
  return SrcPath("tests/integration/golden/scenario_fingerprints.txt");
}

std::map<std::string, std::string> LoadGoldens() {
  std::map<std::string, std::string> out;
  std::ifstream in(GoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "cell <proto> <topo> <scn> ..." — key on the first four tokens.
    std::istringstream ss(line);
    std::string cell, proto, topo, scn;
    ss >> cell >> proto >> topo >> scn;
    out[proto + "/" + topo + "/" + scn] = line;
  }
  return out;
}

TEST(ScenarioMatrixTest, AllCellsBitIdenticalAndMatchGoldens) {
  const bool regen = std::getenv("NETTRAILS_REGEN_GOLDENS") != nullptr;
  // NETTRAILS_SCENARIO_FILTER=<substring> restricts the run to cells whose
  // "proto/topo/scn" key contains the substring — used by the sanitizer CI
  // leg, where one cell is enough to drive the full code path. Filtered
  // runs still check goldens per cell but skip the completeness check.
  const char* filter_env = std::getenv("NETTRAILS_SCENARIO_FILTER");
  const std::string filter = filter_env != nullptr ? filter_env : "";
  ASSERT_FALSE(regen && !filter.empty())
      << "refusing to regenerate goldens from a filtered run";
  std::map<std::string, std::string> goldens = LoadGoldens();
  std::string regen_out =
      "# (protocol x topology x scenario) golden fingerprints.\n"
      "# One line per cell: state/prov are 64-bit digests of the converged\n"
      "# table + provenance fingerprints (identical across batch {1,64} x\n"
      "# threads {1,4}); b1/b64 are events/messages/tuples per batch size\n"
      "# (identical across thread counts). Regenerate with\n"
      "# NETTRAILS_REGEN_GOLDENS=1 after an intentional semantic change and\n"
      "# review the diff.\n";

  size_t cells_run = 0;
  for (const Cell& cell : kCells) {
    const std::string key =
        std::string(cell.proto) + "/" + cell.topo + "/" + cell.scn;
    if (!filter.empty() && key.find(filter) == std::string::npos) continue;
    ++cells_run;
    SCOPED_TRACE(std::string(cell.proto) + " x " + cell.topo + " x " +
                 cell.scn);
    const net::Topology topo = LoadTopo(cell.topo);
    const net::Scenario scn = LoadScn(cell.scn);
    ASSERT_GT(topo.num_nodes, 0u);
    ASSERT_FALSE(scn.events.empty());

    const CellRun base = RunCell(cell.proto, topo, scn, 1, 1);
    ASSERT_FALSE(base.state.empty());
    EXPECT_GT(base.applied, 0u)
        << "scenario applied no events — the cell tests nothing";
    uint64_t b64_events = 0, b64_messages = 0, b64_tuples = 0;
    for (uint32_t batch : {1u, 64u}) {
      for (unsigned threads : {1u, 4u}) {
        if (batch == 1 && threads == 1) continue;
        const CellRun r = RunCell(cell.proto, topo, scn, batch, threads);
        EXPECT_EQ(r.state, base.state)
            << "state fingerprint diverged at batch=" << batch
            << " threads=" << threads;
        EXPECT_EQ(r.prov, base.prov)
            << "provenance fingerprint diverged at batch=" << batch
            << " threads=" << threads;
        EXPECT_EQ(r.applied, base.applied);
        if (batch == 1) {
          // Same batch as base: traffic must be thread-invariant too.
          EXPECT_EQ(r.events, base.events) << "threads=" << threads;
          EXPECT_EQ(r.messages, base.messages) << "threads=" << threads;
          EXPECT_EQ(r.tuples, base.tuples) << "threads=" << threads;
        } else if (threads == 1) {
          b64_events = r.events;
          b64_messages = r.messages;
          b64_tuples = r.tuples;
        } else {
          EXPECT_EQ(r.events, b64_events) << "b64 traffic thread-variant";
          EXPECT_EQ(r.messages, b64_messages);
          EXPECT_EQ(r.tuples, b64_tuples);
        }
      }
    }

    const std::string line =
        std::string("cell ") + cell.proto + " " + cell.topo + " " + cell.scn +
        " state=" + HashOf(base.state) + " prov=" + HashOf(base.prov) +
        " b1=" + std::to_string(base.events) + "/" +
        std::to_string(base.messages) + "/" + std::to_string(base.tuples) +
        " b64=" + std::to_string(b64_events) + "/" +
        std::to_string(b64_messages) + "/" + std::to_string(b64_tuples);
    if (regen) {
      regen_out += line + "\n";
    } else {
      auto it = goldens.find(key);
      if (it == goldens.end()) {
        ADD_FAILURE() << "no golden for " << key
                      << " — run NETTRAILS_REGEN_GOLDENS=1 and commit";
      } else {
        EXPECT_EQ(line, it->second) << "fingerprint drifted from golden";
      }
    }
  }

  ASSERT_GT(cells_run, 0u) << "filter '" << filter << "' matched no cells";
  if (regen) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << GoldenPath();
    out << regen_out;
    GTEST_SKIP() << "goldens regenerated at " << GoldenPath()
                 << " — review and commit";
  } else if (filter.empty()) {
    // Stale goldens (cells removed from the matrix) must not linger.
    EXPECT_EQ(goldens.size(), sizeof(kCells) / sizeof(kCells[0]))
        << "golden file has entries for cells not in the matrix";
  }
}

}  // namespace
}  // namespace nettrails
