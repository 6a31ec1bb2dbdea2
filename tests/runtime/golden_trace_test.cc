// Golden-trace determinism pin: at batch_size = 1 (every shipped delta in
// its own frame) an InstallLinks convergence must replay bit-for-bit —
// every visible table action on every node, in order. This is the
// determinism anchor for frame coalescing: the equivalence suite proves
// larger frame sizes reach the same fixpoint, and this trace pins the
// per-tuple evaluation order itself so an accidental semantic change to
// the anchor cannot hide there. The trace is MINCOST converging on a
// 3-node line (provenance off, so the log stays readable); any legitimate
// engine change that reorders evaluation must regenerate the constant
// below (the test prints the actual trace on mismatch).
#include <gtest/gtest.h>

#include <iostream>
#include <string>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace runtime {
namespace {

constexpr char kGoldenTrace[] = R"(n0 +link(@0,@1,1) x1
n0 +cost(@0,@1,1) x1
n0 +mincost(@0,@1,1) x1
n1 +link(@1,@0,1) x1
n1 +cost(@1,@0,1) x1
n1 +mincost(@1,@0,1) x1
n1 +link(@1,@2,1) x1
n1 +cost(@1,@2,1) x1
n1 +mincost(@1,@2,1) x1
n2 +link(@2,@1,1) x1
n2 +cost(@2,@1,1) x1
n2 +mincost(@2,@1,1) x1
n1 +link_d(@1,@0,1) x1
n0 +link_d(@0,@1,1) x1
n2 +link_d(@2,@1,1) x1
n1 +link_d(@1,@2,1) x1
n0 +cost(@0,@2,2) x1
n0 +mincost(@0,@2,2) x1
n2 +cost(@2,@0,2) x1
n2 +mincost(@2,@0,2) x1
n1 +cost(@1,@2,3) x1
n1 +cost(@1,@0,3) x1
)";

std::string CaptureSerialTrace() {
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), NoProvenanceOptions());
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return "";
  net::Topology topo = net::MakeLine(3, 1);
  net::Simulator sim;
  EngineOptions opts;
  opts.batch_size = 1;  // the serial anchor
  auto engines = protocols::MakeEngines(&sim, topo, *prog, opts);
  std::string trace;
  for (const auto& e : engines) {
    NodeId id = e->id();
    e->AddActionObserver([&trace, id](const std::string& table,
                                      const TableAction& action) {
      trace += "n" + std::to_string(id) + " " +
               (action.is_delete ? "-" : "+") +
               Tuple(table, action.fields).ToString() + " x" +
               std::to_string(action.mult) + "\n";
    });
  }
  EXPECT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());
  return trace;
}

TEST(GoldenTraceTest, SerialModeReproducesInstallLinksConvergenceExactly) {
  std::string actual = CaptureSerialTrace();
  ASSERT_FALSE(actual.empty());
  if (actual != kGoldenTrace) {
    std::cout << "=== ACTUAL TRACE BEGIN ===\n"
              << actual << "=== ACTUAL TRACE END ===\n";
  }
  EXPECT_EQ(actual, kGoldenTrace)
      << "serial-mode derivation order changed; if intentional, regenerate "
         "kGoldenTrace from the printed actual trace";
}

TEST(GoldenTraceTest, TraceIsStableAcrossRepeatedRuns) {
  EXPECT_EQ(CaptureSerialTrace(), CaptureSerialTrace());
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
