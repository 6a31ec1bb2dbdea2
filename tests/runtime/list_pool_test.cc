// Engine ValueList pool bound under long churn. Shipped tuples carry their
// field buffers from the sender's pool into the receiver's, and nothing
// sends them back, so an unbounded per-engine pool grows with the length of
// the run on every net receiver. Each engine therefore keeps at most as many
// pooled lists as it has ever needed on hand at once. This suite runs
// path-vector with provenance on the AT&T North America corpus topology
// under 200 seeded link failures and recoveries and checks that:
//   - total pooled lists after event 200 are no more than after event 50
//     (the pool follows live work, not elapsed events);
//   - after every event the total never exceeds the sum of the engines'
//     pool bounds;
//   - the bound changes nothing observable: final tables and every node's
//     canonical provenance graph are identical at batch {1,64} x
//     threads {1,4}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
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

constexpr int kEvents = 200;
constexpr int kEarlyEvent = 50;
constexpr size_t kMaxDown = 3;

struct PoolTotals {
  uint64_t pooled = 0;
  uint64_t bound = 0;
};

PoolTotals SumPools(const std::vector<std::unique_ptr<Engine>>& engines) {
  PoolTotals t;
  for (const auto& e : engines) {
    t.pooled += e->stats().pooled_lists;
    t.bound += e->stats().pooled_lists_bound;
  }
  return t;
}

struct RunResult {
  std::string fingerprint;
  PoolTotals early;
  PoolTotals late;
};

/// Converges path-vector on att_na, then runs kEvents churn events, each
/// to quiescence: with no link down an event fails one, with kMaxDown down
/// it recovers one, otherwise a seeded coin picks. The schedule depends only
/// on the seed, so every configuration replays the same churn.
RunResult RunChurn(uint32_t batch, unsigned threads) {
  RunResult out;
  Result<net::Topology> topo = net::LoadTopologyFile(
      std::string(NETTRAILS_SOURCE_DIR) + "/examples/topologies/att_na.topo");
  EXPECT_TRUE(topo.ok()) << topo.status().ToString();
  if (!topo.ok()) return out;
  Result<CompiledProgramPtr> prog = Compile(protocols::PathVectorProgram());
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return out;

  net::SimulatorOptions sopts;
  sopts.num_threads = threads;
  net::Simulator sim(sopts);
  EngineOptions opts;
  opts.batch_size = batch;
  auto engines = protocols::MakeEngines(&sim, *topo, *prog, opts);
  std::vector<std::unique_ptr<provenance::ProvStore>> stores;
  for (const auto& e : engines) {
    stores.push_back(std::make_unique<provenance::ProvStore>(e.get()));
  }
  EXPECT_TRUE(protocols::InstallLinks(*topo, &engines, &sim).ok());

  Rng rng(12);
  std::vector<size_t> down;
  for (int ev = 1; ev <= kEvents; ++ev) {
    const bool fail =
        down.empty() || (down.size() < kMaxDown && rng.NextBelow(2) == 0);
    if (fail) {
      size_t i = rng.NextBelow(topo->links.size());
      while (std::find(down.begin(), down.end(), i) != down.end()) {
        i = (i + 1) % topo->links.size();
      }
      const net::CostedLink& l = topo->links[i];
      EXPECT_TRUE(protocols::FailLink(l.a, l.b, l.cost, &engines, &sim).ok());
      down.push_back(i);
    } else {
      const size_t k = rng.NextBelow(down.size());
      const net::CostedLink& l = topo->links[down[k]];
      EXPECT_TRUE(
          protocols::RecoverLink(l.a, l.b, l.cost, &engines, &sim).ok());
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(k));
    }
    const PoolTotals now = SumPools(engines);
    EXPECT_LE(now.pooled, now.bound)
        << "batch=" << batch << " threads=" << threads << " event=" << ev;
    if (ev == kEarlyEvent) out.early = now;
    if (ev == kEvents) out.late = now;
  }
  for (size_t i : down) {
    const net::CostedLink& l = topo->links[i];
    EXPECT_TRUE(protocols::RecoverLink(l.a, l.b, l.cost, &engines, &sim).ok());
  }

  for (const auto& engine : engines) {
    out.fingerprint += "== node " + std::to_string(engine->id()) + "\n";
    for (const auto& [name, info] : engine->program().tables) {
      if (!info.materialized) continue;
      for (const Tuple& t : engine->TableContents(name)) {
        out.fingerprint +=
            t.ToString() + " x" + std::to_string(engine->CountOf(t)) + "\n";
      }
    }
  }
  for (const auto& store : stores) {
    out.fingerprint +=
        "== provenance node " + std::to_string(store->node()) + "\n";
    out.fingerprint += store->CanonicalGraph();
  }
  return out;
}

TEST(ListPoolTest, PoolStaysBoundedUnderChurnAndChangesNoResult) {
  std::string reference;
  for (uint32_t batch : {1u, 64u}) {
    for (unsigned threads : {1u, 4u}) {
      const RunResult r = RunChurn(batch, threads);
      ASSERT_FALSE(r.fingerprint.empty());
      EXPECT_GT(r.late.bound, 0u);
      EXPECT_LE(r.late.pooled, r.early.pooled)
          << "batch=" << batch << " threads=" << threads
          << ": pooled lists grew from " << r.early.pooled << " at event "
          << kEarlyEvent << " to " << r.late.pooled << " at event "
          << kEvents;
      if (reference.empty()) {
        reference = r.fingerprint;
      } else {
        EXPECT_EQ(r.fingerprint, reference)
            << "batch=" << batch << " threads=" << threads
            << " diverged from batch=1 threads=1";
      }
    }
  }
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
