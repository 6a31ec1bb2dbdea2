#include "src/viz/log_store.h"

#include <gtest/gtest.h>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace viz {
namespace {

class LogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<runtime::CompiledProgramPtr> prog =
        runtime::Compile(protocols::MincostProgram());
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    topo_ = net::MakeLine(3, 1);
    engines_ = protocols::MakeEngines(&sim_, topo_, *prog);
  }

  net::Simulator sim_;
  net::Topology topo_;
  std::vector<std::unique_ptr<runtime::Engine>> engines_;
};

TEST_F(LogStoreTest, CaptureNowRecordsTables) {
  LogStore store(&sim_, protocols::EnginePtrs(engines_));
  ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
  const SystemSnapshot& snap = store.CaptureNow();
  EXPECT_EQ(snap.nodes.size(), 3u);
  const NodeSnapshot* n0 = snap.FindNode(0);
  ASSERT_NE(n0, nullptr);
  EXPECT_TRUE(n0->tables.count("link"));
  EXPECT_TRUE(n0->tables.count("mincost"));
  EXPECT_TRUE(n0->tables.count("prov"));  // provenance included by default
  EXPECT_GT(n0->TotalTuples(), 0u);
  EXPECT_EQ(snap.links.size(), 2u);
}

TEST_F(LogStoreTest, OptionsFilterProvenance) {
  LogStore::Options opts;
  opts.include_provenance = false;
  LogStore store(&sim_, protocols::EnginePtrs(engines_), opts);
  ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
  const SystemSnapshot& snap = store.CaptureNow();
  const NodeSnapshot* n0 = snap.FindNode(0);
  ASSERT_NE(n0, nullptr);
  EXPECT_FALSE(n0->tables.count("prov"));
  EXPECT_FALSE(n0->tables.count("ruleExec"));
  EXPECT_TRUE(n0->tables.count("mincost"));
}

TEST_F(LogStoreTest, PeriodicCapturesProduceTimeline) {
  LogStore store(&sim_, protocols::EnginePtrs(engines_));
  store.CapturePeriodically(net::kSecond, 5 * net::kSecond);
  ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_,
                                      /*run_to_quiescence=*/false)
                  .ok());
  sim_.RunUntil(6 * net::kSecond);
  EXPECT_EQ(store.snapshots().size(), 5u);
  for (size_t i = 1; i < store.snapshots().size(); ++i) {
    EXPECT_GT(store.snapshots()[i].time, store.snapshots()[i - 1].time);
  }
}

TEST_F(LogStoreTest, SnapshotAtFindsLatestBefore) {
  LogStore store(&sim_, protocols::EnginePtrs(engines_));
  ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
  store.CaptureNow();
  net::Time t1 = sim_.now();
  EXPECT_EQ(store.SnapshotAt(t1), &store.snapshots().back());
  EXPECT_EQ(store.SnapshotAt(t1 + 100), &store.snapshots().back());
  // Before any snapshot: nothing.
  LogStore empty(&sim_, protocols::EnginePtrs(engines_));
  EXPECT_EQ(empty.SnapshotAt(0), nullptr);
}

TEST_F(LogStoreTest, ReplayShowsStateEvolution) {
  LogStore store(&sim_, protocols::EnginePtrs(engines_));
  store.CaptureNow();  // before links: empty tables
  ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
  store.CaptureNow();  // after convergence
  std::vector<Tuple> before = store.TableAt(0, 0, "mincost");
  std::vector<Tuple> after =
      store.TableAt(sim_.now(), 0, "mincost");
  EXPECT_TRUE(before.empty());
  EXPECT_EQ(after.size(), 2u);  // mincost to nodes 1 and 2
}

TEST_F(LogStoreTest, LinkEventsRecorded) {
  LogStore store(&sim_, protocols::EnginePtrs(engines_));
  ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
  ASSERT_TRUE(sim_.SetLinkUp(0, 1, false).ok());
  ASSERT_TRUE(sim_.SetLinkUp(0, 1, true).ok());
  ASSERT_EQ(store.link_events().size(), 2u);
  EXPECT_FALSE(store.link_events()[0].up);
  EXPECT_TRUE(store.link_events()[1].up);
}

TEST_F(LogStoreTest, TableAtUnknownNodeOrTableIsEmpty) {
  LogStore store(&sim_, protocols::EnginePtrs(engines_));
  store.CaptureNow();
  EXPECT_TRUE(store.TableAt(0, 99, "link").empty());
  EXPECT_TRUE(store.TableAt(0, 0, "nosuch").empty());
}

}  // namespace
}  // namespace viz
}  // namespace nettrails
