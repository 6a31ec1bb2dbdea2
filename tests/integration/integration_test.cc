// End-to-end scenarios from the demonstration plan (Section 3): declarative
// networks with churn-driven incremental provenance maintenance, and the
// legacy-BGP use case (speakers -> proxy -> maybe rules -> provenance
// queries).
#include <gtest/gtest.h>

#include "src/bgp/speaker.h"
#include "src/bgp/tracegen.h"
#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/provenance/graph.h"
#include "src/provenance/rewrite.h"
#include "src/proxy/proxy.h"
#include "src/query/query_engine.h"
#include "src/runtime/plan.h"
#include "src/viz/export.h"
#include "src/viz/hypertree.h"
#include "src/viz/log_store.h"

namespace nettrails {
namespace {

// ---------- Declarative networks use case ----------

class DeclarativeChurnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<runtime::CompiledProgramPtr> prog =
        runtime::Compile(protocols::PathVectorProgram());
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    topo_ = net::MakeRingWithChords(6, 1, 2);
    engines_ = protocols::MakeEngines(&sim_, topo_, *prog);
    querier_ = std::make_unique<query::ProvenanceQuerier>(
        &sim_, protocols::EnginePtrs(engines_));
    ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
  }

  net::Simulator sim_;
  net::Topology topo_;
  std::vector<std::unique_ptr<runtime::Engine>> engines_;
  std::unique_ptr<query::ProvenanceQuerier> querier_;
};

TEST_F(DeclarativeChurnTest, ProvenanceTracksIncrementalRecomputation) {
  // Pick a live bestpath tuple and query its lineage.
  std::vector<Tuple> bestpaths = engines_[0]->TableContents("bestpath");
  ASSERT_FALSE(bestpaths.empty());
  Tuple target = bestpaths[0];
  query::QueryOptions opts;
  opts.type = query::QueryType::kLineage;
  Result<query::QueryResult> before = querier_->Query(target, opts);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->leaf_tuples.empty());

  // Fail every link used by this path: the tuple must disappear AND its
  // provenance must be retracted.
  const ValueList& hops = target.field(3).as_list();
  for (size_t i = 0; i + 1 < hops.size(); ++i) {
    NodeId a = hops[i].as_address();
    NodeId b = hops[i + 1].as_address();
    int64_t cost = 0;
    for (const net::CostedLink& l : topo_.links) {
      if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) cost = l.cost;
    }
    ASSERT_TRUE(protocols::FailLink(a, b, cost, &engines_, &sim_).ok());
  }
  EXPECT_FALSE(engines_[0]->HasTuple(target));
  // Its prov edges are gone from the home node's store.
  EXPECT_TRUE(querier_->store(0)->EdgesFor(target.Hash()).empty());
}

TEST_F(DeclarativeChurnTest, QueriesConsistentAfterRecovery) {
  std::vector<Tuple> bestpaths = engines_[0]->TableContents("bestpath");
  ASSERT_FALSE(bestpaths.empty());
  Tuple target = bestpaths[0];
  query::QueryOptions opts;
  opts.type = query::QueryType::kDerivCount;
  opts.use_cache = false;
  Result<query::QueryResult> before = querier_->Query(target, opts);
  ASSERT_TRUE(before.ok());

  // Flap an uninvolved link; the tuple's derivation count is unchanged.
  ASSERT_TRUE(protocols::FailLink(2, 3, 1, &engines_, &sim_).ok());
  ASSERT_TRUE(protocols::RecoverLink(2, 3, 1, &engines_, &sim_).ok());
  if (engines_[0]->HasTuple(target)) {
    Result<query::QueryResult> after = querier_->Query(target, opts);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->count, before->count);
  }
}

// ---------- Full pipeline: protocol -> log store -> graph -> hypertree ----

TEST(PipelineTest, SnapshotSelectTupleExploreProvenance) {
  // The Figure 2 interaction: snapshot the system, select a table, locate a
  // tuple, explore its provenance as a hypertree.
  net::Simulator sim;
  Result<runtime::CompiledProgramPtr> prog =
      runtime::Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok());
  net::Topology topo = net::MakeRingWithChords(6, 1, 3);
  auto engines = protocols::MakeEngines(&sim, topo, *prog);
  query::ProvenanceQuerier querier(&sim, protocols::EnginePtrs(engines));
  viz::LogStore log(&sim, protocols::EnginePtrs(engines));
  ASSERT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());
  log.CaptureNow();

  // (a) system snapshot exists; (b) select the mincost table at node 0.
  std::vector<Tuple> mincosts = log.TableAt(sim.now(), 0, "mincost");
  ASSERT_FALSE(mincosts.empty());
  // (c) locate one tuple and build its provenance graph.
  Tuple target = mincosts[0];
  std::vector<const provenance::ProvStore*> stores;
  for (size_t i = 0; i < engines.size(); ++i) {
    stores.push_back(querier.store(static_cast<NodeId>(i)));
  }
  provenance::Graph graph = provenance::BuildGraph(
      stores, target.Location(), target.Hash(),
      [&](Vid vid) { return querier.RenderVid(vid); });
  EXPECT_GT(graph.vertices.size(), 1u);

  // Hypertree exploration with smooth refocus.
  viz::Hypertree ht(graph);
  EXPECT_EQ(ht.size(), graph.vertices.size());
  std::vector<Vid> children = graph.ChildrenOf(graph.root);
  ASSERT_FALSE(children.empty());
  auto frames = ht.TransitionFrames(children[0], 5);
  EXPECT_EQ(frames.size(), 5u);

  // Exports are consistent with the graph.
  std::string dot = viz::ToDot(graph);
  EXPECT_NE(dot.find("mincost("), std::string::npos);
  std::string tree = viz::ToTextTree(graph);
  EXPECT_NE(tree.find("link("), std::string::npos);
}

// ---------- Legacy applications use case ----------

TEST(BgpIntegrationTest, TraceReplayThroughProxyYieldsQueryableProvenance) {
  net::Simulator sim;
  Rng rng(99);
  bgp::AsTopology topo = bgp::MakeAsTopology(2, 3, 4, &rng);
  topo.Install(&sim);

  Result<runtime::CompiledProgramPtr> prog =
      runtime::Compile(protocols::BgpMaybeProgram());
  ASSERT_TRUE(prog.ok());

  std::vector<std::unique_ptr<runtime::Engine>> engines;
  std::vector<std::unique_ptr<proxy::Proxy>> proxies;
  std::vector<std::unique_ptr<bgp::Speaker>> speakers;
  for (size_t i = 0; i < topo.num_ases; ++i) {
    engines.push_back(std::make_unique<runtime::Engine>(
        &sim, static_cast<NodeId>(i), *prog));
    proxies.push_back(std::make_unique<proxy::Proxy>(engines.back().get()));
    speakers.push_back(std::make_unique<bgp::Speaker>(
        &sim, static_cast<NodeId>(i), proxies.back().get()));
  }
  for (const bgp::AsLink& l : topo.links) {
    speakers[l.a]->AddNeighbor(l.b, l.relation);
    speakers[l.b]->AddNeighbor(l.a, bgp::Reverse(l.relation));
  }
  query::ProvenanceQuerier querier(&sim, protocols::EnginePtrs(engines));

  std::vector<bgp::TraceEvent> trace = bgp::GenerateTrace(topo, 10, &rng);
  for (const bgp::TraceEvent& ev : trace) {
    sim.ScheduleAt(ev.time, [&speakers, ev]() {
      if (ev.withdraw) {
        speakers[ev.origin]->Withdraw(ev.prefix);
      } else {
        speakers[ev.origin]->Originate(ev.prefix);
      }
    });
  }
  sim.Run();

  // Every AS that selected a route for some announced prefix produced
  // outputRoute tuples through the proxy; find one with maybe provenance.
  bool found_queryable = false;
  for (size_t i = 0; i < engines.size() && !found_queryable; ++i) {
    for (const Tuple& out : engines[i]->TableContents("outputRoute")) {
      // Transit outputs (path length > 1) must have a maybe cause.
      if (out.field(3).as_list().size() < 2) continue;
      query::QueryOptions opts;
      opts.type = query::QueryType::kLineage;
      Result<query::QueryResult> r = querier.Query(out, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (!r->leaf_tuples.empty()) {
        // The lineage bottoms out in inputRoute state at some AS.
        bool has_input_leaf = false;
        for (const std::string& leaf : r->leaf_tuples) {
          if (leaf.rfind("inputRoute(", 0) == 0) has_input_leaf = true;
        }
        EXPECT_TRUE(has_input_leaf)
            << "leaves of " << out.ToString() << " lack inputRoute";
        found_queryable = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_queryable)
      << "no transit outputRoute with queryable provenance found";
}

TEST(BgpIntegrationTest, WithdrawalRetractsDerivedProvenance) {
  // Minimal 2-AS setup: stub 1 announces to provider 0; 0 re-exports.
  net::Simulator sim;
  sim.AddNode();
  sim.AddNode();
  sim.AddNode();
  sim.AddLink(0, 1);
  sim.AddLink(0, 2);
  Result<runtime::CompiledProgramPtr> prog =
      runtime::Compile(protocols::BgpMaybeProgram());
  ASSERT_TRUE(prog.ok());
  std::vector<std::unique_ptr<runtime::Engine>> engines;
  std::vector<std::unique_ptr<proxy::Proxy>> proxies;
  std::vector<std::unique_ptr<bgp::Speaker>> speakers;
  for (NodeId i = 0; i < 3; ++i) {
    engines.push_back(std::make_unique<runtime::Engine>(&sim, i, *prog));
    proxies.push_back(std::make_unique<proxy::Proxy>(engines.back().get()));
    speakers.push_back(
        std::make_unique<bgp::Speaker>(&sim, i, proxies.back().get()));
  }
  speakers[0]->AddNeighbor(1, bgp::Relation::kCustomer);
  speakers[0]->AddNeighbor(2, bgp::Relation::kCustomer);
  speakers[1]->AddNeighbor(0, bgp::Relation::kProvider);
  speakers[2]->AddNeighbor(0, bgp::Relation::kProvider);

  speakers[1]->Originate(100);
  sim.Run();
  // AS 0 exported the customer route to AS 2.
  const runtime::Table* out_table = engines[0]->GetTable("outputRoute");
  ASSERT_NE(out_table, nullptr);
  ASSERT_GE(out_table->size(), 1u);

  speakers[1]->Withdraw(100);
  sim.Run();
  EXPECT_EQ(engines[0]->GetTable("outputRoute")->size(), 0u);
  EXPECT_EQ(engines[0]->GetTable("inputRoute")->size(), 0u);
  // All maybe provenance retracted with the state.
  for (const Tuple& t :
       engines[0]->TableContents(provenance::kProvTable)) {
    EXPECT_FALSE(t.field(4).Truthy())
        << "stale maybe edge " << t.ToString();
  }
}

}  // namespace
}  // namespace nettrails
