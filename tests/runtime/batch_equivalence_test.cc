// Frame-size equivalence harness. EngineOptions::batch_size only caps how
// many shipped deltas share one frame; evaluation is per-tuple at every
// setting. Coalescing frames reorders deliveries across destinations, so
// batch_size 8 and 64 must reach exactly the state batch_size 1 (one
// single-tuple frame per shipped delta) reaches — identical table fixpoints
// (which subsumes identical aggregate output values: aggregate outputs are
// rows of mincost / bestcost), and bit-identical distributed provenance
// graphs — under randomized seeded churn: link flaps and failure bursts
// over the path-vector and MINCOST protocols, and route announce/withdraw
// churn over the legacy-BGP maybe program. The frame counters and the
// soft-state (FIFO eviction, lifetime expiry) cases are pinned at the
// bottom. CI runs this suite via `ctest -R equivalence` with the three fixed
// seeds below.
#include <gtest/gtest.h>

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

/// MINCOST with the distance-vector "infinity" lowered from 255 to 24.
/// Identical rules to protocols::MincostProgram(); the lower bound only
/// shortens the count-to-infinity transient when a failure burst
/// temporarily partitions the 6-node test topology (with the shipped 255
/// bound a partition makes every surviving pair count up by link-cost
/// steps, which swamps the equivalence runs without exercising anything
/// new — the transient is protocol behaviour, not engine behaviour).
const char* kBoundedMincost = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2)).
    mc1 cost(@X,Y,C) :- link(@X,Y,C).
    mc2 cost(@X,Z,C) :- link(@X,Y,C1), mincost(@Y,Z,C2), X != Z,
                        C := C1 + C2, C < 24.
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
)";

struct WorldStats {
  uint64_t batches_processed = 0;
  uint64_t batched_tuples = 0;
  uint64_t batch_messages_sent = 0;
  bool overflowed = false;
};

/// Full-system fixpoint fingerprint: every materialized table's visible
/// tuples with derivation counts (deterministic order) per node, plus each
/// node's canonical provenance graph.
std::string Fingerprint(
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
  return out;
}

WorldStats Collect(const std::vector<std::unique_ptr<Engine>>& engines) {
  WorldStats ws;
  for (const auto& e : engines) {
    ws.batches_processed += e->stats().batches_processed;
    ws.batched_tuples += e->stats().batched_tuples;
    ws.batch_messages_sent += e->stats().batch_messages_sent;
    ws.overflowed |= e->overflowed();
  }
  return ws;
}

/// Seeded link churn over a routing protocol: converge a random connected
/// topology, then apply single flaps and multi-link failure bursts. The Rng
/// consumption is engine-state-independent, so every batch_size replays the
/// identical schedule.
std::string RunLinkChurn(const char* program, uint64_t seed,
                         uint32_t batch_size, WorldStats* out_stats) {
  Result<CompiledProgramPtr> prog = Compile(program);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return "";

  Rng rng(seed);
  net::Topology topo = net::MakeRandomConnected(6, 0.35, &rng, 3);
  net::Simulator sim;
  EngineOptions opts;
  opts.batch_size = batch_size;
  auto engines = protocols::MakeEngines(&sim, topo, *prog, opts);
  std::vector<std::unique_ptr<provenance::ProvStore>> stores;
  for (const auto& e : engines) {
    stores.push_back(std::make_unique<provenance::ProvStore>(e.get()));
  }
  EXPECT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());

  std::vector<bool> up(topo.links.size(), true);
  for (int op = 0; op < 14; ++op) {
    // Burst: flip 1-3 links before letting the network reconverge, so
    // retraction and re-derivation cascades overlap (full frames).
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
  // Leave no link down at the end so every node holds interesting state.
  for (size_t i = 0; i < topo.links.size(); ++i) {
    if (!up[i]) {
      const net::CostedLink& l = topo.links[i];
      EXPECT_TRUE(protocols::RecoverLink(l.a, l.b, l.cost, &engines, &sim,
                                         /*run_to_quiescence=*/false)
                      .ok());
    }
  }
  sim.Run();

  *out_stats = Collect(engines);
  EXPECT_FALSE(out_stats->overflowed);
  return Fingerprint(engines, stores);
}

/// Seeded announce/withdraw churn over the legacy-BGP maybe program:
/// inputRoute / outputRoute inserts (some output routes genuinely extending
/// an input route, exercising the maybe join), key-replacement updates, and
/// deletes of still-live tuples.
std::string RunBgpChurn(uint64_t seed, uint32_t batch_size,
                        WorldStats* out_stats) {
  Result<CompiledProgramPtr> prog = Compile(protocols::BgpMaybeProgram());
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return "";

  Rng rng(seed);
  net::Simulator sim;
  sim.AddNode();
  EngineOptions opts;
  opts.batch_size = batch_size;
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<Engine>(&sim, 0, *prog, opts));
  Engine& engine = *engines[0];
  std::vector<std::unique_ptr<provenance::ProvStore>> stores;
  stores.push_back(std::make_unique<provenance::ProvStore>(&engine));

  auto route = [&](int64_t first, int64_t len) {
    ValueList hops;
    for (int64_t i = 0; i < len; ++i) {
      hops.push_back(Value::Address(static_cast<NodeId>(first + i)));
    }
    return Value::List(std::move(hops));
  };
  std::vector<Tuple> live;
  for (int op = 0; op < 60; ++op) {
    if (!live.empty() && rng.NextBool(0.3)) {
      size_t i = rng.NextBelow(live.size());
      if (engine.HasTuple(live[i])) {
        EXPECT_TRUE(engine.Delete(live[i]).ok());
      }
      live.erase(live.begin() + static_cast<long>(i));
    } else {
      int64_t router = rng.NextInRange(1, 3);
      int64_t prefix = rng.NextInRange(10, 13);
      Value in_route = route(rng.NextInRange(4, 6), rng.NextInRange(1, 3));
      Tuple in("inputRoute", {Value::Address(0), Value::Int(router),
                              Value::Int(prefix), in_route});
      EXPECT_TRUE(engine.Insert(in).ok());
      live.push_back(in);
      if (rng.NextBool(0.7)) {
        // Extend: prepend this AS (node 0), matching f_isExtend.
        ValueList extended{Value::Address(0)};
        for (const Value& hop : in_route.as_list()) extended.push_back(hop);
        Tuple out_t("outputRoute",
                    {Value::Address(0), Value::Int(router), Value::Int(prefix),
                     Value::List(std::move(extended))});
        EXPECT_TRUE(engine.Insert(out_t).ok());
        live.push_back(out_t);
      }
    }
    sim.Run();
  }

  *out_stats = Collect(engines);
  EXPECT_FALSE(out_stats->overflowed);
  return Fingerprint(engines, stores);
}

struct EqCase {
  const char* name;
  const char* program;  // nullptr selects the BGP churn driver
  uint64_t seed;
};

class BatchEquivalence : public ::testing::TestWithParam<EqCase> {};

TEST_P(BatchEquivalence, BatchedFixpointMatchesSerial) {
  const EqCase& c = GetParam();
  auto run = [&](uint32_t batch_size, WorldStats* ws) {
    return c.program == nullptr
               ? RunBgpChurn(c.seed, batch_size, ws)
               : RunLinkChurn(c.program, c.seed, batch_size, ws);
  };
  WorldStats serial_ws, b8_ws, b64_ws;
  std::string serial = run(1, &serial_ws);
  std::string batched8 = run(8, &b8_ws);
  std::string batched64 = run(64, &b64_ws);
  ASSERT_FALSE(serial.empty());

  EXPECT_EQ(batched8, serial) << "batch_size=8 diverged from batch_size=1";
  EXPECT_EQ(batched64, serial) << "batch_size=64 diverged from batch_size=1";

  // batch_size 1 ships only single-tuple frames. The networked runs must
  // actually coalesce (multi-tuple frames, not just frames of one); the BGP
  // driver is one node and ships nothing. Frames sent over a link that
  // fails in flight are never unpacked, hence <= rather than ==.
  EXPECT_EQ(serial_ws.batch_messages_sent, 0u);
  EXPECT_EQ(serial_ws.batches_processed, 0u);
  for (const WorldStats* ws : {&b8_ws, &b64_ws}) {
    EXPECT_LE(ws->batches_processed, ws->batch_messages_sent);
    if (c.program != nullptr) {
      EXPECT_GT(ws->batches_processed, 0u);
      EXPECT_GT(ws->batched_tuples, ws->batches_processed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededChurn, BatchEquivalence,
    ::testing::Values(
        EqCase{"mincost_s1", kBoundedMincost, 101},
        EqCase{"mincost_s2", kBoundedMincost, 202},
        EqCase{"mincost_s3", kBoundedMincost, 303},
        EqCase{"pathvector_s1", protocols::PathVectorProgram(), 101},
        EqCase{"pathvector_s2", protocols::PathVectorProgram(), 202},
        EqCase{"pathvector_s3", protocols::PathVectorProgram(), 303},
        EqCase{"bgp_s1", nullptr, 101}, EqCase{"bgp_s2", nullptr, 202},
        EqCase{"bgp_s3", nullptr, 303}),
    [](const ::testing::TestParamInfo<EqCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// EngineStats batch counters.

TEST(BatchStatsTest, DeltasEnqueuedCountsTuplesNotBatches) {
  // One gossip event fans out into 3 remote deltas: at batch_size 64 the
  // sender frames them into a single message, but the receiver must still
  // count 3 enqueued deltas.
  Result<CompiledProgramPtr> prog = Compile(R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(told, infinity, infinity, keys(1,2)).
    r1 told(@Y,I) :- gossip(@X,Y), item(@X,I).
  )",
                                            NoProvenanceOptions());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  for (uint32_t batch_size : {1u, 64u}) {
    net::Simulator sim;
    sim.AddNode();
    sim.AddNode();
    sim.AddLink(0, 1);
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine sender(&sim, 0, *prog, opts);
    Engine receiver(&sim, 1, *prog, opts);
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          sender.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    ASSERT_TRUE(
        sender
            .InsertEvent(Tuple("gossip", {Value::Address(0), Value::Address(1)}))
            .ok());
    sim.Run();
    EXPECT_EQ(receiver.GetTable("told")->size(), 3u);
    // Per-tuple accounting regardless of framing.
    EXPECT_EQ(receiver.stats().deltas_enqueued, 3u) << "batch=" << batch_size;
    EXPECT_EQ(sender.stats().tuples_shipped, 3u) << "batch=" << batch_size;
    if (batch_size == 1) {
      EXPECT_EQ(sender.stats().messages_sent, 3u);
      EXPECT_EQ(sender.stats().batch_messages_sent, 0u);
      EXPECT_EQ(receiver.stats().batches_processed, 0u);
    } else {
      // One frame carrying all 3 deltas, unpacked once by the receiver.
      EXPECT_EQ(sender.stats().messages_sent, 1u);
      EXPECT_EQ(sender.stats().batch_messages_sent, 1u);
      EXPECT_EQ(receiver.stats().batches_processed, 1u);
      EXPECT_EQ(receiver.stats().batched_tuples, 3u);
    }
  }
}

TEST(BatchStatsTest, FramesCapAtBatchSizeAndDispatchesStayPerAction) {
  // One burst event derives 8 remote told tuples for node 1 and 8 local
  // copy tuples. Frames fill to batch_size and the remainder ships when the
  // drain ends; a lone remainder ships as a single-tuple frame. Trigger
  // dispatches stay one per action whatever the framing.
  Result<CompiledProgramPtr> prog = Compile(R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(copy, infinity, infinity, keys(1,2)).
    materialize(told, infinity, infinity, keys(1,2)).
    r1 copy(@X,I) :- burst(@X,Y), item(@X,I).
    r2 told(@Y,I) :- burst(@X,Y), item(@X,I).
  )",
                                            NoProvenanceOptions());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  struct Want {
    uint32_t batch_size;
    uint64_t messages;        // sender: frames sent
    uint64_t multi_frames;    // sender: frames holding > 1 tuple
    uint64_t batched_tuples;  // receiver: tuples in multi-tuple frames
  };
  for (const Want& w : {Want{1, 8, 0, 0}, Want{3, 3, 3, 8}, Want{7, 2, 1, 7},
                        Want{64, 1, 1, 8}}) {
    net::Simulator sim;
    sim.AddNode();
    sim.AddNode();
    sim.AddLink(0, 1);
    EngineOptions opts;
    opts.batch_size = w.batch_size;
    Engine sender(&sim, 0, *prog, opts);
    Engine receiver(&sim, 1, *prog, opts);
    for (int64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          sender.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    const EngineStats before = sender.stats();
    ASSERT_TRUE(
        sender
            .InsertEvent(Tuple("burst", {Value::Address(0), Value::Address(1)}))
            .ok());
    sim.Run();
    const EngineStats& s = sender.stats();
    const EngineStats& r = receiver.stats();
    EXPECT_EQ(receiver.GetTable("told")->size(), 8u);
    EXPECT_EQ(sender.GetTable("copy")->size(), 8u);
    EXPECT_EQ(s.tuples_shipped, 8u) << "batch=" << w.batch_size;
    EXPECT_EQ(s.messages_sent, w.messages) << "batch=" << w.batch_size;
    EXPECT_EQ(s.batch_messages_sent, w.multi_frames)
        << "batch=" << w.batch_size;
    EXPECT_EQ(r.batches_processed, w.multi_frames) << "batch=" << w.batch_size;
    EXPECT_EQ(r.batched_tuples, w.batched_tuples) << "batch=" << w.batch_size;
    EXPECT_EQ(r.deltas_enqueued, 8u) << "batch=" << w.batch_size;
    // Sender: the event plus 8 copy inserts. Receiver: 8 told inserts.
    EXPECT_EQ(s.trigger_dispatches - before.trigger_dispatches, 9u)
        << "batch=" << w.batch_size;
    EXPECT_EQ(r.trigger_dispatches, 8u) << "batch=" << w.batch_size;
  }
}

// ---------------------------------------------------------------------------
// Soft state: FIFO eviction and lifetime expiry must pick the same victims
// in the same order at every batch size.

CompiledProgramPtr SoftStateProgram(const char* decl) {
  Result<CompiledProgramPtr> prog = Compile(decl, NoProvenanceOptions());
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return prog.ok() ? *prog : nullptr;
}

std::string TableFingerprint(const Engine& engine, const std::string& table) {
  std::string out;
  for (const Tuple& t : engine.TableContents(table)) {
    out += t.ToString() + " x" + std::to_string(engine.CountOf(t)) + "\n";
  }
  return out;
}

TEST(SoftStateBatchEquivalenceTest, FifoEvictionOrderMatchesSerial) {
  // cache holds at most 3 rows; one flood event joins 6 item rows in one
  // drain, and the engine evicts incrementally as each insert crosses the
  // limit. Victims and survivors must be identical at every batch size.
  const char* src = R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(cache, infinity, 3, keys(1,2)).
    r1 cache(@X,I) :- flood(@X,N), item(@X,I).
  )";
  CompiledProgramPtr prog = SoftStateProgram(src);
  ASSERT_NE(prog, nullptr);
  auto run = [&](uint32_t batch_size, EngineStats* stats) {
    net::Simulator sim;
    sim.AddNode();
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine engine(&sim, 0, prog, opts);
    for (int64_t i = 1; i <= 6; ++i) {
      EXPECT_TRUE(
          engine.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("flood", {Value::Address(0), Value::Int(1)}))
            .ok());
    sim.Run();
    *stats = engine.stats();
    return TableFingerprint(engine, "cache");
  };
  EngineStats serial_stats, batched_stats;
  std::string serial = run(1, &serial_stats);
  std::string batched = run(64, &batched_stats);
  EXPECT_EQ(batched, serial);
  EXPECT_GT(serial_stats.evictions, 0u);
  EXPECT_EQ(batched_stats.evictions, serial_stats.evictions);
  EXPECT_EQ(batched_stats.expirations, serial_stats.expirations);
}

TEST(SoftStateBatchEquivalenceTest, FifoVictimReinsertedInSameBatchMatchesSerial) {
  // Regression: a burst that inserts a fresh key AND re-derives the current
  // FIFO victim. The victim is evicted at its pre-re-insert count (the
  // re-insert then survives with the remainder); reading the victim's count
  // after the whole burst would over-evict.
  const char* src = R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(cache, infinity, 2, keys(1,2)).
    r1 cache(@X,I) :- poke(@X,N), item(@X,I).
  )";
  CompiledProgramPtr prog = SoftStateProgram(src);
  ASSERT_NE(prog, nullptr);
  auto run = [&](uint32_t batch_size, EngineStats* stats) {
    net::Simulator sim;
    sim.AddNode();
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine engine(&sim, 0, prog, opts);
    // cache = {1 (FIFO-oldest), 2}, at max_size.
    for (int64_t i : {1, 2}) {
      EXPECT_TRUE(
          engine.Insert(Tuple("cache", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    // The broadcast join iterates items in sorted order, so the burst
    // derives cache(0) — evicting FIFO-oldest cache(1) at its current
    // count — and then re-derives cache(1) itself.
    for (int64_t i : {0, 1}) {
      EXPECT_TRUE(
          engine.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("poke", {Value::Address(0), Value::Int(1)}))
            .ok());
    sim.Run();
    *stats = engine.stats();
    return TableFingerprint(engine, "cache");
  };
  EngineStats serial_stats, batched_stats;
  std::string serial = run(1, &serial_stats);
  std::string batched = run(64, &batched_stats);
  EXPECT_EQ(batched, serial);
  EXPECT_GT(serial_stats.evictions, 0u);
  EXPECT_EQ(batched_stats.evictions, serial_stats.evictions);
  // The victim was evicted at its pre-re-insert count, so the re-derived
  // cache(1) survives with one derivation.
  EXPECT_NE(serial.find("cache(@0,1) x1"), std::string::npos) << serial;
}

TEST(SoftStateBatchEquivalenceTest, LifetimeExpiryMatchesSerial) {
  // seen rows live 2 virtual seconds; a second ping mid-lifetime refreshes
  // every row's timer (invalidating the first generation), so the final
  // expiry wave must retract all rows at every batch size at the refreshed
  // time.
  const char* src = R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(seen, 2, infinity, keys(1,2)).
    r1 seen(@X,I) :- ping(@X,N), item(@X,I).
  )";
  CompiledProgramPtr prog = SoftStateProgram(src);
  ASSERT_NE(prog, nullptr);
  auto run = [&](uint32_t batch_size, EngineStats* stats) {
    net::Simulator sim;
    sim.AddNode();
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine engine(&sim, 0, prog, opts);
    for (int64_t i = 1; i <= 4; ++i) {
      EXPECT_TRUE(
          engine.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("ping", {Value::Address(0), Value::Int(1)}))
            .ok());
    sim.RunFor(1 * net::kSecond);
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("ping", {Value::Address(0), Value::Int(2)}))
            .ok());
    std::string mid = TableFingerprint(engine, "seen");
    sim.Run();
    *stats = engine.stats();
    return mid + "----\n" + TableFingerprint(engine, "seen");
  };
  EngineStats serial_stats, batched_stats;
  std::string serial = run(1, &serial_stats);
  std::string batched = run(64, &batched_stats);
  EXPECT_EQ(batched, serial);
  EXPECT_GT(serial_stats.expirations, 0u);
  EXPECT_EQ(batched_stats.expirations, serial_stats.expirations);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
