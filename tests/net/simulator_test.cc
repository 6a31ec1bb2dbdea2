#include "src/net/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace nettrails {
namespace net {
namespace {

Message MakeMsg(Simulator* sim, NodeId src, NodeId dst,
                const std::string& channel = "tuple") {
  Message m;
  m.src = src;
  m.dst = dst;
  m.channel = sim->InternChannel(channel);
  m.payload = Tuple("ping", {Value::Address(dst), Value::Int(1)});
  return m;
}

TEST(SimulatorTest, AddNodesAndLinks) {
  Simulator sim;
  NodeId a = sim.AddNode();
  NodeId b = sim.AddNode();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_FALSE(sim.HasLink(a, b));
  sim.AddLink(a, b);
  EXPECT_TRUE(sim.HasLink(a, b));
  EXPECT_TRUE(sim.HasLink(b, a));  // undirected
  EXPECT_TRUE(sim.LinkUp(a, b));
}

TEST(SimulatorTest, MessageDeliveredWithLatency) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();
  sim.AddLink(a, b, 5 * kMillisecond);
  Time delivered_at = 0;
  sim.RegisterHandler(b, "tuple", [&](const Message& m) {
    delivered_at = sim.now();
    EXPECT_EQ(m.src, a);
  });
  EXPECT_TRUE(sim.Send(MakeMsg(&sim, a, b)));
  sim.Run();
  EXPECT_EQ(delivered_at, 5 * kMillisecond);
}

TEST(SimulatorTest, LocalDeliveryNeedsNoLink) {
  Simulator sim;
  NodeId a = sim.AddNode();
  bool got = false;
  sim.RegisterHandler(a, "tuple", [&](const Message&) { got = true; });
  EXPECT_TRUE(sim.Send(MakeMsg(&sim, a, a)));
  sim.Run();
  EXPECT_TRUE(got);
}

TEST(SimulatorTest, SendWithoutLinkDrops) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();
  EXPECT_FALSE(sim.Send(MakeMsg(&sim, a, b)));
  EXPECT_EQ(sim.dropped_messages(), 1u);
}

TEST(SimulatorTest, DownLinkDropsAndObserversFire) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();
  sim.AddLink(a, b);
  std::vector<bool> events;
  sim.AddLinkObserver(
      [&](NodeId, NodeId, bool up) { events.push_back(up); });
  ASSERT_TRUE(sim.SetLinkUp(a, b, false).ok());
  EXPECT_FALSE(sim.LinkUp(a, b));
  EXPECT_FALSE(sim.Send(MakeMsg(&sim, a, b)));
  ASSERT_TRUE(sim.SetLinkUp(a, b, true).ok());
  EXPECT_TRUE(sim.Send(MakeMsg(&sim, a, b)));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0]);
  EXPECT_TRUE(events[1]);
  // Redundant transition: no event.
  ASSERT_TRUE(sim.SetLinkUp(a, b, true).ok());
  EXPECT_EQ(events.size(), 2u);
}

TEST(SimulatorTest, SetLinkUpUnknownLinkErrors) {
  Simulator sim;
  sim.AddNode();
  sim.AddNode();
  EXPECT_FALSE(sim.SetLinkUp(0, 1, false).ok());
}

TEST(SimulatorTest, OverlayChannelBypassesTopology) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();
  sim.MarkOverlayChannel("provq", 2 * kMillisecond);
  Time delivered_at = 0;
  sim.RegisterHandler(b, "provq",
                      [&](const Message&) { delivered_at = sim.now(); });
  EXPECT_TRUE(sim.Send(MakeMsg(&sim, a, b, "provq")));
  sim.Run();
  EXPECT_EQ(delivered_at, 2 * kMillisecond);
}

TEST(SimulatorTest, TrafficAccountingPerChannelAndLink) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();
  sim.AddLink(a, b);
  sim.RegisterHandler(b, "tuple", [](const Message&) {});
  sim.Send(MakeMsg(&sim, a, b));
  sim.Send(MakeMsg(&sim, a, b));
  sim.Run();
  // Dense-id accessor and the by-name compatibility view agree.
  const TrafficStats& ts = sim.channel_traffic(sim.InternChannel("tuple"));
  EXPECT_EQ(ts.messages, 2u);
  EXPECT_GT(ts.bytes, 0u);
  auto by_name = sim.ChannelTrafficByName();
  ASSERT_EQ(by_name.count("tuple"), 1u);
  EXPECT_EQ(by_name["tuple"].messages, 2u);
  EXPECT_EQ(by_name["tuple"].bytes, ts.bytes);
  const LinkState* ls = sim.link(a, b);
  ASSERT_NE(ls, nullptr);
  EXPECT_EQ(ls->traffic.messages, 2u);
  EXPECT_EQ(sim.total_traffic().messages, 2u);
  sim.ResetTrafficStats();
  EXPECT_EQ(sim.total_traffic().messages, 0u);
  EXPECT_EQ(sim.link(a, b)->traffic.messages, 0u);
}

TEST(SimulatorTest, LocalDeliveryNotCountedAsTraffic) {
  Simulator sim;
  NodeId a = sim.AddNode();
  sim.RegisterHandler(a, "tuple", [](const Message&) {});
  sim.Send(MakeMsg(&sim, a, a));
  sim.Run();
  EXPECT_EQ(sim.total_traffic().messages, 0u);
}

TEST(SimulatorTest, SchedulingOrderAndTime) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(100, [&] { order.push_back(2); });
  sim.ScheduleAt(50, [&] { order.push_back(1); });
  sim.ScheduleAt(100, [&] { order.push_back(3); });  // FIFO tie-break
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.RunUntil(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) sim.ScheduleAfter(1, recurse);
  };
  sim.ScheduleAfter(1, recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulatorTest, UpNeighbors) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode(), c = sim.AddNode();
  sim.AddLink(a, b);
  sim.AddLink(a, c);
  ASSERT_TRUE(sim.SetLinkUp(a, c, false).ok());
  std::vector<NodeId> nbrs = sim.UpNeighbors(a);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0], b);
}

TEST(SimulatorTest, UpNeighborsCacheInvalidatesOnTopologyChange) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode(), c = sim.AddNode();
  sim.AddLink(a, b);
  EXPECT_EQ(sim.UpNeighbors(a), (std::vector<NodeId>{b}));
  sim.AddLink(a, c);  // topology change after a cached read
  EXPECT_EQ(sim.UpNeighbors(a), (std::vector<NodeId>{b, c}));
  ASSERT_TRUE(sim.SetLinkUp(a, b, false).ok());
  EXPECT_EQ(sim.UpNeighbors(a), (std::vector<NodeId>{c}));
  EXPECT_TRUE(sim.UpNeighbors(b).empty());
  // Out-of-range node: empty, no crash.
  EXPECT_TRUE(sim.UpNeighbors(99).empty());
}

// Satellite (a) regression: an event scheduled in the past must not move
// virtual time backwards. The old code only asserted (a no-op in Release);
// now the time is clamped to `now` and the incident is counted.
TEST(SimulatorTest, ScheduleInPastClampsToNowAndCounts) {
  Simulator sim;
  std::vector<Time> fire_times;
  sim.ScheduleAt(100, [&] {
    // From inside an event at t=100, schedule at t=30 (the past).
    sim.ScheduleAt(30, [&] { fire_times.push_back(sim.now()); });
  });
  sim.Run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], 100u);  // clamped, not time-travelled
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.schedule_in_past(), 1u);
  sim.ResetEventStats();
  EXPECT_EQ(sim.schedule_in_past(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, ScheduleLinkChangeFiresAsPodEvent) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();
  sim.AddLink(a, b);
  sim.ScheduleLinkChange(50, a, b, /*up=*/false);
  sim.ScheduleLinkChange(80, a, b, /*up=*/true);
  sim.ScheduleLinkChange(90, 7, 9, /*up=*/false);  // unknown link: ignored
  sim.RunUntil(60);
  EXPECT_FALSE(sim.LinkUp(a, b));
  sim.Run();
  EXPECT_TRUE(sim.LinkUp(a, b));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, FramePoolRecyclesFrames) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();
  sim.AddLink(a, b);
  int delivered = 0;
  sim.RegisterHandler(b, "tuple", [&](const Message& m) {
    ++delivered;
    EXPECT_EQ(m.batch.size(), 2u);
  });
  ChannelId ch = sim.InternChannel("tuple");
  for (int i = 0; i < 100; ++i) {
    Simulator::FrameRef f = sim.AcquireFrame();
    Message& m = sim.FrameMessage(f);
    m.src = a;
    m.dst = b;
    m.channel = ch;
    m.batch.push_back({Tuple("t", {Value::Address(b), Value::Int(i)}), false, 1});
    m.batch.push_back({Tuple("t", {Value::Address(b), Value::Int(-i)}), true, 1});
    ASSERT_TRUE(sim.SendFrame(f));
    sim.Run();  // deliver before the next send: one frame in flight at a time
  }
  EXPECT_EQ(delivered, 100);
  // Sequential send/deliver cycles reuse one pooled frame, not 100.
  EXPECT_EQ(sim.frame_pool_size(), 1u);
  EXPECT_EQ(sim.frames_in_flight(), 0u);
}

TEST(SimulatorTest, ReleaseUnsentFrameReturnsItToPool) {
  Simulator sim;
  Simulator::FrameRef f = sim.AcquireFrame();
  EXPECT_EQ(sim.frames_in_flight(), 1u);
  sim.ReleaseFrame(f);
  EXPECT_EQ(sim.frames_in_flight(), 0u);
  EXPECT_EQ(sim.AcquireFrame(), f);  // recycled
}

TEST(SimulatorTest, DroppedFrameIsReleased) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();  // no link
  Simulator::FrameRef f = sim.AcquireFrame();
  Message& m = sim.FrameMessage(f);
  m.src = a;
  m.dst = b;
  m.channel = sim.InternChannel("tuple");
  EXPECT_FALSE(sim.SendFrame(f));
  EXPECT_EQ(sim.dropped_messages(), 1u);
  EXPECT_EQ(sim.frames_in_flight(), 0u);
}

// Satellite (c): determinism property — two identical runs over the POD
// event loop produce identical delivery orders, event counts, and traffic,
// including same-time FIFO ordering across frame sends and closures.
TEST(SimulatorTest, DeterministicReplayProperty) {
  auto run = [](std::vector<std::string>* log, TrafficStats* traffic,
                uint64_t* events) {
    Simulator sim;
    NodeId a = sim.AddNode(), b = sim.AddNode(), c = sim.AddNode();
    sim.AddLink(a, b, kMillisecond);
    sim.AddLink(a, c, kMillisecond);
    sim.AddLink(b, c, 2 * kMillisecond);
    auto handler = [&, log](const Message& m) {
      log->push_back("recv@" + std::to_string(m.dst) + ":" +
                     std::to_string(sim.now()) + ":" +
                     std::to_string(m.payload.field(1).as_int()));
      // Same-time cascade: forward once from b to c.
      if (m.dst == 1 && m.payload.field(1).as_int() < 10) {
        Message fwd;
        fwd.src = 1;
        fwd.dst = 2;
        fwd.channel = m.channel;
        fwd.payload = Tuple("ping", {Value::Address(2), Value::Int(100)});
        sim.Send(std::move(fwd));
      }
    };
    sim.RegisterHandler(b, "tuple", handler);
    sim.RegisterHandler(c, "tuple", handler);
    // Mix closures and sends at identical timestamps.
    for (int i = 0; i < 8; ++i) {
      sim.ScheduleAt(10 * kMillisecond, [&sim, log, i] {
        log->push_back("timer:" + std::to_string(i) + ":" +
                       std::to_string(sim.now()));
      });
      sim.Send(MakeMsg(&sim, a, i % 2 == 0 ? b : c));
    }
    sim.ScheduleLinkChange(5 * kMillisecond, a, b, false);
    sim.Run();
    *traffic = sim.total_traffic();
    *events = sim.events_executed();
  };
  std::vector<std::string> log1, log2;
  TrafficStats t1, t2;
  uint64_t e1 = 0, e2 = 0;
  run(&log1, &t1, &e1);
  run(&log2, &t2, &e2);
  EXPECT_FALSE(log1.empty());
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(t1.messages, t2.messages);
  EXPECT_EQ(t1.bytes, t2.bytes);
  EXPECT_EQ(t1.tuples, t2.tuples);
}

TEST(SimulatorTest, HandlerMayMoveTuplesOutOfFrame) {
  Simulator sim;
  NodeId a = sim.AddNode(), b = sim.AddNode();
  sim.AddLink(a, b);
  ValueList stolen;
  sim.RegisterHandler(b, "tuple", [&](Message& m) {
    stolen = std::move(m.payload.mutable_fields());
  });
  sim.Send(MakeMsg(&sim, a, b));
  sim.Run();
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[1].as_int(), 1);
}

// Conservation invariant: at quiescence every frame that entered SendFrame
// is accounted exactly once per channel —
//   sent == delivered + dropped_link + dropped_fault
// with injected fault drops and down-node swallows counted separately
// (dropped_fault) from sender-visible no-up-link drops (dropped_link).
TEST(SimulatorTest, FaultConservationPerChannel) {
  SimulatorOptions opts;
  opts.faults.seed = 42;
  opts.faults.spec.drop_per_10k = 1500;
  opts.faults.spec.dup_per_10k = 1000;
  opts.faults.spec.delay_per_10k = 800;
  opts.faults.spec.delay_jitter_max = 500;
  opts.faults.spec.reorder_per_10k = 500;
  opts.faults.spec.reorder_hold = 2 * kMillisecond;
  Simulator sim(opts);
  NodeId a = sim.AddNode(), b = sim.AddNode(), c = sim.AddNode();
  sim.AddLink(a, b);
  sim.AddLink(a, c);
  uint64_t handled_tuple = 0, handled_ctrl = 0;
  for (NodeId n : {b, c}) {
    sim.RegisterHandler(n, "tuple", [&](const Message&) { ++handled_tuple; });
    sim.RegisterHandler(n, "ctrl", [&](const Message&) { ++handled_ctrl; });
  }
  for (int i = 0; i < 300; ++i) {
    sim.Send(MakeMsg(&sim, a, i % 2 == 0 ? b : c));
  }
  for (int i = 0; i < 100; ++i) {
    sim.Send(MakeMsg(&sim, a, i % 2 == 0 ? b : c, "ctrl"));
  }
  sim.Run();
  // Sender-visible link drops: link a-c down, sends fail.
  ASSERT_TRUE(sim.SetLinkUp(a, c, false).ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(sim.Send(MakeMsg(&sim, a, c)));
  }
  // Paused destination: frames travel but are consumed by the fault layer.
  ASSERT_TRUE(sim.SetNodeUp(b, false, /*with_links=*/false).ok());
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(sim.Send(MakeMsg(&sim, a, b)));
  }
  sim.Run();
  ASSERT_TRUE(sim.SetNodeUp(b, true).ok());

  auto by_name = sim.ChannelFaultStatsByName();
  ASSERT_EQ(by_name.count("tuple"), 1u);
  ASSERT_EQ(by_name.count("ctrl"), 1u);
  const ChannelFaultStats& ts = by_name["tuple"];
  const ChannelFaultStats& cs = by_name["ctrl"];
  EXPECT_EQ(ts.sent, ts.delivered + ts.dropped_link + ts.dropped_fault);
  EXPECT_EQ(cs.sent, cs.delivered + cs.dropped_link + cs.dropped_fault);
  // Handlers ran exactly once per delivered frame (swallowed ones never
  // reach a handler).
  EXPECT_EQ(ts.delivered, handled_tuple);
  EXPECT_EQ(cs.delivered, handled_ctrl);
  EXPECT_EQ(ts.dropped_link, 20u);
  EXPECT_EQ(cs.dropped_link, 0u);
  // The paused-node swallows guarantee fault drops even if the seeded drop
  // rate happened to fire rarely.
  EXPECT_GE(ts.dropped_fault, 30u);
  EXPECT_GT(ts.duplicated, 0u);
  EXPECT_GT(ts.delayed, 0u);
  // Duplicates are their own sends: sent exceeds the frames we issued.
  EXPECT_EQ(ts.sent, 350u + ts.duplicated);
  const ChannelFaultStats total = sim.total_fault_stats();
  EXPECT_EQ(total.sent,
            total.delivered + total.dropped_link + total.dropped_fault);
  EXPECT_EQ(total.sent, ts.sent + cs.sent);
}

// Pin the in-flight semantics of a link going down: frames already in
// flight when the link drops are still delivered (they left the NIC);
// only subsequent sends are dropped. Identical at 1 and 4 threads.
TEST(SimulatorTest, LinkDownWithFramesInFlightStillDelivers) {
  auto run = [](unsigned threads, std::vector<std::string>* log,
                uint64_t* dropped) {
    SimulatorOptions opts;
    opts.num_threads = threads;
    Simulator sim(opts);
    NodeId a = sim.AddNode(), b = sim.AddNode();
    sim.AddLink(a, b, 5 * kMillisecond);
    sim.RegisterHandler(b, "tuple", [&, log](Message& m) {
      log->push_back("recv:" + std::to_string(sim.now()) + ":" +
                     std::to_string(m.payload.field(1).as_int()));
    });
    // Two frames leave the NIC at t=0; the link drops at t=2ms while both
    // are in flight.
    sim.Send(MakeMsg(&sim, a, b));
    sim.Send(MakeMsg(&sim, a, b));
    sim.ScheduleLinkChange(2 * kMillisecond, a, b, /*up=*/false);
    // A send issued after the drop (t=3ms) must fail.
    sim.ScheduleAt(3 * kMillisecond, [&] {
      EXPECT_FALSE(sim.Send(MakeMsg(&sim, a, b)));
    });
    sim.Run();
    *dropped = sim.dropped_messages();
  };
  std::vector<std::string> log1, log4;
  uint64_t d1 = 0, d4 = 0;
  run(1, &log1, &d1);
  run(4, &log4, &d4);
  ASSERT_EQ(log1.size(), 2u);  // both in-flight frames delivered
  EXPECT_EQ(log1[0], "recv:5000:1");
  EXPECT_EQ(d1, 1u);  // only the post-drop send was lost
  EXPECT_EQ(log1, log4);
  EXPECT_EQ(d1, d4);
}

// --- Wave dispatch boundaries ---------------------------------------------
//
// A source node sends one frame to each of `dsts` over equal-latency links,
// so they arrive as one wave. Each destination's handler logs the delivery
// in its node's log, forwards one frame to `sink` and schedules a closure.
// The forwards arrive at the sink as a second wave in the seq order the
// sends were given (the barrier replay order in threaded mode), and the
// closures fire in the seq order they were scheduled in, so both logs pin
// event seq order against the serial loop.
class WaveWorld {
 public:
  WaveWorld(unsigned threads, const std::vector<NodeId>& dsts, NodeId sink)
      : sim_(Options(threads)), dsts_(dsts), sink_(sink) {
    NodeId top = sink;
    for (NodeId d : dsts) top = std::max(top, d);
    src_ = top + 1;
    while (sim_.node_count() <= src_) sim_.AddNode();
    logs_.resize(sim_.node_count());
    threads_.resize(sim_.node_count());
    // Interned up front: handlers on pool workers must not intern.
    channel_ = sim_.InternChannel("tuple");
    for (NodeId d : dsts) {
      sim_.AddLink(src_, d, kMillisecond);
      sim_.AddLink(d, sink, 2 * kMillisecond);
    }
    for (NodeId n = 0; n < sim_.node_count(); ++n) {
      sim_.RegisterHandler(n, "tuple", [this, n](Message& m) { Handle(n, m); });
    }
  }

  /// Sends the first wave, in reverse order of `dsts` so that seq order is
  /// not node order.
  void SendWave() {
    for (size_t i = dsts_.size(); i-- > 0;) {
      Message m = MakeMsg(&sim_, src_, dsts_[i]);
      m.payload = Tuple("ping", {Value::Address(dsts_[i]),
                                 Value::Int(static_cast<int64_t>(i))});
      EXPECT_TRUE(sim_.Send(std::move(m)));
    }
  }

  /// Makes the first handler to run call Stop().
  void StopInFirstHandler() { stop_pending_ = true; }

  Simulator& sim() { return sim_; }
  const std::vector<std::vector<std::string>>& logs() const { return logs_; }
  const std::vector<std::string>& closure_log() const { return closures_; }
  /// Threads that ran handlers of these nodes.
  std::set<std::thread::id> ThreadsOf(const std::vector<NodeId>& nodes) const {
    std::set<std::thread::id> out;
    for (NodeId n : nodes) out.insert(threads_[n].begin(), threads_[n].end());
    return out;
  }

 private:
  static SimulatorOptions Options(unsigned threads) {
    SimulatorOptions opts;
    opts.num_threads = threads;
    return opts;
  }

  void Handle(NodeId n, Message& m) {
    const int64_t v = m.payload.field(1).as_int();
    logs_[n].push_back(std::to_string(sim_.now()) + ":" + std::to_string(v));
    threads_[n].insert(std::this_thread::get_id());
    if (n == sink_) return;
    if (stop_pending_) {
      // Only the first handler of a wave that runs on the coordinator
      // reads this, so no other thread ever touches it.
      stop_pending_ = false;
      sim_.Stop();
    }
    Message fwd;
    fwd.src = n;
    fwd.dst = sink_;
    fwd.channel = channel_;
    fwd.payload = Tuple("ping", {Value::Address(sink_), Value::Int(v + 1000)});
    sim_.Send(std::move(fwd));
    sim_.ScheduleAfter(5 * kMillisecond, [this, n, v] {
      closures_.push_back(std::to_string(sim_.now()) + ":n" +
                          std::to_string(n) + ":" + std::to_string(v));
    });
  }

  Simulator sim_;
  std::vector<NodeId> dsts_;
  NodeId sink_;
  NodeId src_ = 0;
  ChannelId channel_ = 0;
  bool stop_pending_ = false;
  // Indexed by node: a node's handlers run on one thread per wave.
  std::vector<std::vector<std::string>> logs_;
  std::vector<std::set<std::thread::id>> threads_;
  std::vector<std::string> closures_;  // closures run on the coordinator
};

/// Runs the world to quiescence and checks it against threads = 1: per-node
/// delivery logs, closure (seq) order, traffic and events_executed().
/// Returns the threaded world's parallel_waves().
uint64_t ExpectMatchesSerial(unsigned threads, const std::vector<NodeId>& dsts,
                             NodeId sink, WaveWorld* world) {
  WaveWorld serial(1, dsts, sink);
  serial.SendWave();
  serial.sim().Run();
  EXPECT_EQ(serial.sim().parallel_waves(), 0u);
  world->SendWave();
  world->sim().Run();
  EXPECT_EQ(world->logs(), serial.logs()) << "threads=" << threads;
  EXPECT_EQ(world->closure_log(), serial.closure_log());
  EXPECT_EQ(world->logs()[sink].size(), dsts.size());
  EXPECT_EQ(world->closure_log().size(), dsts.size());
  const TrafficStats t = world->sim().total_traffic();
  const TrafficStats st = serial.sim().total_traffic();
  EXPECT_EQ(t.messages, st.messages);
  EXPECT_EQ(t.bytes, st.bytes);
  EXPECT_EQ(t.tuples, st.tuples);
  EXPECT_EQ(world->sim().events_executed(), serial.sim().events_executed());
  EXPECT_EQ(world->sim().events_executed(), 3 * dsts.size());
  return world->sim().parallel_waves();
}

std::vector<NodeId> NodeRange(NodeId first, size_t count, NodeId step = 1) {
  std::vector<NodeId> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(first + static_cast<NodeId>(i) * step);
  }
  return out;
}

TEST(SimulatorWaveTest, WaveJustUnderThresholdRunsInline) {
  const std::vector<NodeId> dsts =
      NodeRange(1, Simulator::kMinParallelWave - 1);
  WaveWorld world(4, dsts, /*sink=*/0);
  EXPECT_EQ(ExpectMatchesSerial(4, dsts, 0, &world), 0u);
  // Every handler ran on the calling thread.
  std::vector<NodeId> all = dsts;
  all.push_back(0);
  EXPECT_EQ(world.ThreadsOf(all),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(SimulatorWaveTest, WaveAtThresholdGoesThroughBarrier) {
  const std::vector<NodeId> dsts = NodeRange(1, Simulator::kMinParallelWave);
  WaveWorld world(4, dsts, /*sink=*/0);
  // The first wave and the sink's wave of forwards are both 16 wide.
  EXPECT_EQ(ExpectMatchesSerial(4, dsts, 0, &world), 2u);
  // Every shard had work: four threads ran handlers, and the nodes of
  // shard 0 ran on the coordinator.
  EXPECT_EQ(world.ThreadsOf(dsts).size(), 4u);
  EXPECT_EQ(world.ThreadsOf({4, 8, 12, 16}),
            std::set<std::thread::id>{std::this_thread::get_id()});
  world.sim().ResetEventStats();
  EXPECT_EQ(world.sim().parallel_waves(), 0u);
}

TEST(SimulatorWaveTest, WaveAllInShardZeroRunsOnCoordinatorOnly) {
  // Nodes 4, 8, ..., 64 and sink 0 are all in shard 0 of 4.
  const std::vector<NodeId> dsts = NodeRange(4, 16, 4);
  WaveWorld world(4, dsts, /*sink=*/0);
  EXPECT_EQ(ExpectMatchesSerial(4, dsts, 0, &world), 2u);
  std::vector<NodeId> all = dsts;
  all.push_back(0);
  EXPECT_EQ(world.ThreadsOf(all),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(SimulatorWaveTest, WaveAllInOnePoolShardRunsOnThatWorkerOnly) {
  // Nodes 2, 6, ..., 62 and sink 66 are all in shard 2 of 4.
  const std::vector<NodeId> dsts = NodeRange(2, 16, 4);
  WaveWorld world(4, dsts, /*sink=*/66);
  EXPECT_EQ(ExpectMatchesSerial(4, dsts, 66, &world), 2u);
  std::vector<NodeId> all = dsts;
  all.push_back(66);
  const std::set<std::thread::id> ran = world.ThreadsOf(all);
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_NE(*ran.begin(), std::this_thread::get_id());
}

TEST(SimulatorWaveTest, TwoThreadsLeaveOnePoolWorker) {
  const std::vector<NodeId> dsts = NodeRange(1, Simulator::kMinParallelWave);
  WaveWorld world(2, dsts, /*sink=*/0);
  EXPECT_EQ(ExpectMatchesSerial(2, dsts, 0, &world), 2u);
  EXPECT_EQ(world.ThreadsOf(dsts).size(), 2u);
  EXPECT_EQ(world.ThreadsOf(NodeRange(2, 8, 2)),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(SimulatorWaveTest, StopInsideInlineWaveTakesEffectAtWaveBoundary) {
  const std::vector<NodeId> dsts = NodeRange(1, 3);
  WaveWorld serial(1, dsts, /*sink=*/0);
  serial.StopInFirstHandler();
  serial.SendWave();
  serial.sim().Run();
  // The serial loop stops right after the handler that called Stop().
  EXPECT_EQ(serial.sim().events_executed(), 1u);

  WaveWorld world(4, dsts, /*sink=*/0);
  world.StopInFirstHandler();
  world.SendWave();
  world.sim().Run();
  // Threaded: the whole inline wave ran, and nothing after it.
  EXPECT_EQ(world.sim().events_executed(), dsts.size());
  EXPECT_EQ(world.sim().parallel_waves(), 0u);
  for (NodeId d : dsts) EXPECT_EQ(world.logs()[d].size(), 1u);
  EXPECT_TRUE(world.logs()[0].empty());
  EXPECT_TRUE(world.closure_log().empty());
  EXPECT_EQ(world.sim().now(), kMillisecond);

  // Resumed, both end where an uninterrupted serial run ends.
  serial.sim().Run();
  world.sim().Run();
  EXPECT_EQ(world.logs(), serial.logs());
  EXPECT_EQ(world.closure_log(), serial.closure_log());
  EXPECT_EQ(world.sim().events_executed(), serial.sim().events_executed());
  EXPECT_EQ(world.sim().total_traffic().bytes,
            serial.sim().total_traffic().bytes);
}

}  // namespace
}  // namespace net
}  // namespace nettrails
