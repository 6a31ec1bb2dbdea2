// Discrete-event network simulator: the ns-3 substitute NetTrails executes
// on. Provides a virtual clock, latency-modelled message delivery between
// nodes, topology dynamics (links up/down), and the per-link / per-channel
// traffic accounting that the query-optimization experiments report.
//
// The event loop is allocation-free on the message path: events are tagged
// POD records (deliver-message / timer-closure / link-change), messages
// live in a slab-allocated, free-listed frame pool whose frames keep their
// internal buffers across reuse, and channels are interned to dense
// ChannelIds so neither sending nor delivering touches a std::string or a
// string-keyed map. The old closure-based ScheduleAt survives as a
// compatibility shim for tests/tools off the hot path (closures are pooled
// slots; the std::function itself may still allocate its capture).
//
// With SimulatorOptions::num_threads > 1 the loop runs the deterministic
// epoch-barrier protocol on wide waves. A wave is a contiguous run of
// same-time delivery events. One with fewer than kMinParallelWave
// deliveries runs inline on the coordinator through the serial path; a
// wider one is partitioned by destination node into num_threads shards.
// The coordinator works shard 0 itself and wakes only the pool workers
// whose shards are non-empty. Handlers record their side effects (sends,
// timers, link changes) into per-worker op logs backed by per-worker frame
// arenas, and at the barrier the coordinator replays the logs in canonical
// event-seq order, reproducing the serial loop's event sequencing
// bit-for-bit. See docs/ARCHITECTURE.md ("Deterministic parallel
// execution") for the full protocol and its invariants.
#ifndef NETTRAILS_NET_SIMULATOR_H_
#define NETTRAILS_NET_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/flat_hash.h"
#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/common/value.h"
#include "src/net/fault.h"

namespace nettrails {
namespace net {

/// Virtual time in microseconds.
using Time = uint64_t;

inline constexpr Time kMillisecond = 1000;
inline constexpr Time kSecond = 1000 * kMillisecond;

/// Dense id of an interned message channel (see Simulator::InternChannel).
using ChannelId = uint32_t;

/// One tuple delta inside a batched "tuple" message.
struct BatchedTuple {
  Tuple payload;
  bool is_delete = false;
  int64_t multiplicity = 1;
};

/// A message in flight between two nodes. The payload is a tuple; every
/// NetTrails subsystem (rule deltas, provenance queries, BGP updates)
/// serializes into tuples, so one message type covers the whole platform.
///
/// An engine coalesces the deltas it ships to one destination during one
/// drain into frames of up to EngineOptions::batch_size tuples (`batch`
/// non-empty, `payload` unused): the 17-byte-plus-channel header is paid
/// once per frame instead of once per tuple. A frame holding a single
/// delta ships in the legacy single-tuple shape instead. Receivers unpack
/// entries in order, so per-destination delta order is identical to
/// per-tuple shipping.
///
/// Messages on the hot path live in the simulator's frame pool
/// (AcquireFrame/SendFrame): the channel is an interned dense id and the
/// batch vector keeps its capacity across frame reuse, so a converged
/// engine ships deltas without allocating.
struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  /// Interned dispatch key at the receiver, e.g. "tuple", "provq", "bgp"
  /// (Simulator::InternChannel).
  ChannelId channel = 0;
  Tuple payload;
  /// True for a retraction (delete delta) on the "tuple" channel.
  bool is_delete = false;
  /// Derivation-count delta carried by a "tuple" message (bag semantics).
  int64_t multiplicity = 1;
  /// Batched tuple deltas (empty for a single-tuple message).
  std::vector<BatchedTuple> batch;

  size_t TupleCount() const { return batch.empty() ? 1 : batch.size(); }

  /// Wire size used by the traffic accounting; `channel_len` is the length
  /// of the channel's name (the simulator owns the interned name). Each
  /// batched entry pays its serialized tuple plus a 9-byte (flags +
  /// multiplicity) record header; the message header is shared across the
  /// frame.
  size_t SerializedSize(size_t channel_len) const {
    if (batch.empty()) {
      return 16 + channel_len + payload.SerializedSize() + 1;
    }
    size_t n = 16 + channel_len + 4;  // shared header + entry count
    for (const BatchedTuple& b : batch) {
      n += b.payload.SerializedSize() + 9;
    }
    return n;
  }
};

/// Cumulative traffic counters. `tuples` counts payload tuples, so with
/// batched framing messages <= tuples (the gap is the framing win).
struct TrafficStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t tuples = 0;

  void Add(size_t nbytes, size_t ntuples = 1) {
    ++messages;
    bytes += nbytes;
    tuples += ntuples;
  }
};

/// State of one undirected link.
struct LinkState {
  Time latency = kMillisecond;
  bool up = true;
  TrafficStats traffic;
};

/// Handler invoked when a message is delivered to a node on a channel. The
/// message is mutable: delivery transfers ownership of the frame's payload
/// for the duration of the call, so handlers may move tuples out instead of
/// copying (the frame is recycled after the handler returns).
using MessageHandler = std::function<void(Message&)>;

/// Observer of link up/down events: (a, b, up).
using LinkObserver = std::function<void(NodeId, NodeId, bool)>;

/// Observer of node up/down events: (node, up).
using NodeObserver = std::function<void(NodeId, bool)>;

/// Execution options for the simulator event loop.
struct SimulatorOptions {
  /// Worker threads for the epoch-barrier parallel loop, the calling
  /// thread included. 1 (the default) runs the exact legacy serial loop;
  /// N > 1 shards each same-time delivery wave of at least
  /// Simulator::kMinParallelWave deliveries across N workers (narrower
  /// waves run inline) while staying bit-identical to serial execution
  /// (fixpoints, provenance, traffic, event ordering).
  unsigned num_threads = 1;
  /// Seeded fault schedule (drop/duplicate/delay/reorder + node events).
  /// Installed at construction when non-empty; see InstallFaultPlan.
  FaultPlan faults;
};

/// Discrete-event simulator. Owns virtual time; all scheduling happens
/// through it, so runs are deterministic — including in threaded mode,
/// whose wave/barrier protocol replays side effects in the serial order.
class Simulator {
 public:
  /// Handle to a pooled message frame. Plain indices address the shared
  /// slab; refs with kWorkerFrameBit set address a worker arena (only ever
  /// seen by code running inside a wave and by the barrier replay).
  using FrameRef = uint32_t;

  /// Narrowest wave that goes through the barrier in threaded mode. A wave
  /// of fewer deliveries runs inline on the coordinator through the serial
  /// path, because waking workers and meeting at the barrier costs more
  /// than such a wave's handlers. The choice depends on the wave's size
  /// alone, so results are bit-identical at any thread count. 16 keeps the
  /// provenance-query workload's one- and two-message waves off the
  /// barrier while the link-churn workload's waves (median ~44
  /// deliveries) stay parallel.
  static constexpr size_t kMinParallelWave = 16;

  Simulator() = default;
  explicit Simulator(const SimulatorOptions& opts) {
    set_num_threads(opts.num_threads);
    if (!opts.faults.Empty()) InstallFaultPlan(opts.faults);
  }
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Worker threads used by Run (1 = serial loop).
  unsigned num_threads() const { return num_threads_; }
  /// Reconfigures the worker count. Must not be called from inside Run().
  /// Joins any existing pool; the new pool starts lazily on the next wave.
  void set_num_threads(unsigned n);

  /// Adds a node and returns its id (ids are dense, starting at 0).
  NodeId AddNode();

  size_t node_count() const { return node_count_; }

  /// Adds an undirected link. No-op (latency update) if it already exists.
  void AddLink(NodeId a, NodeId b, Time latency = kMillisecond);

  /// Marks a link up or down and notifies observers. Messages in flight on
  /// a link that goes down are still delivered (they already left the NIC);
  /// subsequent sends are dropped.
  Status SetLinkUp(NodeId a, NodeId b, bool up);

  bool HasLink(NodeId a, NodeId b) const;
  bool LinkUp(NodeId a, NodeId b) const;

  /// All links as (a, b) with a < b, sorted.
  std::vector<std::pair<NodeId, NodeId>> Links() const;

  /// Neighbors of `n` over up links, ascending. Served from a cached
  /// adjacency (rebuilt lazily after AddLink/SetLinkUp); the reference is
  /// valid until the next topology change.
  const std::vector<NodeId>& UpNeighbors(NodeId n) const;

  void AddLinkObserver(LinkObserver obs) {
    link_observers_.push_back(std::move(obs));
  }

  // --- Fault injection and node lifecycle (see fault.h) -------------------

  /// Installs (or replaces) the fault plan: resets the fault sequence
  /// counter and schedules the plan's node events as POD events. Message
  /// faults apply to sends in the plan's [start, heal_time) window; the
  /// per-flow FIFO clamp applies to every remote send while a plan is
  /// installed. Must not be called from inside Run().
  void InstallFaultPlan(const FaultPlan& plan);
  bool fault_plan_installed() const { return plan_installed_; }

  /// Marks a node down (crashed/paused) or up. While down, frames sent by
  /// the node are swallowed at the NIC and frames delivered to it are
  /// consumed by the fault layer (both count as dropped_fault on their
  /// channel); handlers never run. `with_links` on a down transition also
  /// takes the node's up links down (observers fire — neighbors see the
  /// crash as link failures) and records them; an up transition restores
  /// exactly the recorded links. Node observers fire on every transition.
  Status SetNodeUp(NodeId node, bool up, bool with_links = true);
  /// True unless the node was taken down by SetNodeUp / a node event.
  bool NodeUp(NodeId node) const {
    return !(node < node_down_.size() && node_down_[node]);
  }
  /// Schedules a node up/down transition at time `t` as a POD event.
  void ScheduleNodeChange(Time t, NodeId node, bool up,
                          bool with_links = true);
  void AddNodeObserver(NodeObserver obs) {
    node_observers_.push_back(std::move(obs));
  }

  /// Per-channel fault/conservation counters (zero stats if unknown).
  const ChannelFaultStats& channel_fault_stats(ChannelId ch) const;
  /// Fault counters by channel name (all-zero channels omitted).
  std::map<std::string, ChannelFaultStats> ChannelFaultStatsByName() const;
  /// Sum over all channels. At quiescence (after Run() drains the queue)
  /// sent == delivered + dropped_link + dropped_fault.
  ChannelFaultStats total_fault_stats() const;

  /// Interns a channel name to its dense id (idempotent). Senders cache the
  /// id once and never touch the string again.
  ChannelId InternChannel(const std::string& name);
  /// Name of an interned channel.
  const std::string& ChannelName(ChannelId ch) const {
    return channel_names_[ch];
  }
  size_t channel_count() const { return channel_names_.size(); }

  /// Registers the handler for (node, channel). Overwrites any previous.
  void RegisterHandler(NodeId node, const std::string& channel,
                       MessageHandler handler);

  /// Declares a channel as an overlay channel: messages on it may travel
  /// between any two nodes (as over IP routing in a deployment) with
  /// `latency`, independent of the simulated link topology. Used by the
  /// distributed provenance query engine, whose requests and replies hop
  /// between arbitrary rule-execution locations.
  void MarkOverlayChannel(const std::string& channel,
                          Time latency = kMillisecond);

  // --- Pooled frame sending (the zero-allocation hot path) ---------------

  /// Acquires a frame from the pool. Header fields are reset; payload and
  /// batch are empty but keep their buffers from previous uses. The frame
  /// must subsequently be passed to SendFrame or ReleaseFrame.
  FrameRef AcquireFrame();
  /// The frame's message, for filling in (valid until SendFrame/Release).
  Message& FrameMessage(FrameRef f) {
    if (f & kWorkerFrameBit) return WorkerFrameMessage(f);
    return frames_[f];
  }
  /// Sends a pooled frame: local delivery (src == dst) is immediate at
  /// now+1us and needs no link; remote delivery requires an up link (or an
  /// overlay channel). Returns false if dropped. The frame is consumed
  /// either way (released back to the pool on drop, after delivery
  /// otherwise).
  bool SendFrame(FrameRef f);
  /// Returns an acquired-but-unsent frame to the pool.
  void ReleaseFrame(FrameRef f);

  /// Frames in the pool slab (diagnostic: bounded by the maximum number of
  /// messages simultaneously in flight, not by messages sent).
  size_t frame_pool_size() const { return frames_.size(); }
  /// Frames currently acquired or in flight.
  size_t frames_in_flight() const { return frames_.size() - free_frames_.size(); }

  /// Compatibility shim: moves `msg` into a pooled frame and sends it.
  /// `msg.channel` must already be interned.
  bool Send(Message msg);

  // --- Scheduling --------------------------------------------------------

  /// Schedules `fn` at absolute virtual time `t`. A `t` in the past is
  /// clamped to now and counted in schedule_in_past() — a hard guard, not
  /// an assert, so Release builds cannot move time backwards. Compatibility
  /// shim for tests/tools: closures are pooled, but the std::function's
  /// capture may allocate; hot-path work uses POD events instead.
  void ScheduleAt(Time t, std::function<void()> fn);
  /// Schedules `fn` after `delay`.
  void ScheduleAfter(Time delay, std::function<void()> fn);
  /// Schedules a link up/down transition at time `t` as a POD event (no
  /// closure). Unknown links are ignored at fire time.
  void ScheduleLinkChange(Time t, NodeId a, NodeId b, bool up);

  /// Events whose requested time was in the past and were clamped to now.
  uint64_t schedule_in_past() const { return schedule_in_past_; }

  /// Runs until the event queue drains or `Stop()` is called.
  void Run();
  /// Runs until virtual time `t` (events at exactly t are executed).
  void RunUntil(Time t);
  /// Runs for `dt` more virtual time.
  void RunFor(Time dt) { RunUntil(now_ + dt); }
  /// Stops the loop. In threaded mode a Stop() issued from inside a
  /// handler takes effect at the wave boundary, not mid-wave.
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

  Time now() const { return now_; }

  // --- Accounting --------------------------------------------------------

  /// Traffic of one channel (zero stats if the id is unknown).
  const TrafficStats& channel_traffic(ChannelId ch) const;
  /// Traffic aggregated per channel name (channels with no traffic are
  /// omitted). Built on demand — for tests and reports, not hot paths.
  std::map<std::string, TrafficStats> ChannelTrafficByName() const;
  /// Total over all channels.
  TrafficStats total_traffic() const;
  /// Messages dropped for lack of an up link, over all channels.
  uint64_t dropped_messages() const {
    return total_fault_stats().dropped_link;
  }
  /// Per-link traffic. Key has a < b.
  const LinkState* link(NodeId a, NodeId b) const;

  /// Zeroes all traffic counters (links, channels, drops). Used to isolate
  /// the traffic of a query phase from setup traffic. Event-loop counters
  /// are a separate concern: see ResetEventStats().
  void ResetTrafficStats();
  /// Zeroes the event-loop counters (events_executed, schedule_in_past,
  /// parallel_waves) so bench phases can isolate event counts the same way
  /// they isolate traffic.
  void ResetEventStats();

  /// Number of events executed so far (debug/bench metric).
  uint64_t events_executed() const { return events_executed_; }
  /// Delivery waves that went through the worker barrier (always 0 at one
  /// thread; narrow waves run inline and are not counted).
  uint64_t parallel_waves() const { return parallel_waves_; }

 private:
  /// Tagged POD event record. Delivery events reference a pooled frame by
  /// index; timer events reference a pooled closure slot; link-change
  /// events carry their payload inline. sizeof(Event) is two cache words —
  /// the priority queue never touches the heap per event.
  struct Event {
    Time time;
    uint64_t seq;  // FIFO tie-break for same-time events
    enum class Kind : uint8_t {
      kDeliver,
      kClosure,
      kLinkChange,
      kNodeChange
    } kind;
    union {
      FrameRef frame;    // kDeliver
      uint32_t closure;  // kClosure
      struct {
        NodeId a, b;
        bool up;
      } link;  // kLinkChange
      struct {
        NodeId id;
        bool up;
        bool links;
      } node;  // kNodeChange
    };
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Packed undirected-link key: (min(a,b) << 32) | max(a,b).
  static uint64_t LinkKey(NodeId a, NodeId b) {
    NodeId lo = a < b ? a : b;
    NodeId hi = a < b ? b : a;
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }

  /// Pushes an event, clamping past times to now (schedule_in_past guard).
  void Push(Time t, Event ev);
  void Execute(const Event& ev);
  void Deliver(FrameRef f);
  void RebuildAdjacency() const;
  /// Per-channel fault stats slot, grown on demand (coordinator only).
  ChannelFaultStats& FaultStatsFor(ChannelId ch);
  /// Delivery-side conservation accounting: delivered, or dropped_fault
  /// when the destination node is down. Coordinator only (the serial
  /// Deliver and the wave barrier both run there).
  void AccountDelivery(const Message& msg);
  /// The fault spec applying to this send: link override, else channel
  /// override, else the plan default. Never consulted for local sends.
  const FaultSpec& EffectiveSpec(const Message& msg) const;
  /// Per-flow FIFO clamp (active while a plan is installed): delivery
  /// times on one (src, dst) flow are monotone in send order.
  Time ClampFlowArrival(NodeId src, NodeId dst, Time arrival);
  /// Shared body of Run/RunUntil: pops events in (time, seq) order; in
  /// threaded mode, contiguous same-time delivery runs become waves.
  void RunLoop(Time until, bool bounded);

  // --- Epoch-barrier parallel execution ---------------------------------
  //
  // A wave is the maximal contiguous run of kDeliver events at one virtual
  // time popped in seq order (bounded by the first non-delivery event or
  // time advance — closures and link changes always execute serially, at
  // their exact seq position). A wave narrower than kMinParallelWave runs
  // inline through Execute. A wider one is partitioned by destination
  // node (dst % workers), so each node's engine is touched by exactly one
  // worker per wave. The coordinator works shard 0 and the pool threads
  // the rest; each handler runs with tls_ctx_ pointing at its shard's
  // context, which reroutes AcquireFrame/SendFrame/
  // ScheduleAt/ScheduleLinkChange into a per-worker frame arena and op
  // log instead of the shared pool and event queue. During a wave the
  // shared structures (links_, adjacency_, handlers_, frames_ of the
  // delivered events, now_) are frozen and read-only.
  //
  // At the barrier the coordinator replays the op logs in canonical order:
  // ascending trigger seq (the seq of the delivery whose handler issued
  // the op), then issue order within a handler. That is exactly the order
  // the serial loop produces side effects in, so seq_ assignment, queue
  // contents, traffic accounting, and drop decisions are bit-identical to
  // threads=1. Only frame-pool indices may differ (release/acquire
  // interleaving changes), which nothing observable depends on.

  /// High bit marks a FrameRef as worker-arena-resident:
  /// [31] flag, [30..24] worker id, [23..0] arena index.
  static constexpr FrameRef kWorkerFrameBit = 0x80000000u;
  static constexpr unsigned kMaxWorkers = 128;  // worker id field width

  /// One side effect recorded by a handler running inside a wave.
  struct WorkerOp {
    enum class Kind : uint8_t { kSend, kClosure, kLinkChange, kNodeChange };
    Kind kind;
    bool up = false;           // kLinkChange / kNodeChange
    bool links = true;         // kNodeChange: take/restore links too
    NodeId a = 0, b = 0;       // kLinkChange / kNodeChange (a = node)
    FrameRef frame = 0;        // kSend
    uint64_t trigger_seq = 0;  // seq of the delivery that issued this op
    Time time = 0;             // kClosure / kLinkChange / kNodeChange time
    std::function<void()> fn;  // kClosure
  };

  struct WorkerCtx {
    uint32_t id = 0;
    uint64_t trigger_seq = 0;  // seq of the event whose handler is running
    // Arena mirroring the shared frame pool (deque: frames never move).
    std::deque<Message> frames;
    std::vector<FrameRef> free_frames;
    std::vector<WorkerOp> ops;  // this wave's log, in issue order
    std::vector<Event> events;  // this wave's shard, in seq order
    // Wake ticket for a pool worker, guarded by pool_mu_. Set only when
    // the shard is non-empty, so idle workers sleep through the wave.
    bool wake = false;
    std::condition_variable wake_cv;
  };

  Message& WorkerFrameMessage(FrameRef f) {
    return workers_[(f >> 24) & 0x7fu]->frames[f & 0xffffffu];
  }
  FrameRef WorkerAcquireFrame(WorkerCtx* ctx);
  void WorkerReleaseFrame(FrameRef f);
  bool WorkerSendFrame(WorkerCtx* ctx, FrameRef f);
  void ExecuteWave();
  /// Runs the handlers of ctx's shard in seq order (the calling thread's
  /// tls_ctx_ must be ctx).
  void DeliverShard(WorkerCtx* ctx);
  void ReplayOps();
  void ApplyOp(WorkerOp op);
  void EnsureWorkers();
  void StopWorkers();
  void WorkerMain(WorkerCtx* ctx);

  unsigned num_threads_ = 1;
  std::vector<Event> wave_;  // scratch: the delivery run being executed
  std::vector<size_t> replay_cursor_;  // scratch: ReplayOps merge cursors
  /// One context per shard; workers_[0] is worked by the coordinator.
  std::vector<std::unique_ptr<WorkerCtx>> workers_;
  /// Worker context of the calling thread: nullptr on the coordinator
  /// except while it works shard 0. Routes the simulator's mutating entry
  /// points while a wave runs.
  static thread_local WorkerCtx* tls_ctx_;
  std::vector<std::thread> threads_;  // pool thread i works workers_[i+1]
  std::mutex pool_mu_;
  std::condition_variable done_cv_;  // coordinator waits for the barrier
  unsigned busy_ = 0;                // woken workers still inside the wave
  bool shutdown_ = false;
  uint64_t parallel_waves_ = 0;

  Time now_ = 0;
  uint64_t seq_ = 0;
  std::atomic<bool> stopped_{false};
  size_t node_count_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t schedule_in_past_ = 0;

  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;

  // Message frame pool: slab of reusable Messages + free list. A deque so
  // frames never move (FrameMessage references stay valid while in use).
  std::deque<Message> frames_;
  std::vector<FrameRef> free_frames_;

  // Pooled closure slots for the ScheduleAt shim.
  std::vector<std::function<void()>> closures_;
  std::vector<uint32_t> free_closures_;

  // Links: flat hash on the packed (min,max) key.
  FlatHashMap64<LinkState> links_;

  // Lazily rebuilt per-node up-neighbor lists (ascending), invalidated by
  // AddLink/SetLinkUp.
  mutable std::vector<std::vector<NodeId>> adjacency_;
  mutable bool adjacency_valid_ = false;

  // Channel interning + per-channel state, all indexed by ChannelId.
  std::unordered_map<std::string, ChannelId> channel_ids_;
  std::vector<std::string> channel_names_;
  std::vector<TrafficStats> channel_traffic_;
  static constexpr Time kNoOverlay = ~Time{0};
  std::vector<Time> overlay_latency_;  // kNoOverlay if not an overlay

  // handlers_[node][channel]; inner vectors sized on registration.
  std::vector<std::vector<MessageHandler>> handlers_;

  std::vector<LinkObserver> link_observers_;
  std::vector<NodeObserver> node_observers_;

  // --- Fault injection state (see fault.h) -------------------------------
  // All of it is mutated on the coordinator's serial paths only: SendFrame
  // outside waves or in the barrier replay, Execute(kNodeChange) between
  // waves. Workers read node_down_ (frozen during a wave) and nothing else.
  FaultPlan plan_;
  bool plan_installed_ = false;
  /// Fault sequence number: one per remote send reaching the fault layer,
  /// assigned in serial send order (== barrier replay order), which is what
  /// makes fault decisions bit-identical at any thread count.
  uint64_t fault_seq_ = 0;
  std::vector<ChannelFaultStats> channel_fault_;
  /// Last scheduled arrival per directed flow (src << 32 | dst).
  std::unordered_map<uint64_t, Time> flow_last_;
  std::vector<uint8_t> node_down_;  // indexed by NodeId; empty = all up
  /// Links a crash took down, per node, restored on restart (sorted for
  /// deterministic takedown/restore order).
  std::map<NodeId, std::vector<std::pair<NodeId, NodeId>>> crashed_links_;
};

}  // namespace net
}  // namespace nettrails

#endif  // NETTRAILS_NET_SIMULATOR_H_
