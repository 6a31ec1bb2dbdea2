#include "src/net/simulator.h"

#include <algorithm>
#include <cassert>

namespace nettrails {
namespace net {

thread_local Simulator::WorkerCtx* Simulator::tls_ctx_ = nullptr;

Simulator::~Simulator() { StopWorkers(); }

void Simulator::set_num_threads(unsigned n) {
  if (n < 1) n = 1;
  if (n > kMaxWorkers) n = kMaxWorkers;
  if (n != num_threads_) StopWorkers();
  num_threads_ = n;
}

NodeId Simulator::AddNode() {
  NodeId id = static_cast<NodeId>(node_count_);
  ++node_count_;
  return id;
}

void Simulator::AddLink(NodeId a, NodeId b, Time latency) {
  assert(a != b);
  LinkState& ls = links_[LinkKey(a, b)];
  ls.latency = latency;
  ls.up = true;
  adjacency_valid_ = false;
}

Status Simulator::SetLinkUp(NodeId a, NodeId b, bool up) {
  LinkState* ls = links_.Find(LinkKey(a, b));
  if (ls == nullptr) {
    return Status::NotFound("no link between " + std::to_string(a) + " and " +
                            std::to_string(b));
  }
  if (ls->up == up) return Status::OK();
  ls->up = up;
  adjacency_valid_ = false;
  for (const LinkObserver& obs : link_observers_) obs(a, b, up);
  return Status::OK();
}

bool Simulator::HasLink(NodeId a, NodeId b) const {
  return links_.Find(LinkKey(a, b)) != nullptr;
}

bool Simulator::LinkUp(NodeId a, NodeId b) const {
  const LinkState* ls = links_.Find(LinkKey(a, b));
  return ls != nullptr && ls->up;
}

std::vector<std::pair<NodeId, NodeId>> Simulator::Links() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(links_.size());
  links_.ForEach([&out](uint64_t key, const LinkState&) {
    out.emplace_back(static_cast<NodeId>(key >> 32),
                     static_cast<NodeId>(key & 0xffffffffu));
  });
  std::sort(out.begin(), out.end());
  return out;
}

void Simulator::RebuildAdjacency() const {
  adjacency_.assign(node_count_, {});
  links_.ForEach([this](uint64_t key, const LinkState& ls) {
    if (!ls.up) return;
    NodeId a = static_cast<NodeId>(key >> 32);
    NodeId b = static_cast<NodeId>(key & 0xffffffffu);
    if (a < node_count_) adjacency_[a].push_back(b);
    if (b < node_count_) adjacency_[b].push_back(a);
  });
  for (std::vector<NodeId>& nbrs : adjacency_) {
    std::sort(nbrs.begin(), nbrs.end());
  }
  adjacency_valid_ = true;
}

const std::vector<NodeId>& Simulator::UpNeighbors(NodeId n) const {
  static const std::vector<NodeId> kEmptyNeighbors;
  if (!adjacency_valid_) RebuildAdjacency();
  if (n >= adjacency_.size()) return kEmptyNeighbors;
  return adjacency_[n];
}

ChannelId Simulator::InternChannel(const std::string& name) {
  auto [it, inserted] =
      channel_ids_.emplace(name, static_cast<ChannelId>(channel_names_.size()));
  if (inserted) {
    channel_names_.push_back(name);
    channel_traffic_.emplace_back();
    overlay_latency_.push_back(kNoOverlay);
  }
  return it->second;
}

void Simulator::RegisterHandler(NodeId node, const std::string& channel,
                                MessageHandler handler) {
  ChannelId ch = InternChannel(channel);
  if (node >= handlers_.size()) handlers_.resize(node + 1);
  if (ch >= handlers_[node].size()) handlers_[node].resize(ch + 1);
  handlers_[node][ch] = std::move(handler);
}

void Simulator::MarkOverlayChannel(const std::string& channel, Time latency) {
  overlay_latency_[InternChannel(channel)] = latency;
}

Simulator::FrameRef Simulator::AcquireFrame() {
  if (WorkerCtx* ctx = tls_ctx_) return WorkerAcquireFrame(ctx);
  FrameRef f;
  if (!free_frames_.empty()) {
    f = free_frames_.back();
    free_frames_.pop_back();
  } else {
    f = static_cast<FrameRef>(frames_.size());
    frames_.emplace_back();
  }
  Message& m = frames_[f];
  m.src = 0;
  m.dst = 0;
  m.channel = 0;
  m.is_delete = false;
  m.multiplicity = 1;
  // payload/batch were cleared on release; their buffers are retained.
  return f;
}

void Simulator::ReleaseFrame(FrameRef f) {
  if (f & kWorkerFrameBit) {
    WorkerReleaseFrame(f);
    return;
  }
  Message& m = frames_[f];
  m.payload = Tuple();
  m.batch.clear();  // keeps vector capacity; entry buffers are freed
  free_frames_.push_back(f);
}

bool Simulator::SendFrame(FrameRef f) {
  if (WorkerCtx* ctx = tls_ctx_) return WorkerSendFrame(ctx, f);
  Message& msg = frames_[f];
  ChannelFaultStats& fs = FaultStatsFor(msg.channel);
  ++fs.sent;
  if (!NodeUp(msg.src)) {
    // A down node's NIC is off: stale timers may still try to send; the
    // frame never reaches the network. Sender-transparent (the node is in
    // no position to observe the result anyway).
    ++fs.dropped_fault;
    ReleaseFrame(f);
    return true;
  }
  Time delay = 1;  // local hop: 1us
  bool duplicate = false;
  Time dup_delay = 0;
  if (msg.src != msg.dst) {
    size_t nbytes = msg.SerializedSize(channel_names_[msg.channel].size());
    size_t ntuples = msg.TupleCount();
    LinkState* ls = nullptr;
    if (overlay_latency_[msg.channel] != kNoOverlay) {
      channel_traffic_[msg.channel].Add(nbytes, ntuples);
      delay = overlay_latency_[msg.channel];
    } else {
      ls = links_.Find(LinkKey(msg.src, msg.dst));
      if (ls == nullptr || !ls->up) {
        ++fs.dropped_link;
        ReleaseFrame(f);
        return false;
      }
      ls->traffic.Add(nbytes, ntuples);
      channel_traffic_[msg.channel].Add(nbytes, ntuples);
      delay = ls->latency;
    }
    // Message-fault resolution. This branch only ever runs on the
    // coordinator's serial path (direct sends, inline waves, or the
    // barrier replay — WorkerSendFrame logs an op instead of coming here),
    // so fault_seq_ advances in canonical serial order and every decision
    // is a pure function of (seed, seq, channel): bit-identical at any
    // num_threads.
    if (plan_installed_ && now_ >= plan_.start && now_ < plan_.heal_time) {
      const FaultSpec& spec = EffectiveSpec(msg);
      if (spec.Any()) {
        const uint64_t seed = plan_.seed;
        const uint64_t fseq = fault_seq_++;
        const ChannelId ch = msg.channel;
        if (FaultHit(seed, fseq, ch, FaultSalt::kDrop, spec.drop_per_10k)) {
          // Lost in flight: the link carried it (traffic accounted above)
          // and the sender saw it leave — sender-transparent.
          ++fs.dropped_fault;
          ReleaseFrame(f);
          return true;
        }
        if (FaultHit(seed, fseq, ch, FaultSalt::kDelay,
                     spec.delay_per_10k)) {
          delay += FaultDraw(seed, fseq, ch, FaultSalt::kDelayJitter,
                             spec.delay_jitter_max);
          ++fs.delayed;
        }
        if (FaultHit(seed, fseq, ch, FaultSalt::kReorder,
                     spec.reorder_per_10k)) {
          delay += spec.reorder_hold;
          ++fs.reordered;
        }
        if (FaultHit(seed, fseq, ch, FaultSalt::kDup, spec.dup_per_10k)) {
          duplicate = true;
          // The copy trails the original by a jitter draw (>= 1us so the
          // original always arrives first even on a zero-jitter spec).
          dup_delay = delay + FaultDraw(seed, fseq, ch, FaultSalt::kDupDelay,
                                        spec.delay_jitter_max > 0
                                            ? spec.delay_jitter_max
                                            : 1);
          ++fs.duplicated;
          if (ls != nullptr) ls->traffic.Add(nbytes, ntuples);
          channel_traffic_[msg.channel].Add(nbytes, ntuples);
        }
      }
    }
  }
  Time arrival = now_ + delay;
  if (plan_installed_ && msg.src != msg.dst) {
    arrival = ClampFlowArrival(msg.src, msg.dst, arrival);
  }
  Event ev;
  ev.kind = Event::Kind::kDeliver;
  ev.frame = f;
  Push(arrival, ev);
  if (duplicate) {
    // Deep copy: the handler may move tuples out of whichever copy arrives
    // first, so the two frames must not share payload buffers.
    FrameRef df = AcquireFrame();
    Message& orig = frames_[f];  // re-resolve: AcquireFrame may grow the
    Message& d = frames_[df];    // deque (references stay valid; be tidy)
    d.src = orig.src;
    d.dst = orig.dst;
    d.channel = orig.channel;
    d.is_delete = orig.is_delete;
    d.multiplicity = orig.multiplicity;
    d.payload = orig.payload;
    d.batch = orig.batch;
    ChannelFaultStats& dfs = FaultStatsFor(d.channel);
    ++dfs.sent;
    Time dup_arrival = ClampFlowArrival(d.src, d.dst, now_ + dup_delay);
    Event dev;
    dev.kind = Event::Kind::kDeliver;
    dev.frame = df;
    Push(dup_arrival, dev);
  }
  return true;
}

bool Simulator::Send(Message msg) {
  // FrameMessage (not frames_[f]) so the shim also works from inside a
  // wave, where AcquireFrame hands out worker-arena frames.
  FrameRef f = AcquireFrame();
  FrameMessage(f) = std::move(msg);
  return SendFrame(f);
}

void Simulator::Deliver(FrameRef f) {
  Message& msg = frames_[f];
  AccountDelivery(msg);
  if (NodeUp(msg.dst) && msg.dst < handlers_.size() &&
      msg.channel < handlers_[msg.dst].size()) {
    const MessageHandler& h = handlers_[msg.dst][msg.channel];
    if (h) h(msg);
  }
  ReleaseFrame(f);
}

ChannelFaultStats& Simulator::FaultStatsFor(ChannelId ch) {
  if (ch >= channel_fault_.size()) channel_fault_.resize(ch + 1);
  return channel_fault_[ch];
}

void Simulator::AccountDelivery(const Message& msg) {
  ChannelFaultStats& fs = FaultStatsFor(msg.channel);
  if (NodeUp(msg.dst)) {
    ++fs.delivered;
  } else {
    // In flight toward a node that crashed before arrival: consumed by the
    // fault layer, never seen by a handler.
    ++fs.dropped_fault;
  }
}

const FaultSpec& Simulator::EffectiveSpec(const Message& msg) const {
  if (!plan_.link_overrides.empty() &&
      overlay_latency_[msg.channel] == kNoOverlay) {
    NodeId lo = msg.src < msg.dst ? msg.src : msg.dst;
    NodeId hi = msg.src < msg.dst ? msg.dst : msg.src;
    auto it = plan_.link_overrides.find({lo, hi});
    if (it != plan_.link_overrides.end()) return it->second;
  }
  if (!plan_.channel_overrides.empty()) {
    auto it = plan_.channel_overrides.find(channel_names_[msg.channel]);
    if (it != plan_.channel_overrides.end()) return it->second;
  }
  return plan_.spec;
}

Time Simulator::ClampFlowArrival(NodeId src, NodeId dst, Time arrival) {
  Time& last = flow_last_[(static_cast<uint64_t>(src) << 32) | dst];
  if (arrival < last) arrival = last;
  last = arrival;
  return arrival;
}

void Simulator::InstallFaultPlan(const FaultPlan& plan) {
  plan_ = plan;
  plan_installed_ = true;
  fault_seq_ = 0;
  flow_last_.clear();
  for (const NodeFaultEvent& e : plan_.node_events) {
    bool up = e.kind == NodeFaultEvent::Kind::kRestart;
    bool links = e.kind != NodeFaultEvent::Kind::kPause;
    ScheduleNodeChange(e.time, e.node, up, links);
  }
}

Status Simulator::SetNodeUp(NodeId node, bool up, bool with_links) {
  if (node >= node_count_) {
    return Status::NotFound("no node " + std::to_string(node));
  }
  if (node_down_.size() < node_count_) node_down_.resize(node_count_, 0);
  if (node_down_[node] == static_cast<uint8_t>(!up)) return Status::OK();
  node_down_[node] = !up;
  if (!up) {
    if (with_links) {
      // Crash takes the node's up links with it; record them so a restart
      // restores exactly this set. The hash map's iteration order is
      // layout-dependent, so sort before taking links down — observers
      // must fire in a deterministic order.
      std::vector<std::pair<NodeId, NodeId>> taken;
      links_.ForEach([&](uint64_t key, const LinkState& ls) {
        NodeId a = static_cast<NodeId>(key >> 32);
        NodeId b = static_cast<NodeId>(key & 0xffffffffu);
        if (ls.up && (a == node || b == node)) taken.emplace_back(a, b);
      });
      std::sort(taken.begin(), taken.end());
      for (const auto& [a, b] : taken) (void)SetLinkUp(a, b, false);
      crashed_links_[node] = std::move(taken);
    }
  } else {
    auto it = crashed_links_.find(node);
    if (it != crashed_links_.end()) {
      for (const auto& [a, b] : it->second) (void)SetLinkUp(a, b, true);
      crashed_links_.erase(it);
    }
  }
  for (const NodeObserver& obs : node_observers_) obs(node, up);
  return Status::OK();
}

void Simulator::Push(Time t, Event ev) {
  // Hard guard (not an assert): an event scheduled in the past would move
  // now_ backwards when executed, silently corrupting virtual time in
  // Release builds. Clamp to now and count it.
  if (t < now_) {
    ++schedule_in_past_;
    t = now_;
  }
  ev.time = t;
  ev.seq = seq_++;
  queue_.push(ev);
}

void Simulator::ScheduleAt(Time t, std::function<void()> fn) {
  if (WorkerCtx* ctx = tls_ctx_) {
    WorkerOp op;
    op.kind = WorkerOp::Kind::kClosure;
    op.trigger_seq = ctx->trigger_seq;
    op.time = t;
    op.fn = std::move(fn);
    ctx->ops.push_back(std::move(op));
    return;
  }
  uint32_t slot;
  if (!free_closures_.empty()) {
    slot = free_closures_.back();
    free_closures_.pop_back();
    closures_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
  }
  Event ev;
  ev.kind = Event::Kind::kClosure;
  ev.closure = slot;
  Push(t, ev);
}

void Simulator::ScheduleAfter(Time delay, std::function<void()> fn) {
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleLinkChange(Time t, NodeId a, NodeId b, bool up) {
  if (WorkerCtx* ctx = tls_ctx_) {
    WorkerOp op;
    op.kind = WorkerOp::Kind::kLinkChange;
    op.trigger_seq = ctx->trigger_seq;
    op.time = t;
    op.a = a;
    op.b = b;
    op.up = up;
    ctx->ops.push_back(std::move(op));
    return;
  }
  Event ev;
  ev.kind = Event::Kind::kLinkChange;
  ev.link.a = a;
  ev.link.b = b;
  ev.link.up = up;
  Push(t, ev);
}

void Simulator::ScheduleNodeChange(Time t, NodeId node, bool up,
                                   bool with_links) {
  if (WorkerCtx* ctx = tls_ctx_) {
    WorkerOp op;
    op.kind = WorkerOp::Kind::kNodeChange;
    op.trigger_seq = ctx->trigger_seq;
    op.time = t;
    op.a = node;
    op.up = up;
    op.links = with_links;
    ctx->ops.push_back(std::move(op));
    return;
  }
  Event ev;
  ev.kind = Event::Kind::kNodeChange;
  ev.node.id = node;
  ev.node.up = up;
  ev.node.links = with_links;
  Push(t, ev);
}

void Simulator::Execute(const Event& ev) {
  switch (ev.kind) {
    case Event::Kind::kDeliver:
      Deliver(ev.frame);
      break;
    case Event::Kind::kClosure: {
      // Move out before running: the closure may schedule new events, which
      // may reuse the slot.
      std::function<void()> fn = std::move(closures_[ev.closure]);
      closures_[ev.closure] = nullptr;
      free_closures_.push_back(ev.closure);
      fn();
      break;
    }
    case Event::Kind::kLinkChange:
      (void)SetLinkUp(ev.link.a, ev.link.b, ev.link.up);  // unknown link: no-op
      break;
    case Event::Kind::kNodeChange:
      (void)SetNodeUp(ev.node.id, ev.node.up, ev.node.links);
      break;
  }
}

void Simulator::Run() { RunLoop(0, /*bounded=*/false); }

void Simulator::RunUntil(Time t) {
  RunLoop(t, /*bounded=*/true);
  if (now_ < t) now_ = t;
}

void Simulator::RunLoop(Time until, bool bounded) {
  stopped_.store(false, std::memory_order_relaxed);
  while (!queue_.empty() && !stopped_.load(std::memory_order_relaxed)) {
    if (bounded && queue_.top().time > until) break;
    if (num_threads_ > 1 && queue_.top().kind == Event::Kind::kDeliver) {
      // Collect the wave: the contiguous run of deliveries at this time,
      // in seq order. A closure or link-change event bounds the run — it
      // executes serially at its exact seq position, so handlers never
      // observe topology or timer effects out of order.
      const Time t = queue_.top().time;
      wave_.clear();
      while (!queue_.empty() && queue_.top().time == t &&
             queue_.top().kind == Event::Kind::kDeliver) {
        wave_.push_back(queue_.top());
        queue_.pop();
      }
      now_ = t;
      events_executed_ += wave_.size();
      if (wave_.size() < kMinParallelWave) {
        // Narrow wave: the barrier would cost more than it buys. Run it
        // through the serial path; it is popped already, so a Stop() from
        // one of its handlers still takes effect at the wave boundary.
        for (const Event& ev : wave_) Execute(ev);
      } else {
        ExecuteWave();
      }
      continue;
    }
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ++events_executed_;
    Execute(ev);
  }
}

Simulator::FrameRef Simulator::WorkerAcquireFrame(WorkerCtx* ctx) {
  uint32_t idx;
  if (!ctx->free_frames.empty()) {
    idx = ctx->free_frames.back() & 0xffffffu;
    ctx->free_frames.pop_back();
  } else {
    idx = static_cast<uint32_t>(ctx->frames.size());
    ctx->frames.emplace_back();
  }
  Message& m = ctx->frames[idx];
  m.src = 0;
  m.dst = 0;
  m.channel = 0;
  m.is_delete = false;
  m.multiplicity = 1;
  return kWorkerFrameBit | (ctx->id << 24) | idx;
}

void Simulator::WorkerReleaseFrame(FrameRef f) {
  // Safe from the owning worker during a wave (handlers only ever hold
  // their own arena's frames) and from the coordinator during replay
  // (workers are parked at the barrier).
  Message& m = WorkerFrameMessage(f);
  m.payload = Tuple();
  m.batch.clear();
  workers_[(f >> 24) & 0x7fu]->free_frames.push_back(f);
}

bool Simulator::WorkerSendFrame(WorkerCtx* ctx, FrameRef f) {
  // All queue and accounting mutation is deferred to the barrier replay;
  // here we only log the op and predict the serial return value from the
  // frozen link state (links never change inside a wave: link-change
  // events bound waves, and handlers do not call SetLinkUp).
  const Message& msg = FrameMessage(f);
  bool delivered = true;
  if (msg.src != msg.dst && overlay_latency_[msg.channel] == kNoOverlay) {
    const LinkState* ls = links_.Find(LinkKey(msg.src, msg.dst));
    delivered = ls != nullptr && ls->up;
  }
  WorkerOp op;
  op.kind = WorkerOp::Kind::kSend;
  op.trigger_seq = ctx->trigger_seq;
  op.frame = f;
  ctx->ops.push_back(std::move(op));
  return delivered;
}

void Simulator::EnsureWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(num_threads_);
  for (unsigned i = 0; i < num_threads_; ++i) {
    auto ctx = std::make_unique<WorkerCtx>();
    ctx->id = i;
    workers_.push_back(std::move(ctx));
  }
  // Shard 0 belongs to the coordinator, so the pool is one thread short.
  threads_.reserve(num_threads_ - 1);
  for (unsigned i = 1; i < num_threads_; ++i) {
    WorkerCtx* ctx = workers_[i].get();
    threads_.emplace_back([this, ctx] { WorkerMain(ctx); });
  }
}

void Simulator::StopWorkers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    shutdown_ = true;
  }
  for (auto& w : workers_) w->wake_cv.notify_one();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  workers_.clear();
  shutdown_ = false;
}

void Simulator::WorkerMain(WorkerCtx* ctx) {
  tls_ctx_ = ctx;  // reroutes this thread's simulator calls for its lifetime
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      ctx->wake_cv.wait(lock, [&] { return shutdown_ || ctx->wake; });
      if (shutdown_) return;
      ctx->wake = false;
    }
    DeliverShard(ctx);
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (--busy_ == 0) done_cv_.notify_one();
    }
  }
}

void Simulator::DeliverShard(WorkerCtx* ctx) {
  // Deliver this shard in seq order (Deliver() minus the frame release
  // and delivery accounting, which the coordinator performs at the
  // barrier in global seq order). node_down_ is frozen during a wave
  // (node changes bound waves), so the down-destination skip is a pure
  // read and matches the serial Deliver exactly.
  for (const Event& ev : ctx->events) {
    ctx->trigger_seq = ev.seq;
    Message& msg = frames_[ev.frame];
    if (NodeUp(msg.dst) && msg.dst < handlers_.size() &&
        msg.channel < handlers_[msg.dst].size()) {
      const MessageHandler& h = handlers_[msg.dst][msg.channel];
      if (h) h(msg);
    }
  }
}

void Simulator::ExecuteWave() {
  EnsureWorkers();
  // Freeze the adjacency before handlers read it concurrently: the lazy
  // const rebuild in UpNeighbors would race if a worker triggered it.
  if (!adjacency_valid_) RebuildAdjacency();
  ++parallel_waves_;
  const uint32_t n = static_cast<uint32_t>(workers_.size());
  for (auto& w : workers_) w->events.clear();
  for (const Event& ev : wave_) {
    // Stable per-node partition: one worker per destination engine, and a
    // node keeps its worker (and warm arena) across waves.
    workers_[frames_[ev.frame].dst % n]->events.push_back(ev);
  }
  // Wake only the pool workers with a non-empty shard. Workers never
  // write their events vector, so the notify loop may read it unlocked.
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    busy_ = 0;
    for (uint32_t i = 1; i < n; ++i) {
      if (workers_[i]->events.empty()) continue;
      workers_[i]->wake = true;
      ++busy_;
    }
  }
  for (uint32_t i = 1; i < n; ++i) {
    if (!workers_[i]->events.empty()) workers_[i]->wake_cv.notify_one();
  }
  // The coordinator works shard 0 meanwhile, with its sends and timers
  // rerouted into worker 0's arena and op log like any worker's.
  tls_ctx_ = workers_[0].get();
  DeliverShard(workers_[0].get());
  tls_ctx_ = nullptr;
  {
    std::unique_lock<std::mutex> lock(pool_mu_);
    done_cv_.wait(lock, [this] { return busy_ == 0; });
  }
  // The serial loop releases each delivered frame right after its handler
  // returns; batch the releases (and the delivery-side conservation
  // accounting — counters are sums, so batching at the barrier yields the
  // same totals as the serial interleaving) here in the same seq order.
  for (const Event& ev : wave_) {
    AccountDelivery(frames_[ev.frame]);
    ReleaseFrame(ev.frame);
  }
  ReplayOps();
}

void Simulator::ReplayOps() {
  // Canonical replay: apply every recorded side effect in exactly the
  // order the serial loop would have produced it — handlers in event-seq
  // order, ops in issue order within a handler. Each delivery is handled
  // by exactly one worker and each worker walks its shard in seq order,
  // so its op log is already trigger_seq-sorted; a k-way merge on
  // trigger_seq across workers yields the serial order, and with it the
  // exact seq_ assignment of every event pushed here.
  std::vector<size_t>& cursor = replay_cursor_;
  cursor.assign(workers_.size(), 0);
  for (;;) {
    size_t best = workers_.size();
    uint64_t best_seq = 0;
    for (size_t i = 0; i < workers_.size(); ++i) {
      const std::vector<WorkerOp>& ops = workers_[i]->ops;
      if (cursor[i] >= ops.size()) continue;
      uint64_t s = ops[cursor[i]].trigger_seq;
      if (best == workers_.size() || s < best_seq) {
        best = i;
        best_seq = s;
      }
    }
    if (best == workers_.size()) break;
    ApplyOp(std::move(workers_[best]->ops[cursor[best]]));
    ++cursor[best];
  }
  for (auto& w : workers_) w->ops.clear();
}

void Simulator::ApplyOp(WorkerOp op) {
  // Runs on the coordinator (tls_ctx_ == nullptr), so the calls below take
  // the ordinary serial paths.
  switch (op.kind) {
    case WorkerOp::Kind::kSend: {
      if ((op.frame & kWorkerFrameBit) == 0) {
        // A global frame held across waves (none on today's hot path, but
        // legal): its contents are already in place.
        SendFrame(op.frame);
        return;
      }
      FrameRef gf = AcquireFrame();
      Message& g = frames_[gf];
      Message& w = WorkerFrameMessage(op.frame);
      g.src = w.src;
      g.dst = w.dst;
      g.channel = w.channel;
      g.is_delete = w.is_delete;
      g.multiplicity = w.multiplicity;
      // Swap, not copy: the worker frame inherits the global frame's
      // recycled batch capacity, so both pools stay allocation-free in
      // steady state.
      std::swap(g.payload, w.payload);
      g.batch.swap(w.batch);
      WorkerReleaseFrame(op.frame);
      SendFrame(gf);
      return;
    }
    case WorkerOp::Kind::kClosure:
      ScheduleAt(op.time, std::move(op.fn));
      return;
    case WorkerOp::Kind::kLinkChange:
      ScheduleLinkChange(op.time, op.a, op.b, op.up);
      return;
    case WorkerOp::Kind::kNodeChange:
      ScheduleNodeChange(op.time, op.a, op.up, op.links);
      return;
  }
}

const TrafficStats& Simulator::channel_traffic(ChannelId ch) const {
  static const TrafficStats kZero;
  if (ch >= channel_traffic_.size()) return kZero;
  return channel_traffic_[ch];
}

std::map<std::string, TrafficStats> Simulator::ChannelTrafficByName() const {
  std::map<std::string, TrafficStats> out;
  for (size_t ch = 0; ch < channel_traffic_.size(); ++ch) {
    const TrafficStats& ts = channel_traffic_[ch];
    if (ts.messages == 0 && ts.bytes == 0 && ts.tuples == 0) continue;
    out[channel_names_[ch]] = ts;
  }
  return out;
}

TrafficStats Simulator::total_traffic() const {
  TrafficStats total;
  for (const TrafficStats& ts : channel_traffic_) {
    total.messages += ts.messages;
    total.bytes += ts.bytes;
    total.tuples += ts.tuples;
  }
  return total;
}

const LinkState* Simulator::link(NodeId a, NodeId b) const {
  return links_.Find(LinkKey(a, b));
}

void Simulator::ResetTrafficStats() {
  for (TrafficStats& ts : channel_traffic_) ts = TrafficStats{};
  links_.ForEach([](uint64_t, LinkState& ls) { ls.traffic = TrafficStats{}; });
  for (ChannelFaultStats& fs : channel_fault_) fs = ChannelFaultStats{};
}

const ChannelFaultStats& Simulator::channel_fault_stats(ChannelId ch) const {
  static const ChannelFaultStats kZero;
  if (ch >= channel_fault_.size()) return kZero;
  return channel_fault_[ch];
}

std::map<std::string, ChannelFaultStats> Simulator::ChannelFaultStatsByName()
    const {
  std::map<std::string, ChannelFaultStats> out;
  for (size_t ch = 0; ch < channel_fault_.size(); ++ch) {
    const ChannelFaultStats& fs = channel_fault_[ch];
    if (fs.sent == 0 && fs.delivered == 0 && fs.dropped_link == 0 &&
        fs.dropped_fault == 0) {
      continue;
    }
    out[channel_names_[ch]] = fs;
  }
  return out;
}

ChannelFaultStats Simulator::total_fault_stats() const {
  ChannelFaultStats total;
  for (const ChannelFaultStats& fs : channel_fault_) {
    total.sent += fs.sent;
    total.delivered += fs.delivered;
    total.dropped_link += fs.dropped_link;
    total.dropped_fault += fs.dropped_fault;
    total.duplicated += fs.duplicated;
    total.delayed += fs.delayed;
    total.reordered += fs.reordered;
  }
  return total;
}

void Simulator::ResetEventStats() {
  events_executed_ = 0;
  schedule_in_past_ = 0;
  parallel_waves_ = 0;
}

}  // namespace net
}  // namespace nettrails
