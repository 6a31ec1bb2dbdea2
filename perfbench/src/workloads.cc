#include "src/workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "src/net/simulator.h"
#include "src/net/topology.h"
#include "src/oracle.h"
#include "src/protocols/programs.h"
#include "src/provenance/rewrite.h"
#include "src/provenance/store.h"
#include "src/query/query_engine.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"
#include "src/streams.h"
#include "src/tracer.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailQuantileLevel(size_t samples, double want) {
  if (samples < 20) return 0.5;
  return std::min(want, 1.0 - 10.0 / static_cast<double>(samples));
}

namespace {

namespace nt = nettrails;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time consumed by the whole process (every simulator worker
/// included), in seconds. Unlike wall time it does not count time the host
/// took the CPUs away.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Keeps the first error of a sequence of calls.
void KeepFirst(nt::Status* first, nt::Status next) {
  if (first->ok()) *first = std::move(next);
}

enum class Kind { kConverge, kChurn, kQuery };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  const char* topology;     // examples/topologies/<name>.topo
  const char* (*program)();  // shipped protocol source
  const char* result_table;  // routing table the oracle checks
  size_t fixed_ops;          // deterministic prefix
  double tail;               // tail quantile reported as op_ms_tail
};

const WorkloadSpec kSpecs[] = {
    {"converge", Kind::kConverge, "isp_synth_102",
     &nt::protocols::MincostProgram, "mincost", 3, 0.95},
    {"churn", Kind::kChurn, "att_na", &nt::protocols::PathVectorProgram,
     "bestpath", 400, 0.95},
    {"query", Kind::kQuery, "isp_synth_102", &nt::protocols::MincostProgram,
     "mincost", 6000, 0.99},
};

/// Set-ups per run; setup_s is the median of their CPU times.
constexpr int kSetupRepeats = 11;

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// One simulated network: simulator, one engine per node, and the
/// provenance querier attached to them. Members are destroyed in reverse
/// order, querier first.
struct World {
  std::unique_ptr<nt::net::Simulator> sim;
  std::vector<std::unique_ptr<nt::runtime::Engine>> engines;
  std::vector<nt::runtime::Engine*> ptrs;
  std::unique_ptr<nt::query::ProvenanceQuerier> querier;
};

struct SetupTimes {
  double cpu_s = 0;   // process CPU time of the whole set-up
  double wall_s = 0;  // wall time of the whole set-up
  double compile_s = 0;
  double engines_s = 0;
  double stores_s = 0;
};

/// Builds a world; `times`, when given, receives the engine and provenance
/// store construction times.
std::unique_ptr<World> BuildWorld(const nt::runtime::CompiledProgramPtr& prog,
                                  const nt::net::Topology& topo,
                                  unsigned threads, Tracer* tr,
                                  SetupTimes* times) {
  auto w = std::make_unique<World>();
  {
    Tracer::Scope s(tr, "net.Simulator");
    w->sim = std::make_unique<nt::net::Simulator>();
    w->sim->set_num_threads(threads);
  }
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope s(tr, "runtime.MakeEngines");
    w->engines = nt::protocols::MakeEngines(w->sim.get(), topo, prog);
  }
  const Clock::time_point t1 = Clock::now();
  w->ptrs = nt::protocols::EnginePtrs(w->engines);
  {
    Tracer::Scope s(tr, "provenance.ProvenanceQuerier");
    w->querier = std::make_unique<nt::query::ProvenanceQuerier>(w->sim.get(),
                                                                w->ptrs);
  }
  if (times != nullptr) {
    times->engines_s = std::chrono::duration<double>(t1 - t0).count();
    times->stores_s = Since(t1);
  }
  return w;
}

/// Delivery waves seen by the traced run's stepped simulator loop.
struct WaveStats {
  uint64_t events = 0;
  uint64_t waves = 0;
  std::vector<double> sizes;  // events per wave
  uint64_t unstepped = 0;     // events only the final Run() drained
};

/// Virtual time without any event after which the queue is empty: every
/// event these programs schedule lands at most one link or overlay latency
/// (1 ms) after the event that scheduled it, and none arms a timer.
constexpr nt::net::Time kIdleWindow = 2 * nt::net::kMillisecond;

/// Runs the simulator until no event is left. Untraced, this is one
/// Simulator::Run call; traced, the loop steps RunUntil one virtual
/// microsecond at a time and counts the events of each step (one delivery
/// wave), then calls Run to drain anything the idle window missed.
void RunToQuiescence(nt::net::Simulator* sim, Tracer* tr, WaveStats* waves) {
  Tracer::Scope s(tr, "net.Run");
  if (!tr->enabled()) {
    sim->Run();
    return;
  }
  nt::net::Time idle = 0;
  while (idle <= kIdleWindow) {
    const uint64_t before = sim->events_executed();
    sim->RunUntil(sim->now() + 1);
    const uint64_t n = sim->events_executed() - before;
    if (n == 0) {
      ++idle;
      continue;
    }
    idle = 0;
    waves->events += n;
    ++waves->waves;
    waves->sizes.push_back(static_cast<double>(n));
  }
  const uint64_t before = sim->events_executed();
  sim->Run();
  waves->unstepped += sim->events_executed() - before;
}

/// Engine, traffic and query counters summed over one world.
struct Counters {
  uint64_t firings = 0, join_probes = 0, index_probes = 0,
           broadcast_probes = 0, agg_recomputes = 0, dispatches = 0,
           batches = 0, batched_tuples = 0, shipped = 0, eval_errors = 0;
  uint64_t msgs = 0, bytes = 0, tuples = 0;
  uint64_t msgs_tuple = 0, bytes_tuple = 0, msgs_provq = 0, bytes_provq = 0;
  uint64_t cache_hits = 0, cache_misses = 0, remote_requests = 0;

  /// *this += later - earlier, field by field.
  void AddDelta(const Counters& later, const Counters& earlier) {
    firings += later.firings - earlier.firings;
    join_probes += later.join_probes - earlier.join_probes;
    index_probes += later.index_probes - earlier.index_probes;
    broadcast_probes += later.broadcast_probes - earlier.broadcast_probes;
    agg_recomputes += later.agg_recomputes - earlier.agg_recomputes;
    dispatches += later.dispatches - earlier.dispatches;
    batches += later.batches - earlier.batches;
    batched_tuples += later.batched_tuples - earlier.batched_tuples;
    shipped += later.shipped - earlier.shipped;
    eval_errors += later.eval_errors - earlier.eval_errors;
    msgs += later.msgs - earlier.msgs;
    bytes += later.bytes - earlier.bytes;
    tuples += later.tuples - earlier.tuples;
    msgs_tuple += later.msgs_tuple - earlier.msgs_tuple;
    bytes_tuple += later.bytes_tuple - earlier.bytes_tuple;
    msgs_provq += later.msgs_provq - earlier.msgs_provq;
    bytes_provq += later.bytes_provq - earlier.bytes_provq;
    cache_hits += later.cache_hits - earlier.cache_hits;
    cache_misses += later.cache_misses - earlier.cache_misses;
    remote_requests += later.remote_requests - earlier.remote_requests;
  }
};

Counters ReadCounters(World* w) {
  Counters c;
  for (const nt::runtime::Engine* e : w->ptrs) {
    const nt::runtime::EngineStats& s = e->stats();
    c.firings += s.rule_firings;
    c.join_probes += s.join_probes;
    c.index_probes += s.index_probes;
    c.broadcast_probes += s.broadcast_probes;
    c.agg_recomputes += s.agg_recomputes;
    c.dispatches += s.trigger_dispatches;
    c.batches += s.batches_processed;
    c.batched_tuples += s.batched_tuples;
    c.shipped += s.tuples_shipped;
    c.eval_errors += s.eval_errors;
  }
  const nt::net::TrafficStats total = w->sim->total_traffic();
  c.msgs = total.messages;
  c.bytes = total.bytes;
  c.tuples = total.tuples;
  const nt::net::TrafficStats& tuple =
      w->sim->channel_traffic(
          w->sim->InternChannel(nt::runtime::kTupleChannel));
  c.msgs_tuple = tuple.messages;
  c.bytes_tuple = tuple.bytes;
  const nt::net::TrafficStats& provq = w->sim->channel_traffic(
      w->sim->InternChannel(nt::query::kProvQueryChannel));
  c.msgs_provq = provq.messages;
  c.bytes_provq = provq.bytes;
  c.cache_hits = w->querier->total_cache_hits();
  c.cache_misses = w->querier->total_cache_misses();
  for (size_t i = 0; i < w->querier->node_count(); ++i) {
    c.remote_requests +=
        w->querier->service(static_cast<NodeId>(i))->remote_requests_served();
  }
  return c;
}

/// Sum of Tuple::SerializedSize over every provenance-table row.
uint64_t ProvStateBytes(const World& w) {
  uint64_t bytes = 0;
  for (const nt::runtime::Engine* e : w.ptrs) {
    for (const auto& [name, info] : e->program().tables) {
      if (!info.materialized || !nt::provenance::IsProvenancePredicate(name)) {
        continue;
      }
      for (const Tuple& t : e->TableContents(name)) bytes += t.SerializedSize();
    }
  }
  return bytes;
}

uint64_t TotalTuples(const World& w, bool provenance_only) {
  uint64_t n = 0;
  for (const nt::runtime::Engine* e : w.ptrs) {
    n += e->TotalTuples(provenance_only);
  }
  return n;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Every row of `table`, node by node, each node's rows sorted: the query
/// targets a stream's target indexes refer to.
std::vector<Tuple> QueryTargets(const World& w, const std::string& table) {
  std::vector<Tuple> out;
  for (const nt::runtime::Engine* e : w.ptrs) {
    std::vector<Tuple> rows = e->TableContents(table);
    std::sort(rows.begin(), rows.end());
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

Answer ToAnswer(const nt::query::QueryResult& r) {
  Answer a;
  a.count = r.count;
  a.leaves = r.leaf_vids;
  std::sort(a.leaves.begin(), a.leaves.end());
  a.nodes = r.nodes;
  a.truncated = r.truncated;
  return a;
}

Answer ToAnswer(const nt::query::PartialResult& r) {
  Answer a;
  a.count = r.count;
  for (const auto& [vid, node] : r.leaves) a.leaves.push_back(vid);
  std::sort(a.leaves.begin(), a.leaves.end());
  a.nodes = r.nodes;
  a.truncated = r.truncated;
  return a;
}

/// What one phase of the measured loop recorded.
struct OpLog {
  size_t ops = 0;
  std::vector<double> op_s;     // wall time of each op
  std::vector<double> op_cpu_s;  // process CPU time of each op
  std::vector<double> event_s;  // wall time of each flap half (query)
  std::vector<double> vtime_ms;  // virtual time of each op (untraced)
  Counters counters;            // all measured work (ops and flaps)
  Counters det;                 // the ops' own work over the prefix
  size_t det_ops = 0;
  double prefix_rss_mb = 0;     // peak RSS when the prefix completed
  size_t queries = 0;           // provenance queries sent
  WaveStats waves;
  uint64_t first_op_id = 0;  // tracer op ids of this phase
  uint64_t last_op_id = 0;
};

class Bench {
 public:
  Bench(const RunOptions& opts, const WorkloadSpec& spec)
      : opts_(opts), spec_(spec), off_(false), on_(true) {}

  RunResult Run();

 private:
  nt::Status LoadTopology();
  nt::Status SetupOnce(SetupTimes* times);
  /// Runs ops from the stream until `seconds` have passed and at least
  /// `min_ops` ops were done (or the stream runs out).
  void RunPhase(double seconds, size_t min_ops, Tracer* tr, OpLog* log);
  void Op(size_t i, Tracer* tr, OpLog* log);
  void ConvergeOp(Tracer* tr, OpLog* log, bool det);
  void ChurnOp(size_t i, Tracer* tr, OpLog* log, bool det);
  void QueryOp(size_t i, Tracer* tr, OpLog* log, bool det);
  /// One timed fail or recover of `link` on the query workload.
  void FlapHalf(size_t link, bool fail, Tracer* tr, OpLog* log);
  /// Runs one provenance query. Untraced it is one
  /// ProvenanceQuerier::Query call; traced, the same steps are taken
  /// through the public QueryService and RenderVid calls so the simulator
  /// can be stepped.
  nt::Status RunQuery(const Tuple& target, nt::query::QueryType type,
                      Tracer* tr, OpLog* log, Answer* answer,
                      double* vlat_ms);
  /// Cold-convergence twin with the provenance rewrite on and off: ratios
  /// of median round CPU time, of bytes sent and of tuples stored.
  nt::Status OverheadTwin(double* time_ratio, double* bytes_ratio,
                          double* tuples_ratio);
  nt::Status CheckRouting();
  void Record(const nt::Status& st);
  void NextOpId(Tracer* tr) { tr->set_op(++op_id_); }
  void EndToEndMetrics(const OpLog& log, const std::vector<SetupTimes>& setups,
                       RunResult* out);
  void PerLayerMetrics(const OpLog& untraced, const OpLog& traced,
                       const std::vector<SetupTimes>& setups, RunResult* out);

  const RunOptions opts_;
  const WorkloadSpec& spec_;
  Tracer off_;
  Tracer on_;
  uint64_t op_id_ = 0;
  size_t next_op_ = 0;  // index of the next op in the input stream
  RunResult result_;

  nt::net::Topology topo_;
  nt::net::Topology install_topo_;  // converge: links in seeded order
  nt::runtime::CompiledProgramPtr prog_;
  std::unique_ptr<World> world_;
  Dist full_dist_;
  std::vector<size_t> down_;  // churn: links currently down

  std::vector<ChurnEvent> churn_;
  QueryStream queries_;
  std::vector<Tuple> targets_;
  size_t stream_len_ = 0;
  uint64_t next_qid_ = uint64_t{1} << 62;

  double setup_rss_mb_ = 0;  // peak RSS when set-up completed
  bool have_round_ = false;  // converge: traffic of the first round
  uint64_t round_msgs_ = 0, round_bytes_ = 0;
};

void Bench::Record(const nt::Status& st) {
  ++result_.attempted;
  if (st.ok()) return;
  ++result_.failed;
  if (result_.errors.size() < 8) result_.errors.push_back(st.ToString());
}

nt::Status Bench::LoadTopology() {
  const std::string path =
      opts_.root + "/examples/topologies/" + spec_.topology + ".topo";
  NT_ASSIGN_OR_RETURN(topo_, nt::net::LoadTopologyFile(path));
  install_topo_ = topo_;
  if (spec_.kind == Kind::kConverge) {
    const std::vector<size_t> order =
        Permutation(topo_.links.size(), opts_.seed ^ 0x696e7374616c6cull);
    for (size_t i = 0; i < order.size(); ++i) {
      install_topo_.links[i] = topo_.links[order[i]];
    }
  }
  return nt::Status::OK();
}

nt::Status Bench::CheckRouting() {
  if (spec_.kind == Kind::kChurn) {
    const std::vector<nt::net::CostedLink> live = LiveLinks(topo_, down_);
    return CheckPathVector(Snapshot(world_->ptrs, "bestcost"),
                           Snapshot(world_->ptrs, "bestpath"),
                           AllPairsDijkstra(topo_.num_nodes, live), live);
  }
  const Dist dist =
      down_.empty() ? full_dist_
                    : FloydWarshall(topo_.num_nodes, LiveLinks(topo_, down_));
  return CheckMincost(Snapshot(world_->ptrs, "mincost"), dist);
}

nt::Status Bench::SetupOnce(SetupTimes* times) {
  world_.reset();
  down_.clear();
  // Set-up spans carry op id 0: they show in the trace file but not in the
  // per-op layer figures.
  Tracer* tr = opts_.trace ? &on_ : &off_;
  tr->set_op(0);
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope s(tr, "ndlog.Compile");
    NT_ASSIGN_OR_RETURN(prog_, nt::runtime::Compile(spec_.program()));
  }
  times->compile_s = Since(t0);
  NT_RETURN_IF_ERROR(LoadTopology());
  world_ = BuildWorld(prog_, topo_, opts_.threads, tr, times);
  nt::Status st = nt::protocols::InstallLinks(install_topo_, &world_->engines,
                                              world_->sim.get(), false);
  WaveStats unused;
  RunToQuiescence(world_->sim.get(), tr, &unused);
  times->wall_s = Since(t0);
  times->cpu_s = CpuSeconds() - cpu0;
  NT_RETURN_IF_ERROR(st);
  full_dist_ = FloydWarshall(topo_.num_nodes, topo_.links);
  NT_RETURN_IF_ERROR(CheckHealth(world_->ptrs, *world_->sim));
  return CheckRouting();
}

void Bench::ConvergeOp(Tracer* tr, OpLog* log, bool det) {
  world_.reset();  // the previous round's world, outside the timed region
  NextOpId(tr);
  const int32_t span = tr->Begin("op.converge");
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  world_ = BuildWorld(prog_, topo_, opts_.threads, tr, nullptr);
  nt::Status st;
  {
    Tracer::Scope s(tr, "runtime.InstallLinks");
    st = nt::protocols::InstallLinks(install_topo_, &world_->engines,
                                     world_->sim.get(), false);
  }
  RunToQuiescence(world_->sim.get(), tr, &log->waves);
  const double dt = Since(t0);
  const double cpu = CpuSeconds() - cpu0;
  tr->End(span);

  log->op_s.push_back(dt);
  log->op_cpu_s.push_back(cpu);
  if (!tr->enabled()) {
    log->vtime_ms.push_back(static_cast<double>(world_->sim->now()) / 1e3);
  }
  const Counters c = ReadCounters(world_.get());
  log->counters.AddDelta(c, Counters{});
  if (det) log->det.AddDelta(c, Counters{});
  if (st.ok()) st = CheckHealth(world_->ptrs, *world_->sim);
  if (st.ok()) st = CheckRouting();
  if (st.ok()) {
    // Every round installs the same links in the same order, and the
    // simulator is deterministic at any thread count.
    if (!have_round_) {
      have_round_ = true;
      round_msgs_ = c.msgs;
      round_bytes_ = c.bytes;
    } else if (c.msgs != round_msgs_ || c.bytes != round_bytes_) {
      st = nt::Status::RuntimeError(
          "round traffic " + std::to_string(c.msgs) + " msgs / " +
          std::to_string(c.bytes) + " B differs from the first round's " +
          std::to_string(round_msgs_) + " / " + std::to_string(round_bytes_));
    }
  }
  Record(st);
}

void Bench::ChurnOp(size_t i, Tracer* tr, OpLog* log, bool det) {
  const ChurnEvent& ev = churn_[i];
  const Counters before = ReadCounters(world_.get());
  const nt::net::Time vt0 = world_->sim->now();
  NextOpId(tr);
  const int32_t span = tr->Begin("op.churn");
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  nt::Status st;
  for (size_t l : ev.links) {
    const nt::net::CostedLink& link = topo_.links[l];
    if (ev.kind == ChurnEvent::Kind::kRecover) {
      Tracer::Scope s(tr, "runtime.RecoverLink");
      KeepFirst(&st, nt::protocols::RecoverLink(link.a, link.b, link.cost,
                                                &world_->engines,
                                                world_->sim.get(), false));
    } else {
      Tracer::Scope s(tr, "runtime.FailLink");
      KeepFirst(&st, nt::protocols::FailLink(link.a, link.b, link.cost,
                                             &world_->engines,
                                             world_->sim.get(), false));
    }
  }
  RunToQuiescence(world_->sim.get(), tr, &log->waves);
  const double dt = Since(t0);
  const double cpu = CpuSeconds() - cpu0;
  tr->End(span);

  log->op_s.push_back(dt);
  log->op_cpu_s.push_back(cpu);
  if (!tr->enabled()) {
    log->vtime_ms.push_back(static_cast<double>(world_->sim->now() - vt0) /
                            1e3);
  }
  const Counters after = ReadCounters(world_.get());
  log->counters.AddDelta(after, before);
  if (det) log->det.AddDelta(after, before);
  for (size_t l : ev.links) {
    if (ev.kind == ChurnEvent::Kind::kRecover) {
      down_.erase(std::find(down_.begin(), down_.end(), l));
    } else {
      down_.push_back(l);
    }
  }
  if (st.ok()) st = CheckHealth(world_->ptrs, *world_->sim);
  if (st.ok()) st = CheckRouting();
  Record(st);
}

nt::Status Bench::RunQuery(const Tuple& target, nt::query::QueryType type,
                           Tracer* tr, OpLog* log, Answer* answer,
                           double* vlat_ms) {
  nt::query::QueryOptions qo;
  qo.type = type;
  ++log->queries;
  if (!tr->enabled()) {
    nt::Result<nt::query::QueryResult> r = world_->querier->Query(target, qo);
    if (!r.ok()) return r.status();
    *answer = ToAnswer(*r);
    *vlat_ms = static_cast<double>(r->latency) / 1e3;
    return nt::Status::OK();
  }
  // The steps of ProvenanceQuerier::QueryVid, through public calls.
  const uint64_t qid = next_qid_++;
  bool done = false;
  nt::query::PartialResult partial;
  {
    Tracer::Scope s(tr, "query.ResolveTuple");
    world_->querier->service(target.Location())
        ->ResolveTuple(qid, qo, target.Hash(), qo.max_depth, {},
                       [&](const nt::query::PartialResult& r) {
                         partial = r;
                         done = true;
                       });
  }
  RunToQuiescence(world_->sim.get(), tr, &log->waves);
  {
    Tracer::Scope s(tr, "query.ClearQuery");
    for (size_t n = 0; n < world_->querier->node_count(); ++n) {
      world_->querier->service(static_cast<NodeId>(n))->ClearQuery(qid);
    }
  }
  if (!done) {
    return nt::Status::RuntimeError("provenance query did not complete");
  }
  std::vector<std::string> leaf_tuples;  // as QueryResult::leaf_tuples
  {
    Tracer::Scope s(tr, "query.RenderVid");
    for (const auto& [vid, node] : partial.leaves) {
      leaf_tuples.push_back(world_->querier->RenderVid(vid));
    }
  }
  *answer = ToAnswer(partial);
  *vlat_ms = 0;
  return nt::Status::OK();
}

void Bench::FlapHalf(size_t link, bool fail, Tracer* tr, OpLog* log) {
  const nt::net::CostedLink& l = topo_.links[link];
  const Counters before = ReadCounters(world_.get());
  NextOpId(tr);
  const int32_t span = tr->Begin("op.flap");
  const Clock::time_point t0 = Clock::now();
  nt::Status st;
  if (fail) {
    Tracer::Scope s(tr, "runtime.FailLink");
    st = nt::protocols::FailLink(l.a, l.b, l.cost, &world_->engines,
                                 world_->sim.get(), false);
  } else {
    Tracer::Scope s(tr, "runtime.RecoverLink");
    st = nt::protocols::RecoverLink(l.a, l.b, l.cost, &world_->engines,
                                    world_->sim.get(), false);
  }
  RunToQuiescence(world_->sim.get(), tr, &log->waves);
  const double dt = Since(t0);
  tr->End(span);
  log->event_s.push_back(dt);
  log->counters.AddDelta(ReadCounters(world_.get()), before);
  if (fail) {
    down_.push_back(link);
  } else {
    down_.erase(std::find(down_.begin(), down_.end(), link));
  }
  if (st.ok()) st = CheckHealth(world_->ptrs, *world_->sim);
  if (st.ok()) st = CheckRouting();
  Record(st);
}

void Bench::QueryOp(size_t i, Tracer* tr, OpLog* log, bool det) {
  const perfbench::QueryOp& q = queries_.queries[i];
  const Tuple& target = targets_[q.target];
  const auto type = static_cast<nt::query::QueryType>(q.kind);
  const Counters before = ReadCounters(world_.get());
  NextOpId(tr);
  const int32_t span = tr->Begin("op.query");
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  Answer answer;
  double vlat_ms = 0;
  nt::Status st = RunQuery(target, type, tr, log, &answer, &vlat_ms);
  const double dt = Since(t0);
  const double cpu = CpuSeconds() - cpu0;
  tr->End(span);

  log->op_s.push_back(dt);
  log->op_cpu_s.push_back(cpu);
  if (!tr->enabled()) log->vtime_ms.push_back(vlat_ms);
  const Counters after = ReadCounters(world_.get());
  log->counters.AddDelta(after, before);
  if (det) log->det.AddDelta(after, before);
  if (st.ok() && q.verify) {
    nt::query::QueryOptions fresh;
    fresh.type = type;
    fresh.use_cache = false;
    nt::Result<nt::query::QueryResult> r =
        world_->querier->Query(target, fresh);
    st = r.ok() ? CheckSameAnswer(answer, ToAnswer(*r)) : r.status();
    if (!st.ok()) {
      st = nt::Status::RuntimeError("query " + std::to_string(i) + " on " +
                                    target.ToString() + ": " + st.ToString());
    }
  }
  Record(st);
  if ((i + 1) % kQueriesPerFlap == 0) {
    const size_t link = queries_.flap_links[i / kQueriesPerFlap];
    FlapHalf(link, true, tr, log);
    FlapHalf(link, false, tr, log);
  }
}

void Bench::Op(size_t i, Tracer* tr, OpLog* log) {
  const bool det = i < spec_.fixed_ops;
  switch (spec_.kind) {
    case Kind::kConverge:
      ConvergeOp(tr, log, det);
      break;
    case Kind::kChurn:
      ChurnOp(i, tr, log, det);
      break;
    case Kind::kQuery:
      QueryOp(i, tr, log, det);
      break;
  }
  ++log->ops;
  if (det && ++log->det_ops == spec_.fixed_ops) {
    log->prefix_rss_mb = PeakRssMb();
  }
}

void Bench::RunPhase(double seconds, size_t min_ops, Tracer* tr, OpLog* log) {
  log->first_op_id = op_id_ + 1;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    if (next_op_ >= stream_len_) break;
    if (log->ops >= min_ops && Since(t0) >= seconds) break;
    Op(next_op_++, tr, log);
  }
  log->last_op_id = op_id_;
}

nt::Status Bench::OverheadTwin(double* time_ratio, double* bytes_ratio,
                               double* tuples_ratio) {
  constexpr int kRounds = 5;
  double time_s[2] = {0, 0};
  double bytes[2] = {0, 0};
  double tuples[2] = {0, 0};
  for (int prov = 0; prov < 2; ++prov) {
    nt::runtime::CompileOptions co;
    co.provenance = prov == 1;
    NT_ASSIGN_OR_RETURN(nt::runtime::CompiledProgramPtr prog,
                        nt::runtime::Compile(spec_.program(), co));
    std::vector<double> rounds;
    for (int r = 0; r < kRounds; ++r) {
      const double cpu0 = CpuSeconds();
      std::unique_ptr<World> w =
          BuildWorld(prog, topo_, opts_.threads, &off_, nullptr);
      NT_RETURN_IF_ERROR(nt::protocols::InstallLinks(topo_, &w->engines,
                                                     w->sim.get(), true));
      rounds.push_back(CpuSeconds() - cpu0);
      NT_RETURN_IF_ERROR(CheckHealth(w->ptrs, *w->sim));
      bytes[prov] = static_cast<double>(w->sim->total_traffic().bytes);
      tuples[prov] = static_cast<double>(TotalTuples(*w, false));
    }
    time_s[prov] = Quantile(rounds, 0.5);
  }
  *time_ratio = time_s[1] / time_s[0];
  *bytes_ratio = bytes[1] / bytes[0];
  *tuples_ratio = tuples[1] / tuples[0];
  return nt::Status::OK();
}

void Add(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit) {
  out->push_back({name, value, unit});
}

double PerOp(double total, size_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Ops per second spent inside them: every op counts, tails included.
double Rate(const std::vector<double>& op_seconds) {
  double busy = 0;
  for (double t : op_seconds) busy += t;
  return Ratio(static_cast<double>(op_seconds.size()), busy);
}

void Bench::EndToEndMetrics(const OpLog& log,
                            const std::vector<SetupTimes>& setups,
                            RunResult* out) {
  std::vector<double> setup_s, setup_wall_s;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.cpu_s);
    setup_wall_s.push_back(t.wall_s);
  }
  const double tail = TailQuantileLevel(log.op_s.size(), spec_.tail);

  std::vector<Metric>& m = out->metrics;
  Add(&m, "setup_s", Quantile(setup_s, 0.5), "s");
  Add(&m, "op_cpu_ms_p50", Quantile(log.op_cpu_s, 0.5) * 1e3, "ms");
  Add(&m, "ops_per_cpu_s", Rate(log.op_cpu_s), "1/s");
  Add(&m, "msgs_per_op", PerOp(static_cast<double>(log.det.msgs), log.det_ops),
      "count");
  Add(&m, "bytes_per_op",
      PerOp(static_cast<double>(log.det.bytes), log.det_ops), "B");
  Add(&m, "prov_state_bytes", static_cast<double>(ProvStateBytes(*world_)),
      "B");
  Add(&m, "peak_rss_mb", log.prefix_rss_mb, "MB");

  // Wall-clock figures and the CPU tail. The simulator's four workers meet
  // at a barrier every delivery wave, so time the host takes any one CPU
  // away stalls the wave; on a shared host these spread too much from run
  // to run to gate on (see README.md), and are reported here instead.
  std::vector<Metric>& d = out->details;
  Add(&d, "op_cpu_ms_tail", Quantile(log.op_cpu_s, tail) * 1e3, "ms");
  Add(&d, "op_ms_p50", Quantile(log.op_s, 0.5) * 1e3, "ms");
  Add(&d, "op_ms_tail", Quantile(log.op_s, tail) * 1e3, "ms");
  Add(&d, "ops_per_s", Rate(log.op_s), "1/s");
  Add(&d, "op_samples", static_cast<double>(log.op_s.size()), "count");
  Add(&d, "op_tail_quantile", tail, "ratio");
  Add(&d, "setup_wall_s", Quantile(setup_wall_s, 0.5), "s");
  Add(&d, "setup_samples", static_cast<double>(setups.size()), "count");
  // Peak RSS after set-up and at the end of the run, next to peak_rss_mb
  // (end of the prefix): on churn the three show how memory grows with
  // the number of events.
  Add(&d, "setup_rss_mb", setup_rss_mb_, "MB");
  Add(&d, "end_rss_mb", PeakRssMb(), "MB");
  Add(&d, "deterministic_prefix_ops", static_cast<double>(log.det_ops),
      "count");
  Add(&d, "fail_ratio",
      Ratio(static_cast<double>(out->failed),
            static_cast<double>(out->attempted)),
      "ratio");
  switch (spec_.kind) {
    case Kind::kConverge:
      Add(&d, "converge_s", Quantile(log.op_s, 0.5), "s");
      Add(&d, "converge_vtime_ms", Quantile(log.vtime_ms, 0.5), "ms");
      break;
    case Kind::kChurn:
      Add(&d, "event_ms_p50", Quantile(log.op_s, 0.5) * 1e3, "ms");
      Add(&d, "event_ms_p95", Quantile(log.op_s, tail) * 1e3, "ms");
      Add(&d, "event_vtime_ms_p50", Quantile(log.vtime_ms, 0.5), "ms");
      break;
    case Kind::kQuery: {
      const double etail = TailQuantileLevel(log.event_s.size(), 0.95);
      Add(&d, "query_us_p50", Quantile(log.op_s, 0.5) * 1e6, "us");
      Add(&d, "query_us_p99", Quantile(log.op_s, tail) * 1e6, "us");
      Add(&d, "query_vlat_ms_p50", Quantile(log.vtime_ms, 0.5), "ms");
      Add(&d, "event_samples", static_cast<double>(log.event_s.size()),
          "count");
      Add(&d, "event_tail_quantile", etail, "ratio");
      Add(&d, "event_ms_p50", Quantile(log.event_s, 0.5) * 1e3, "ms");
      Add(&d, "event_ms_p95", Quantile(log.event_s, etail) * 1e3, "ms");
      break;
    }
  }
}

void Bench::PerLayerMetrics(const OpLog& untraced, const OpLog& traced,
                            const std::vector<SetupTimes>& setups,
                            RunResult* out) {
  std::vector<double> compile_s, engines_s, stores_s;
  for (const SetupTimes& t : setups) {
    compile_s.push_back(t.compile_s);
    engines_s.push_back(t.engines_s);
    stores_s.push_back(t.stores_s);
  }
  const size_t ops = traced.ops;
  const Counters& c = traced.counters;
  // Self time per span name and per layer over the traced ops.
  const std::map<std::string, int64_t> self =
      on_.SelfNsByName(traced.first_op_id, traced.last_op_id);
  std::map<std::string, double> layer_ms;
  double op_self_ms = 0;
  double local_ms = 0;
  for (const auto& [name, ns] : self) {
    const double ms = static_cast<double>(ns) / 1e6;
    const std::string layer = Tracer::LayerOf(name.c_str());
    if (layer == "op") {
      op_self_ms += ms;
    } else {
      layer_ms[layer] += ms;
    }
    if (name == "runtime.InstallLinks" || name == "runtime.FailLink" ||
        name == "runtime.RecoverLink") {
      local_ms += ms;
    }
  }
  double measured_ms = op_self_ms;
  for (const auto& [layer, ms] : layer_ms) measured_ms += ms;

  std::vector<Metric>& m = out->metrics;
  Add(&m, "ndlog.compile_ms", Quantile(compile_s, 0.5) * 1e3, "ms");
  Add(&m, "runtime.engine_init_ms", Quantile(engines_s, 0.5) * 1e3, "ms");
  Add(&m, "runtime.local_ms_per_op", PerOp(local_ms, ops), "ms");
  Add(&m, "runtime.rule_firings", PerOp(static_cast<double>(c.firings), ops),
      "count/op");
  Add(&m, "runtime.join_probes",
      PerOp(static_cast<double>(c.join_probes), ops), "count/op");
  Add(&m, "runtime.index_probes",
      PerOp(static_cast<double>(c.index_probes), ops), "count/op");
  Add(&m, "runtime.broadcast_probes",
      PerOp(static_cast<double>(c.broadcast_probes), ops), "count/op");
  Add(&m, "runtime.join_yield",
      Ratio(static_cast<double>(c.firings), static_cast<double>(c.join_probes)),
      "ratio");
  Add(&m, "runtime.agg_recomputes",
      PerOp(static_cast<double>(c.agg_recomputes), ops), "count/op");
  Add(&m, "runtime.trigger_dispatches",
      PerOp(static_cast<double>(c.dispatches), ops), "count/op");
  Add(&m, "runtime.batch_fill",
      Ratio(static_cast<double>(c.batched_tuples),
            static_cast<double>(c.batches)),
      "tuples/batch");
  Add(&m, "runtime.tuples_shipped", PerOp(static_cast<double>(c.shipped), ops),
      "count/op");
  Add(&m, "runtime.state_tuples",
      static_cast<double>(TotalTuples(*world_, false)), "count");
  Add(&m, "runtime.eval_errors", static_cast<double>(c.eval_errors), "count");

  uint64_t edges = 0, execs = 0, vids = 0;
  for (size_t n = 0; n < world_->ptrs.size(); ++n) {
    const nt::provenance::ProvStore* store =
        world_->querier->store(static_cast<NodeId>(n));
    edges += store->edge_count();
    execs += store->exec_count();
    vids += world_->ptrs[n]->vid_interner()->size();
  }
  // The provenance-off twin is the paper's overhead experiment, on cold
  // convergence only; the other workloads report 0.
  double time_ratio = 0, bytes_ratio = 0, tuples_ratio = 0;
  if (spec_.kind == Kind::kConverge) {
    Record(OverheadTwin(&time_ratio, &bytes_ratio, &tuples_ratio));
  }
  Add(&m, "provenance.store_init_ms", Quantile(stores_s, 0.5) * 1e3, "ms");
  Add(&m, "provenance.tuples", static_cast<double>(TotalTuples(*world_, true)),
      "count");
  Add(&m, "provenance.store_edges", static_cast<double>(edges), "count");
  Add(&m, "provenance.store_execs", static_cast<double>(execs), "count");
  Add(&m, "provenance.interned_vids", static_cast<double>(vids), "count");
  Add(&m, "provenance.overhead_time_ratio", time_ratio, "ratio");
  Add(&m, "provenance.overhead_bytes_ratio", bytes_ratio, "ratio");
  Add(&m, "provenance.overhead_tuples_ratio", tuples_ratio, "ratio");

  Add(&m, "net.run_ms_per_op", PerOp(layer_ms["net"], ops), "ms");
  Add(&m, "net.events_per_op",
      PerOp(static_cast<double>(traced.waves.events + traced.waves.unstepped),
            ops),
      "count/op");
  Add(&m, "net.waves_per_op",
      PerOp(static_cast<double>(traced.waves.waves), ops), "count/op");
  Add(&m, "net.wave_events_p50", Quantile(traced.waves.sizes, 0.5), "count");
  Add(&m, "net.wave_events_max", Quantile(traced.waves.sizes, 1.0), "count");
  Add(&m, "net.tuples_per_msg",
      Ratio(static_cast<double>(c.tuples), static_cast<double>(c.msgs)),
      "ratio");
  Add(&m, "net.msgs.tuple", PerOp(static_cast<double>(c.msgs_tuple), ops),
      "count/op");
  Add(&m, "net.msgs.provq", PerOp(static_cast<double>(c.msgs_provq), ops),
      "count/op");
  Add(&m, "net.bytes.tuple", PerOp(static_cast<double>(c.bytes_tuple), ops),
      "B/op");
  Add(&m, "net.bytes.provq", PerOp(static_cast<double>(c.bytes_provq), ops),
      "B/op");
  Add(&m, "net.frame_pool", static_cast<double>(world_->sim->frame_pool_size()),
      "count");

  // Only the query workload sends queries; the others report 0.
  Add(&m, "query.query_ms_per_op", PerOp(layer_ms["query"], traced.queries),
      "ms");
  Add(&m, "query.cache_hit_ratio",
      Ratio(static_cast<double>(c.cache_hits),
            static_cast<double>(c.cache_hits + c.cache_misses)),
      "ratio");
  Add(&m, "query.remote_requests_per_op",
      PerOp(static_cast<double>(c.remote_requests), traced.queries),
      "count/op");

  Add(&m, "trace.coverage", Ratio(measured_ms - op_self_ms, measured_ms),
      "ratio");
  Add(&m, "trace.overhead",
      Ratio(Quantile(traced.op_s, 0.5), Quantile(untraced.op_s, 0.5)), "ratio");

  std::vector<Metric>& d = out->details;
  Add(&d, "traced_ops", static_cast<double>(ops), "count");
  Add(&d, "untraced_ops", static_cast<double>(untraced.ops), "count");
  Add(&d, "traced_wall_ms", measured_ms, "ms");
  Add(&d, "net.unstepped_events", static_cast<double>(traced.waves.unstepped),
      "count");
  Add(&d, "spans", static_cast<double>(on_.spans().size()), "count");
  for (const auto& [layer, ms] : layer_ms) {
    Add(&d, "self_ms." + layer, ms, "ms");
  }
  Add(&d, "self_ms.op", op_self_ms, "ms");
}

RunResult Bench::Run() {
  std::vector<SetupTimes> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    SetupTimes t;
    nt::Status st = SetupOnce(&t);
    Record(st);
    if (!st.ok()) {
      result_.correct = false;
      return result_;
    }
    setups.push_back(t);
  }
  setup_rss_mb_ = PeakRssMb();

  // Seeded input streams, long enough that the time limit ends the run.
  const size_t fixed = spec_.fixed_ops;
  const double secs = std::max(opts_.seconds, 0.0);
  switch (spec_.kind) {
    case Kind::kConverge:
      stream_len_ = ~size_t{0};
      break;
    case Kind::kChurn:
      stream_len_ = fixed + static_cast<size_t>(secs * 1000);
      churn_ = MakeChurnStream(topo_.links.size(), opts_.seed, stream_len_);
      break;
    case Kind::kQuery:
      targets_ = QueryTargets(*world_, spec_.result_table);
      stream_len_ = fixed + static_cast<size_t>(secs * 20000);
      queries_ = MakeQueryStream(targets_.size(), topo_.links.size(),
                                 opts_.seed, stream_len_);
      break;
  }

  OpLog untraced, traced;
  if (!opts_.trace) {
    RunPhase(secs, fixed, &off_, &untraced);
  } else {
    // A third of the time untraced, for trace.overhead; the rest traced.
    RunPhase(secs / 3, 1, &off_, &untraced);
    RunPhase(secs * 2 / 3, 1, &on_, &traced);
  }

  // End of run: churn brings every link back, so the final state (and
  // prov_state_bytes) is the converged fixpoint whatever the seed.
  if (spec_.kind == Kind::kChurn && !down_.empty()) {
    nt::Status st;
    for (size_t l : down_) {
      const nt::net::CostedLink& link = topo_.links[l];
      KeepFirst(&st, nt::protocols::RecoverLink(link.a, link.b, link.cost,
                                                &world_->engines,
                                                world_->sim.get(), false));
    }
    world_->sim->Run();
    down_.clear();
    Record(st);
  }
  nt::Status final_state = CheckHealth(world_->ptrs, *world_->sim);
  if (final_state.ok()) final_state = CheckRouting();
  Record(final_state);
  result_.correct = final_state.ok();

  if (opts_.trace) {
    PerLayerMetrics(untraced, traced, setups, &result_);
    if (!opts_.trace_path.empty()) {
      Record(on_.WriteChromeTrace(opts_.trace_path));
    }
  } else {
    EndToEndMetrics(untraced, setups, &result_);
  }
  result_.correct = result_.correct && result_.failed == 0;
  return result_;
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

RunResult RunWorkload(const RunOptions& opts) {
  const WorkloadSpec* spec = FindSpec(opts.workload);
  if (spec == nullptr) {
    RunResult r;
    r.correct = false;
    r.errors.push_back("unknown workload " + opts.workload);
    return r;
  }
  Bench bench(opts, *spec);
  return bench.Run();
}

}  // namespace perfbench
