// Scan-vs-index join evidence for the secondary-index subsystem: the same
// workloads run with use_secondary_indexes on and off. Convergence benches
// measure full protocol fixpoint computation (InstallLinks to quiescence);
// churn benches measure the steady-state per-delta cascade (one link
// failure + recovery on a converged network), which is where the
// incremental-provenance line of work pays its throughput ceiling.
//
// Expected shape: path-vector probes the (large) path table with
// (loc, dst, cost) bound — asymptotically fewer candidate rows, the
// headline speedup. Mincost joins bind only the location attribute
// (per-node fan-out: every local row matches), so its gain comes from the
// O(1) hashed key index on Plan/Apply/CountOf rather than
// candidate reduction. The join_rows / index_probes counters make the
// difference visible.
#include <benchmark/benchmark.h>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace {

struct Fixture {
  net::Simulator sim;
  net::Topology topo;
  std::vector<std::unique_ptr<runtime::Engine>> engines;
};

runtime::CompiledProgramPtr CompileOrNull(const char* source) {
  Result<runtime::CompiledProgramPtr> prog = runtime::Compile(source);
  return prog.ok() ? *prog : nullptr;
}

net::Topology MakeTopo(const char* program, size_t n, uint64_t seed) {
  // Path-vector materializes every loop-free path, which explodes on
  // random graphs; a ring keeps it at two paths per pair while the path
  // table still reaches O(n^2) rows per node's neighborhood — exactly the
  // table the pv4 (bestcost, path) join probes. Mincost tolerates random
  // graphs.
  if (program == protocols::PathVectorProgram()) return net::MakeRing(n);
  Rng rng(seed);
  return net::MakeRandomConnected(n, 0.08, &rng, 8);
}

std::unique_ptr<Fixture> Build(const char* program, size_t n, bool indexed,
                               bool run = true) {
  runtime::CompiledProgramPtr prog = CompileOrNull(program);
  if (prog == nullptr) return nullptr;
  auto fx = std::make_unique<Fixture>();
  fx->topo = MakeTopo(program, n, /*seed=*/7);
  runtime::EngineOptions opts;
  opts.use_secondary_indexes = indexed;
  fx->engines = protocols::MakeEngines(&fx->sim, fx->topo, prog, opts);
  if (!protocols::InstallLinks(fx->topo, &fx->engines, &fx->sim, run).ok()) {
    return nullptr;
  }
  return fx;
}

void ReportEngineCounters(benchmark::State& state, const Fixture& fx,
                          uint64_t iterations) {
  uint64_t join_rows = 0, index_probes = 0, broadcasts = 0, fallbacks = 0,
           tuples = 0;
  for (const auto& e : fx.engines) {
    join_rows += e->stats().join_probes;
    index_probes += e->stats().index_probes;
    broadcasts += e->stats().broadcast_probes;
    fallbacks += e->stats().index_scan_fallbacks;
    tuples += e->TotalTuples();
  }
  if (iterations > 0) {
    state.counters["join_rows_per_iter"] =
        static_cast<double>(join_rows) / static_cast<double>(iterations);
  }
  state.counters["index_probes"] = static_cast<double>(index_probes);
  state.counters["broadcast_probes"] = static_cast<double>(broadcasts);
  state.counters["scan_fallbacks"] = static_cast<double>(fallbacks);
  state.counters["tuples"] = static_cast<double>(tuples);
}

void RunConvergence(benchmark::State& state, const char* program,
                    bool indexed) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::unique_ptr<Fixture> last;
  for (auto _ : state) {
    last = Build(program, n, indexed);
    if (last == nullptr) {
      state.SkipWithError("fixture build failed");
      return;
    }
  }
  if (last != nullptr) {
    ReportEngineCounters(state, *last, 1);
  }
}

void RunChurn(benchmark::State& state, const char* program, bool indexed) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::unique_ptr<Fixture> fx = Build(program, n, indexed);
  if (fx == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  uint64_t base_rows = 0;
  for (const auto& e : fx->engines) base_rows += e->stats().join_probes;
  const net::CostedLink& link = fx->topo.links.front();
  uint64_t iterations = 0;
  for (auto _ : state) {
    Status failed = protocols::FailLink(static_cast<NodeId>(link.a),
                                        static_cast<NodeId>(link.b), link.cost,
                                        &fx->engines, &fx->sim);
    Status recovered = protocols::RecoverLink(
        static_cast<NodeId>(link.a), static_cast<NodeId>(link.b), link.cost,
        &fx->engines, &fx->sim);
    if (!failed.ok() || !recovered.ok()) {
      state.SkipWithError("link churn failed");
      return;
    }
    ++iterations;
  }
  uint64_t total_rows = 0;
  for (const auto& e : fx->engines) total_rows += e->stats().join_probes;
  ReportEngineCounters(state, *fx, 0);
  if (iterations > 0) {
    state.counters["join_rows_per_iter"] =
        static_cast<double>(total_rows - base_rows) /
        static_cast<double>(iterations);
  }
}

// Legacy-BGP announcement throughput: a routing table of `n` prefixes in
// inputRoute, then outputRoute announcements whose maybe-rule join probes
// inputRoute on (AS, Prefix). The probe matches exactly one row; the scan
// baseline walks all n — the paper's legacy-application workload is where
// scan-per-probe hurts most.
void RunBgpAnnounce(benchmark::State& state, bool indexed) {
  const int64_t n = state.range(0);
  runtime::CompiledProgramPtr prog =
      CompileOrNull(protocols::BgpMaybeProgram());
  if (prog == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  net::Simulator sim;
  sim.AddNode();
  runtime::EngineOptions opts;
  opts.use_secondary_indexes = indexed;
  runtime::Engine engine(&sim, 0, prog, opts);
  for (int64_t p = 0; p < n; ++p) {
    Tuple in("inputRoute",
             {Value::Address(0), Value::Address(5), Value::Int(p),
              Value::List({Value::Address(5), Value::Int(p)})});
    if (!engine.Insert(in).ok()) {
      state.SkipWithError("route load failed");
      return;
    }
  }
  int64_t next = 0;
  for (auto _ : state) {
    int64_t p = next++ % n;
    Tuple out("outputRoute",
              {Value::Address(0), Value::Address(3), Value::Int(p),
               Value::List({Value::Address(0), Value::Address(5),
                            Value::Int(p)})});
    if (!engine.Insert(out).ok()) {
      state.SkipWithError("announce failed");
      return;
    }
  }
  state.counters["routing_table"] = static_cast<double>(n);
  state.counters["index_probes"] =
      static_cast<double>(engine.stats().index_probes);
  state.counters["scan_fallbacks"] =
      static_cast<double>(engine.stats().index_scan_fallbacks);
}

void BM_Join_BgpAnnounce_Indexed(benchmark::State& state) {
  RunBgpAnnounce(state, true);
}
void BM_Join_BgpAnnounce_Scan(benchmark::State& state) {
  RunBgpAnnounce(state, false);
}

void BM_Join_MincostConvergence_Indexed(benchmark::State& state) {
  RunConvergence(state, protocols::MincostProgram(), true);
}
void BM_Join_MincostConvergence_Scan(benchmark::State& state) {
  RunConvergence(state, protocols::MincostProgram(), false);
}
void BM_Join_PathVectorConvergence_Indexed(benchmark::State& state) {
  RunConvergence(state, protocols::PathVectorProgram(), true);
}
void BM_Join_PathVectorConvergence_Scan(benchmark::State& state) {
  RunConvergence(state, protocols::PathVectorProgram(), false);
}
void BM_Join_MincostChurn_Indexed(benchmark::State& state) {
  RunChurn(state, protocols::MincostProgram(), true);
}
void BM_Join_MincostChurn_Scan(benchmark::State& state) {
  RunChurn(state, protocols::MincostProgram(), false);
}
void BM_Join_PathVectorChurn_Indexed(benchmark::State& state) {
  RunChurn(state, protocols::PathVectorProgram(), true);
}
void BM_Join_PathVectorChurn_Scan(benchmark::State& state) {
  RunChurn(state, protocols::PathVectorProgram(), false);
}

BENCHMARK(BM_Join_MincostConvergence_Indexed)
    ->Arg(64)->Arg(96)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_MincostConvergence_Scan)
    ->Arg(64)->Arg(96)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_PathVectorConvergence_Indexed)
    ->Arg(64)->Arg(96)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_PathVectorConvergence_Scan)
    ->Arg(64)->Arg(96)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_MincostChurn_Indexed)
    ->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_MincostChurn_Scan)
    ->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_PathVectorChurn_Indexed)
    ->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_PathVectorChurn_Scan)
    ->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_BgpAnnounce_Indexed)
    ->Arg(20000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Join_BgpAnnounce_Scan)
    ->Arg(20000)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace nettrails
