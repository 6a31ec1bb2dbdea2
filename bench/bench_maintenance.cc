// Experiment E8: incremental provenance maintenance cost. For MINCOST and
// path-vector on growing networks, measures full-convergence time with and
// without the ExSPAN provenance rewrite, and reports state size, provenance
// size, and protocol traffic as counters. The paper's qualitative claim:
// maintenance adds a constant-factor overhead (extra views and messages),
// not an asymptotic one.
#include <benchmark/benchmark.h>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace {

// Args are (nodes, batch_size): batch_size caps the tuples per shipped
// frame, 1 shipping every delta alone (identical fixpoints at every size,
// proven by tests/runtime/batch_equivalence_test.cc). `batches` counts the
// multi-tuple frames receivers unpacked; messages drop with coalescing
// while tuples (content) stay put.
void RunMaintenance(benchmark::State& state, const char* program,
                    bool provenance) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t batch_size = static_cast<uint32_t>(state.range(1));
  runtime::CompileOptions copts;
  copts.provenance = provenance;
  Result<runtime::CompiledProgramPtr> prog = runtime::Compile(program, copts);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  Rng rng(2011);
  net::Topology topo = net::MakeRandomConnected(n, 0.08, &rng, 8);

  size_t tuples = 0, prov_tuples = 0;
  uint64_t messages = 0, bytes = 0, firings = 0;
  uint64_t dispatches = 0, batches = 0, agg_recomputes = 0;
  for (auto _ : state) {
    net::Simulator sim;
    runtime::EngineOptions opts;
    opts.batch_size = batch_size;
    auto engines = protocols::MakeEngines(&sim, topo, *prog, opts);
    if (!protocols::InstallLinks(topo, &engines, &sim).ok()) {
      state.SkipWithError("install failed");
      return;
    }
    tuples = 0;
    prov_tuples = 0;
    firings = 0;
    dispatches = 0;
    batches = 0;
    agg_recomputes = 0;
    for (const auto& e : engines) {
      tuples += e->TotalTuples(false);
      prov_tuples += e->TotalTuples(true);
      firings += e->stats().rule_firings;
      dispatches += e->stats().trigger_dispatches;
      batches += e->stats().batches_processed;
      agg_recomputes += e->stats().agg_recomputes;
    }
    messages = sim.total_traffic().messages;
    bytes = sim.total_traffic().bytes;
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["batch_size"] = static_cast<double>(batch_size);
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["prov_tuples"] = static_cast<double>(prov_tuples);
  state.counters["messages"] = static_cast<double>(messages);
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["rule_firings"] = static_cast<double>(firings);
  state.counters["trigger_dispatches"] = static_cast<double>(dispatches);
  state.counters["batches"] = static_cast<double>(batches);
  state.counters["agg_recomputes"] = static_cast<double>(agg_recomputes);
}

void BM_Mincost_NoProvenance(benchmark::State& state) {
  RunMaintenance(state, protocols::MincostProgram(), false);
}
void BM_Mincost_WithProvenance(benchmark::State& state) {
  RunMaintenance(state, protocols::MincostProgram(), true);
}
void BM_PathVector_NoProvenance(benchmark::State& state) {
  RunMaintenance(state, protocols::PathVectorProgram(), false);
}
void BM_PathVector_WithProvenance(benchmark::State& state) {
  RunMaintenance(state, protocols::PathVectorProgram(), true);
}

BENCHMARK(BM_Mincost_NoProvenance)
    ->Args({8, 1})->Args({8, 64})->Args({16, 1})->Args({16, 64})
    ->Args({24, 64})->Args({32, 1})->Args({32, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mincost_WithProvenance)
    ->Args({8, 1})->Args({8, 64})->Args({16, 1})->Args({16, 64})
    ->Args({24, 64})->Args({32, 1})->Args({32, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PathVector_NoProvenance)
    ->Args({8, 1})->Args({8, 64})->Args({12, 1})->Args({12, 64})
    ->Args({16, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PathVector_WithProvenance)
    ->Args({8, 1})->Args({8, 64})->Args({12, 1})->Args({12, 64})
    ->Args({16, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nettrails
