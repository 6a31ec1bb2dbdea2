// Secondary-index subsystem: compile-time index selection (bound-position
// analysis in the planner), hash-index maintenance through every table
// mutation path (derivation counting, key replacement, soft-state
// retraction), and probe/scan equivalence of the engine's join loop.
#include <gtest/gtest.h>

#include <set>

#include "src/common/rand.h"
#include "src/ndlog/lint.h"
#include "src/ndlog/parser.h"
#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"
#include "src/runtime/table.h"

namespace nettrails {
namespace runtime {
namespace {

CompiledProgramPtr MustCompile(const std::string& src,
                               bool provenance = false) {
  CompileOptions opts;
  opts.provenance = provenance;
  Result<CompiledProgramPtr> prog = Compile(src, opts);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return prog.ok() ? *prog : nullptr;
}

/// Checks every secondary index of `table` against a full scan: each stored
/// row must be probe-reachable under its projection, every probe result must
/// match its key, and the total number of indexed handles must equal the
/// number of visible rows (no stale handles).
void ExpectIndexesConsistent(const Table& table) {
  for (size_t id = 0; id < table.num_indexes(); ++id) {
    const std::vector<int>& positions =
        table.IndexPositions(static_cast<int>(id));
    std::set<ValueList, ValueListLess> distinct_keys;
    for (Table::RowHandle row : table.OrderedView()) {
      ValueList probe_key = Table::Project(positions, table.Deref(row).fields);
      const std::vector<Table::RowHandle>* hits =
          table.Probe(static_cast<int>(id), probe_key);
      ASSERT_NE(hits, nullptr)
          << table.name() << " index " << id << ": stored row not probeable";
      bool found = false;
      for (Table::RowHandle h : *hits) {
        if (h == row) found = true;
        EXPECT_EQ(Table::Project(positions, table.Deref(h).fields), probe_key);
      }
      EXPECT_TRUE(found) << table.name() << " index " << id
                         << ": row missing from its bucket";
      distinct_keys.insert(std::move(probe_key));
    }
    size_t total = 0;
    for (const ValueList& key : distinct_keys) {
      total += table.Probe(static_cast<int>(id), key)->size();
    }
    EXPECT_EQ(total, table.size())
        << table.name() << " index " << id << ": stale handles";
  }
}

ndlog::TableInfo MakeInfo(const std::string& name, size_t arity,
                          std::vector<int> keys) {
  ndlog::TableInfo info;
  info.name = name;
  info.arity = arity;
  info.keys = std::move(keys);
  info.materialized = true;
  return info;
}

/// One-delta wrappers over Table::Plan, each planning into a fresh buffer
/// (the engine reuses one buffer across deltas).
ActionBuffer PlanInsert(Table* t, const ValueList& fields, int64_t mult) {
  ActionBuffer out;
  t->Plan(fields, mult, /*is_delete=*/false, &out);
  return out;
}

ActionBuffer PlanDelete(Table* t, const ValueList& fields, int64_t mult) {
  ActionBuffer out;
  t->Plan(fields, mult, /*is_delete=*/true, &out);
  return out;
}

void ApplyAll(Table* t, const ActionBuffer& actions) {
  for (const TableAction& a : actions) t->Apply(a);
}

TEST(TableIndexTest, AddIndexDedupsAndBuildsFromExistingRows) {
  Table t(MakeInfo("t", 3, {}));
  ApplyAll(&t,
           PlanInsert(&t, {Value::Int(1), Value::Int(2), Value::Int(3)}, 1));
  int a = t.AddIndex({0, 1});
  int b = t.AddIndex({1});
  EXPECT_EQ(t.AddIndex({0, 1}), a);
  EXPECT_EQ(t.num_indexes(), 2u);
  const auto* hits = t.Probe(a, {Value::Int(1), Value::Int(2)});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_EQ(t.Probe(b, {Value::Int(9)}), nullptr);
}

TEST(TableIndexTest, NumericKindsProbeInterchangeably) {
  // MatchAtom compares with Value::operator==, under which Int(2) equals
  // Double(2.0); index probes must behave identically.
  Table t(MakeInfo("t", 2, {}));
  int idx = t.AddIndex({1});
  ApplyAll(&t, PlanInsert(&t, {Value::Int(1), Value::Double(2.0)}, 1));
  const auto* hits = t.Probe(idx, {Value::Int(2)});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 1u);
}

TEST(TableIndexTest, KeyReplacementRetractionKeepsIndexesConsistent) {
  // Proper-subset key: inserting an existing key retracts the displaced
  // tuple; the old row must vanish from every index bucket.
  Table t(MakeInfo("t", 3, {0}));
  int idx = t.AddIndex({2});
  ApplyAll(&t,
           PlanInsert(&t, {Value::Int(1), Value::Int(10), Value::Int(7)}, 1));
  ApplyAll(&t,
           PlanInsert(&t, {Value::Int(1), Value::Int(20), Value::Int(8)}, 1));
  EXPECT_EQ(t.Probe(idx, {Value::Int(7)}), nullptr);
  const auto* hits = t.Probe(idx, {Value::Int(8)});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 1u);
  ExpectIndexesConsistent(t);
}

TEST(TableIndexTest, DerivationCountDecrementToZeroRemovesFromIndexes) {
  Table t(MakeInfo("t", 2, {}));
  int idx = t.AddIndex({0});
  ValueList row{Value::Int(5), Value::Int(6)};
  ApplyAll(&t, PlanInsert(&t, row, 2));
  ApplyAll(&t, PlanDelete(&t, row, 1));
  ASSERT_NE(t.Probe(idx, {Value::Int(5)}), nullptr);  // count 1: visible
  ApplyAll(&t, PlanDelete(&t, row, 1));
  EXPECT_EQ(t.Probe(idx, {Value::Int(5)}), nullptr);  // count 0: gone
  ExpectIndexesConsistent(t);
}

TEST(TableIndexTest, RandomOpsKeepProbeEqualToScan) {
  // Property test over both storage semantics: after every random
  // insert/delete, every index agrees exactly with a full scan.
  for (bool replacing : {false, true}) {
    Table t(MakeInfo("t", 3, replacing ? std::vector<int>{0, 1}
                                       : std::vector<int>{}));
    t.AddIndex({0});
    t.AddIndex({1, 2});
    t.AddIndex({0, 1, 2});
    Rng rng(replacing ? 42 : 7);
    for (int step = 0; step < 500; ++step) {
      ValueList fields{Value::Int(rng.NextInRange(0, 5)),
                       Value::Int(rng.NextInRange(0, 5)),
                       Value::Int(rng.NextInRange(0, 2))};
      if (rng.NextBool(0.4)) {
        ApplyAll(&t, PlanDelete(&t, fields, rng.NextInRange(1, 2)));
      } else {
        ApplyAll(&t, PlanInsert(&t, fields, rng.NextInRange(1, 2)));
      }
      ExpectIndexesConsistent(t);
    }
    EXPECT_GT(t.size(), 0u);
  }
}

TEST(PlanIndexTest, BoundPositionsDerivedFromDeltaBindings) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(link, infinity, infinity, keys(1,2,3)).
    materialize(path, infinity, infinity, keys(1,2,3)).
    materialize(best, infinity, infinity, keys(1,2)).
    materialize(chosen, infinity, infinity, keys(1,2,3)).
    p1 path(@X,Y,C) :- link(@X,Y,C).
    p2 path(@X,Z,C) :- link(@X,Y,C1), path(@Y,Z,C2), C := C1 + C2.
    p3 chosen(@X,Z,C) :- best(@X,Z,C), path(@X,Z,C).
  )");
  ASSERT_NE(prog, nullptr);
  // After localization every body atom shares the rule's location variable,
  // which the delta atom always binds — so every non-delta materialized
  // atom is either probed through an index on its non-location bound
  // positions or a planner-proven broadcast (never an unplanned scan). The
  // location attribute itself must never appear in an index key: it is
  // constant across a node-local table.
  bool saw_index = false, saw_broadcast = false;
  for (const CompiledRule& cr : prog->rules) {
    for (const auto& [delta_term, plans] : cr.join_plans) {
      for (size_t i = 0; i < plans.size(); ++i) {
        if (i == delta_term) continue;
        const ndlog::Atom* atom =
            std::get_if<ndlog::Atom>(&cr.rule.body[i]);
        if (atom == nullptr) continue;
        const ndlog::TableInfo* info = prog->FindTable(atom->predicate);
        if (info == nullptr || !info->materialized) continue;
        EXPECT_TRUE(plans[i].index_id >= 0 || plans[i].broadcast)
            << cr.rule.name << ": localized atoms always bind at least "
            << "the location variable";
        if (plans[i].index_id >= 0) {
          saw_index = true;
          ASSERT_FALSE(plans[i].bound_positions.empty());
          EXPECT_GT(plans[i].bound_positions[0], 0)
              << "location attribute must not be an index key";
          const std::vector<std::vector<int>>& specs =
              prog->table_indexes.at(atom->predicate);
          EXPECT_EQ(specs[static_cast<size_t>(plans[i].index_id)],
                    plans[i].bound_positions);
        } else {
          saw_broadcast = true;
        }
      }
    }
  }
  // p3's probes bind (dst, cost) beyond the location: indexed. p2's
  // localized probes bind only the location: broadcast.
  EXPECT_TRUE(saw_index);
  EXPECT_TRUE(saw_broadcast);
}

// ------------------------------------------------------------------------
// Engine-level equivalence: indexed evaluation must produce exactly the
// same fixpoint as scan evaluation, and on the shipped protocol programs
// the scan path must be cold (index_scan_fallbacks == 0).

struct Net {
  net::Simulator sim;
  net::Topology topo;
  std::vector<std::unique_ptr<Engine>> engines;
};

std::unique_ptr<Net> RunProtocol(const char* program, bool provenance,
                                 bool use_indexes, size_t n, uint64_t seed) {
  CompileOptions copts;
  copts.provenance = provenance;
  Result<CompiledProgramPtr> prog = Compile(program, copts);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return nullptr;
  auto net = std::make_unique<Net>();
  Rng rng(seed);
  net->topo = net::MakeRandomConnected(n, 0.2, &rng, 5);
  EngineOptions eopts;
  eopts.use_secondary_indexes = use_indexes;
  net->engines = protocols::MakeEngines(&net->sim, net->topo, *prog, eopts);
  EXPECT_TRUE(
      protocols::InstallLinks(net->topo, &net->engines, &net->sim).ok());
  return net;
}

void ExpectSameState(const Net& a, const Net& b) {
  ASSERT_EQ(a.engines.size(), b.engines.size());
  for (size_t i = 0; i < a.engines.size(); ++i) {
    const CompiledProgram& prog = a.engines[i]->program();
    for (const auto& [name, info] : prog.tables) {
      if (!info.materialized) continue;
      std::vector<Tuple> at = a.engines[i]->TableContents(name);
      std::vector<Tuple> bt = b.engines[i]->TableContents(name);
      ASSERT_EQ(at.size(), bt.size()) << "node " << i << " table " << name;
      for (size_t j = 0; j < at.size(); ++j) {
        EXPECT_EQ(at[j], bt[j]) << "node " << i << " table " << name;
      }
    }
  }
}

/// Whether ndlint reports `code` anywhere in `program`.
bool HasLintFinding(const char* program, const std::string& code) {
  Result<ndlog::Program> parsed = ndlog::Parse(program);
  if (!parsed.ok()) return false;
  Result<ndlog::AnalyzedProgram> analyzed =
      ndlog::Analyze(std::move(parsed).value());
  if (!analyzed.ok()) return false;
  ndlog::DiagnosticEngine diags = ndlog::LintProgram(*analyzed);
  for (const ndlog::Diagnostic& d : diags.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

void CheckProtocol(const char* program, bool provenance, size_t n,
                   bool expect_fewer_candidates) {
  std::unique_ptr<Net> indexed = RunProtocol(program, provenance, true, n, 3);
  std::unique_ptr<Net> scanned = RunProtocol(program, provenance, false, n, 3);
  ASSERT_NE(indexed, nullptr);
  ASSERT_NE(scanned, nullptr);
  ExpectSameState(*indexed, *scanned);
  uint64_t probes = 0, broadcasts = 0, fallbacks = 0;
  uint64_t indexed_rows = 0, scanned_rows = 0;
  for (const auto& e : indexed->engines) {
    probes += e->stats().index_probes;
    broadcasts += e->stats().broadcast_probes;
    fallbacks += e->stats().index_scan_fallbacks;
    indexed_rows += e->stats().join_probes;
  }
  for (const auto& e : scanned->engines) {
    scanned_rows += e->stats().join_probes;
  }
  EXPECT_GT(probes + broadcasts, 0u);
  EXPECT_EQ(fallbacks, 0u) << "scan path must be cold on shipped programs";
  // Lint reads the planner's decisions: it notes a broadcast join (ND502)
  // exactly when the engines run one.
  EXPECT_EQ(broadcasts > 0, HasLintFinding(program, "ND502"));
  // Indexes never examine more candidate rows than a scan. Mincost's joins
  // bind only the location attribute (per-node fan-out: every row is a
  // genuine candidate — planned broadcasts), so candidates are equal
  // there; path-vector's bestpath join binds (loc, dst, cost), which is
  // strictly selective over the path table.
  if (expect_fewer_candidates) {
    EXPECT_GT(probes, 0u);
    EXPECT_LT(indexed_rows, scanned_rows);
  } else {
    EXPECT_LE(indexed_rows, scanned_rows);
  }
  for (const auto& e : indexed->engines) {
    for (const auto& [name, info] : e->program().tables) {
      const Table* t = e->GetTable(name);
      if (t != nullptr) ExpectIndexesConsistent(*t);
    }
  }
}

TEST(EngineIndexTest, MincostMatchesScanAndNeverFallsBack) {
  CheckProtocol(protocols::MincostProgram(), /*provenance=*/true, 12,
                /*expect_fewer_candidates=*/false);
}

TEST(EngineIndexTest, PathVectorMatchesScanAndNeverFallsBack) {
  CheckProtocol(protocols::PathVectorProgram(), /*provenance=*/true, 8,
                /*expect_fewer_candidates=*/true);
}

TEST(EngineIndexTest, BgpMaybeMatchesScanAndNeverFallsBack) {
  // The maybe rule's eh view joins outputRoute deltas against inputRoute
  // with (AS, Prefix) bound — a selective two-column index.
  Result<CompiledProgramPtr> prog = Compile(protocols::BgpMaybeProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, *prog);
  for (int64_t prefix = 100; prefix < 110; ++prefix) {
    ASSERT_TRUE(
        engine
            .Insert(Tuple("inputRoute",
                          {Value::Address(0), Value::Address(5),
                           Value::Int(prefix),
                           Value::List({Value::Address(5), Value::Int(prefix)})}))
            .ok());
    ASSERT_TRUE(
        engine
            .Insert(Tuple("outputRoute",
                          {Value::Address(0), Value::Address(3),
                           Value::Int(prefix),
                           Value::List({Value::Address(0), Value::Address(5),
                                        Value::Int(prefix)})}))
            .ok());
  }
  sim.Run();
  EXPECT_GT(engine.stats().index_probes, 0u);
  EXPECT_EQ(engine.stats().index_scan_fallbacks, 0u);
  for (const auto& [name, info] : engine.program().tables) {
    const Table* t = engine.GetTable(name);
    if (t != nullptr) ExpectIndexesConsistent(*t);
  }
}

TEST(EngineIndexTest, DeletionCascadeMatchesScan) {
  std::unique_ptr<Net> indexed =
      RunProtocol(protocols::MincostProgram(), true, true, 10, 11);
  std::unique_ptr<Net> scanned =
      RunProtocol(protocols::MincostProgram(), true, false, 10, 11);
  ASSERT_NE(indexed, nullptr);
  ASSERT_NE(scanned, nullptr);
  const net::CostedLink& link = indexed->topo.links.front();
  ASSERT_TRUE(protocols::FailLink(static_cast<NodeId>(link.a),
                                  static_cast<NodeId>(link.b), link.cost,
                                  &indexed->engines, &indexed->sim)
                  .ok());
  ASSERT_TRUE(protocols::FailLink(static_cast<NodeId>(link.a),
                                  static_cast<NodeId>(link.b), link.cost,
                                  &scanned->engines, &scanned->sim)
                  .ok());
  ExpectSameState(*indexed, *scanned);
  for (const auto& e : indexed->engines) {
    for (const auto& [name, info] : e->program().tables) {
      const Table* t = e->GetTable(name);
      if (t != nullptr) ExpectIndexesConsistent(*t);
    }
  }
}

TEST(EngineIndexTest, SoftStateFifoEvictionKeepsIndexesConsistent) {
  // max_size 3 with FIFO eviction; the derived view joins back against the
  // evicting table, so the join loop probes indexes whose rows are being
  // evicted by the cascade.
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(obs, infinity, 3, keys(1,2)).
    materialize(pair, infinity, infinity, keys(1,2,3)).
    r1 pair(@X,V,W) :- obs(@X,V), obs(@X,W).
  )");
  ASSERT_NE(prog, nullptr);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  for (int64_t v = 0; v < 10; ++v) {
    ASSERT_TRUE(
        engine.Insert(Tuple("obs", {Value::Address(0), Value::Int(v)})).ok());
    const Table* obs = engine.GetTable("obs");
    ASSERT_NE(obs, nullptr);
    EXPECT_LE(obs->size(), 3u);
    ExpectIndexesConsistent(*obs);
    ExpectIndexesConsistent(*engine.GetTable("pair"));
  }
  EXPECT_GT(engine.stats().evictions, 0u);
  EXPECT_EQ(engine.stats().index_scan_fallbacks, 0u);
  // Fixpoint sanity: 3 obs rows -> 9 pairs.
  EXPECT_EQ(engine.TableContents("pair").size(), 9u);
}

TEST(EngineIndexTest, SoftStateExpiryKeepsIndexesConsistent) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(obs, 5, infinity, keys(1,2)).
    materialize(seen, infinity, infinity, keys(1,2)).
    r1 seen(@X,V) :- obs(@X,V).
  )");
  ASSERT_NE(prog, nullptr);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  ASSERT_TRUE(
      engine.Insert(Tuple("obs", {Value::Address(0), Value::Int(1)})).ok());
  sim.RunUntil(6 * net::kSecond);
  EXPECT_EQ(engine.stats().expirations, 1u);
  const Table* obs = engine.GetTable("obs");
  EXPECT_EQ(obs->size(), 0u);
  ExpectIndexesConsistent(*obs);
  ExpectIndexesConsistent(*engine.GetTable("seen"));
}

TEST(EngineIndexTest, ScanModeCountsFallbacksAndMatchesIndexedMode) {
  // With use_secondary_indexes off every atom takes the (counted) scan
  // path; the fixpoint must be unchanged.
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(c, infinity, infinity, keys(1,2,3)).
    r1 c(@X,V,W) :- a(@X,V), a(@X,W).
  )");
  ASSERT_NE(prog, nullptr);
  net::Simulator sim;
  sim.AddNode();
  EngineOptions scan_opts;
  scan_opts.use_secondary_indexes = false;
  Engine engine(&sim, 0, prog, scan_opts);
  ASSERT_TRUE(
      engine.Insert(Tuple("a", {Value::Address(0), Value::Int(1)})).ok());
  ASSERT_TRUE(
      engine.Insert(Tuple("a", {Value::Address(0), Value::Int(2)})).ok());
  EXPECT_EQ(engine.TableContents("c").size(), 4u);
  EXPECT_GT(engine.stats().index_scan_fallbacks, 0u);
  EXPECT_EQ(engine.stats().index_probes, 0u);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
