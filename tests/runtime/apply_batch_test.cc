// Batches of deltas applied to one Table through Table::Plan + Apply, the
// engine's per-delta path: each delta is planned into one reused
// ActionBuffer and every planned action is applied before the next delta is
// planned. Pins same-key insert/delete mixes, key replacement, count-to-zero
// retraction and spurious-delete accounting under both storage semantics,
// checks that reusing the buffer across a randomized batch yields exactly
// what planning each delta into a fresh buffer yields, and keeps every
// secondary index consistent throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/runtime/table.h"

namespace nettrails {
namespace runtime {
namespace {

ndlog::TableInfo CountingInfo() {
  ndlog::TableInfo info;
  info.name = "t";
  info.arity = 3;
  info.materialized = true;
  // keys empty = all fields: counting semantics.
  return info;
}

ndlog::TableInfo ReplacingInfo() {
  ndlog::TableInfo info;
  info.name = "t";
  info.arity = 3;
  info.materialized = true;
  info.keys = {0, 1};
  return info;
}

ValueList Row(int64_t a, int64_t b, int64_t c) {
  return {Value::Int(a), Value::Int(b), Value::Int(c)};
}

struct Delta {
  ValueList fields;
  int64_t mult;
  bool is_delete;
};

struct DirectedCase {
  const char* name;
  std::vector<Delta> deltas;
  // Expected under counting and under key replacement (keys {0,1}).
  const char* counting_actions;
  const char* replacing_actions;
  const char* counting_rows;
  const char* replacing_rows;
  uint64_t spurious;
};

std::string DumpRows(const Table& t) {
  std::string out;
  for (Table::RowHandle h : t.OrderedView()) {
    const Table::Row& row = t.Deref(h);
    out += Tuple(t.name(), row.fields).ToString() + " x" +
           std::to_string(row.count) + " ";
  }
  return out;
}

/// Every visible row must be probeable through every secondary index.
void ExpectIndexesConsistent(const Table& t) {
  for (size_t idx = 0; idx < t.num_indexes(); ++idx) {
    const int id = static_cast<int>(idx);
    for (Table::RowHandle row : t.OrderedView()) {
      const ValueList key =
          Table::Project(t.IndexPositions(id), t.Deref(row).fields);
      const std::vector<Table::RowHandle>* rows = t.Probe(id, key);
      ASSERT_NE(rows, nullptr);
      EXPECT_NE(std::find(rows->begin(), rows->end(), row), rows->end())
          << "row missing from index " << id;
    }
  }
}

/// Plans one delta into `actions` (rewound first) and applies every planned
/// action before returning, as the engine does; returns the actions as text.
std::string PlanAndApply(Table* t, const Delta& d, ActionBuffer* actions) {
  actions->Reset();
  t->Plan(d.fields, d.mult, d.is_delete, actions);
  std::string seen;
  for (const TableAction& a : *actions) {
    seen += std::string(a.is_delete ? "-" : "+") +
            Tuple("t", a.fields).ToString() + "x" + std::to_string(a.mult) +
            " ";
    t->Apply(a);
  }
  return seen;
}

TEST(ApplyBatchTest, DirectedSameKeySequences) {
  const std::vector<DirectedCase> cases = {
      {"insert-then-delete",
       {{Row(1, 1, 1), 1, false}, {Row(1, 1, 1), 1, true}},
       "+t(1,1,1)x1 -t(1,1,1)x1 ", "+t(1,1,1)x1 -t(1,1,1)x1 ", "", "", 0},
      {"insert-delete-reinsert",
       {{Row(1, 1, 1), 2, false},
        {Row(1, 1, 1), 2, true},
        {Row(1, 1, 1), 1, false}},
       "+t(1,1,1)x2 -t(1,1,1)x2 +t(1,1,1)x1 ",
       "+t(1,1,1)x2 -t(1,1,1)x2 +t(1,1,1)x1 ", "t(1,1,1) x1 ",
       "t(1,1,1) x1 ", 0},
      {"delete-of-missing-then-insert",
       {{Row(9, 9, 9), 1, true}, {Row(9, 9, 9), 1, false}},
       "+t(9,9,9)x1 ", "+t(9,9,9)x1 ", "t(9,9,9) x1 ", "t(9,9,9) x1 ", 1},
      {"count-to-zero-retraction",
       {{Row(2, 2, 2), 3, false},
        {Row(2, 2, 2), 1, true},
        {Row(2, 2, 2), 2, true}},
       "+t(2,2,2)x3 -t(2,2,2)x1 -t(2,2,2)x2 ",
       "+t(2,2,2)x3 -t(2,2,2)x1 -t(2,2,2)x2 ", "", "", 0},
      {"key-replacement-chain",  // same key (0,1), three field variants
       {{Row(0, 1, 10), 1, false},
        {Row(0, 1, 20), 1, false},
        {Row(0, 1, 30), 1, false},
        {Row(0, 1, 30), 1, true}},
       "+t(0,1,10)x1 +t(0,1,20)x1 +t(0,1,30)x1 -t(0,1,30)x1 ",
       "+t(0,1,10)x1 -t(0,1,10)x1 +t(0,1,20)x1 -t(0,1,20)x1 +t(0,1,30)x1 "
       "-t(0,1,30)x1 ",
       "t(0,1,10) x1 t(0,1,20) x1 ", "", 0},
      {"overdelete-clamps",
       {{Row(3, 3, 3), 1, false}, {Row(3, 3, 3), 5, true}},
       "+t(3,3,3)x1 -t(3,3,3)x1 ", "+t(3,3,3)x1 -t(3,3,3)x1 ", "", "", 0},
  };
  for (bool replacing : {false, true}) {
    for (const DirectedCase& c : cases) {
      Table t(replacing ? ReplacingInfo() : CountingInfo());
      t.AddIndex({2});
      ActionBuffer actions;
      std::string seen;
      for (const Delta& d : c.deltas) {
        seen += PlanAndApply(&t, d, &actions);
        ExpectIndexesConsistent(t);
      }
      const char* what = replacing ? "replacing" : "counting";
      EXPECT_EQ(seen, replacing ? c.replacing_actions : c.counting_actions)
          << c.name << " " << what;
      EXPECT_EQ(DumpRows(t), replacing ? c.replacing_rows : c.counting_rows)
          << c.name << " " << what;
      EXPECT_EQ(t.spurious_deletes(), c.spurious) << c.name << " " << what;
    }
  }
}

TEST(ApplyBatchTest, ReusedBufferMatchesFreshBufferPerDelta) {
  // A reused buffer hands Plan slots that still hold an earlier delta's
  // action; the actions, rows and counters must match a table planned with
  // a fresh buffer for every delta.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (bool replacing : {false, true}) {
      Rng rng(seed + (replacing ? 100 : 0));
      const ndlog::TableInfo info =
          replacing ? ReplacingInfo() : CountingInfo();
      Table reused(info);
      Table fresh(info);
      for (Table* t : {&reused, &fresh}) {
        t->AddIndex({1});
        t->AddIndex({1, 2});
      }
      ActionBuffer actions;
      // Small key domain so inserts, deletes, replacements and repeats of
      // the same key collide within a batch.
      for (int step = 0; step < 300; ++step) {
        const Delta d{Row(rng.NextInRange(0, 2), rng.NextInRange(0, 2),
                          rng.NextInRange(0, 3)),
                      rng.NextInRange(1, 3), rng.NextBool(0.45)};
        ActionBuffer own;
        const std::string want = PlanAndApply(&fresh, d, &own);
        ASSERT_EQ(PlanAndApply(&reused, d, &actions), want)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(DumpRows(reused), DumpRows(fresh))
            << "seed " << seed << " step " << step;
        ASSERT_EQ(reused.spurious_deletes(), fresh.spurious_deletes());
        ExpectIndexesConsistent(reused);
      }
      EXPECT_GT(reused.spurious_deletes(), 0u);  // the sweep hit that path
    }
  }
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
