#include "src/runtime/table.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <type_traits>
#include <vector>

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

TEST(TableTest, InsertAndCount) {
  Table t(CountingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 1));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.CountOf(Row(1, 2, 3)), 1);
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 2));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.CountOf(Row(1, 2, 3)), 3);
}

TEST(TableTest, CountingDeleteKeepsTupleUntilZero) {
  Table t(CountingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 2));
  ApplyAll(&t, PlanDelete(&t, Row(1, 2, 3), 1));
  EXPECT_EQ(t.CountOf(Row(1, 2, 3)), 1);
  EXPECT_EQ(t.size(), 1u);
  ApplyAll(&t, PlanDelete(&t, Row(1, 2, 3), 1));
  EXPECT_EQ(t.CountOf(Row(1, 2, 3)), 0);
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, PlanInsertEmitsSingleActionNormally) {
  Table t(CountingInfo());
  ActionBuffer actions = PlanInsert(&t, Row(1, 2, 3), 1);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_FALSE(actions[0].is_delete);
  EXPECT_EQ(actions[0].mult, 1);
}

TEST(TableTest, KeyReplacementEmitsDeleteTheInsert) {
  Table t(ReplacingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 1));
  ActionBuffer actions = PlanInsert(&t, Row(1, 2, 9), 1);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_TRUE(actions[0].is_delete);
  EXPECT_EQ(actions[0].fields, Row(1, 2, 3));
  EXPECT_FALSE(actions[1].is_delete);
  EXPECT_EQ(actions[1].fields, Row(1, 2, 9));
  ApplyAll(&t, actions);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.CountOf(Row(1, 2, 9)), 1);
  EXPECT_EQ(t.CountOf(Row(1, 2, 3)), 0);
}

TEST(TableTest, ReplacementDeletesFullCount) {
  Table t(ReplacingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 3));
  ActionBuffer actions = PlanInsert(&t, Row(1, 2, 9), 1);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].mult, 3);  // displaced tuple fully retracted
}

TEST(TableTest, SpuriousDeleteDropped) {
  Table t(CountingInfo());
  EXPECT_TRUE(PlanDelete(&t, Row(9, 9, 9), 1).empty());
  EXPECT_EQ(t.spurious_deletes(), 1u);
  // Delete of a different tuple under the same key (replacement races).
  Table r(ReplacingInfo());
  ApplyAll(&r, PlanInsert(&r, Row(1, 2, 3), 1));
  EXPECT_TRUE(PlanDelete(&r, Row(1, 2, 4), 1).empty());
  EXPECT_EQ(r.spurious_deletes(), 1u);
}

// Regression: spurious_deletes_ used to be `mutable` and bumped inside a
// const planning call. Plan is non-const (only for the counter); planning
// must still leave the stored rows untouched.
TEST(TableTest, PlanDeleteCountsSpuriousWithoutMutatingRows) {
  Table t(CountingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 2));
  EXPECT_TRUE(PlanDelete(&t, Row(4, 5, 6), 1).empty());
  EXPECT_TRUE(PlanDelete(&t, Row(4, 5, 6), 1).empty());
  EXPECT_EQ(t.spurious_deletes(), 2u);
  // Planning (spurious or not) never changes visible state.
  (void)PlanDelete(&t, Row(1, 2, 3), 1);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.CountOf(Row(1, 2, 3)), 2);
  static_assert(
      !std::is_invocable_v<decltype(&Table::Plan), const Table*,
                           const ValueList&, int64_t, bool, ActionBuffer*>,
      "Plan must not be callable on a const Table");
}

TEST(TableTest, DeleteClampsToStoredCount) {
  Table t(CountingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 2));
  ActionBuffer actions = PlanDelete(&t, Row(1, 2, 3), 5);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].mult, 2);
}

TEST(TableTest, KeyOfProjectsDeclaredColumns) {
  Table t(ReplacingInfo());
  ValueList key = t.KeyOf(Row(7, 8, 9));
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].as_int(), 7);
  EXPECT_EQ(key[1].as_int(), 8);
  Table c(CountingInfo());
  EXPECT_EQ(c.KeyOf(Row(7, 8, 9)).size(), 3u);
}

TEST(TableTest, ContentsListsVisibleTuples) {
  Table t(CountingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 1));
  ApplyAll(&t, PlanInsert(&t, Row(4, 5, 6), 2));
  std::vector<Tuple> contents = t.Contents();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0].name(), "t");
}

TEST(TableTest, FindByKeyOf) {
  Table t(ReplacingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 2, 3), 1));
  const Table::Row* row = t.FindByKeyOf(Row(1, 2, 99));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->fields, Row(1, 2, 3));
  EXPECT_EQ(t.FindByKeyOf(Row(9, 9, 9)), nullptr);
}

TEST(TableTest, MixedValueKindsInKeys) {
  ndlog::TableInfo info;
  info.name = "m";
  info.arity = 2;
  info.materialized = true;
  info.keys = {0};
  Table t(info);
  ApplyAll(&t, PlanInsert(&t, {Value::Address(1), Value::Str("a")}, 1));
  ApplyAll(&t, PlanInsert(&t, {Value::Address(2), Value::Str("b")}, 1));
  EXPECT_EQ(t.size(), 2u);
  ApplyAll(&t, PlanInsert(&t, {Value::Address(1), Value::Str("c")}, 1));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.CountOf({Value::Address(1), Value::Str("c")}), 1);
}


// --- OrderedView determinism --------------------------------------------
// The hash-primary store must expose iteration in exactly the order the old
// std::map<ValueList, Row, ValueListLess> primary produced: sorted by key
// projection. A reference ordered map is maintained alongside a randomized
// insert/delete workload and the orders are compared after every step.

namespace {

/// Deterministic xorshift64 (no global RNG state).
uint64_t NextRand(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

void CheckOrderedViewAgainstReference(const Table& t,
                                      const std::map<ValueList, int64_t,
                                                     ValueListLess>& ref) {
  const std::vector<Table::RowHandle>& view = t.OrderedView();
  ASSERT_EQ(view.size(), ref.size());
  size_t i = 0;
  for (const auto& [key, count] : ref) {
    ASSERT_LT(i, view.size());
    EXPECT_TRUE(ValueListEq{}(t.KeyOf(t.Deref(view[i]).fields), key))
        << "position " << i << ": view order diverges from ordered-map order";
    EXPECT_EQ(t.Deref(view[i]).count, count) << "position " << i;
    ++i;
  }
}

}  // namespace

TEST(TableTest, OrderedViewMatchesOrderedMapCountingSemantics) {
  Table t(CountingInfo());
  std::map<ValueList, int64_t, ValueListLess> ref;
  uint64_t rng = 2024;
  for (int step = 0; step < 500; ++step) {
    ValueList fields = Row(static_cast<int64_t>(NextRand(&rng) % 13),
                           static_cast<int64_t>(NextRand(&rng) % 7),
                           static_cast<int64_t>(NextRand(&rng) % 3));
    bool del = NextRand(&rng) % 3 == 0;
    if (del) {
      ApplyAll(&t, PlanDelete(&t, fields, 1));
      auto it = ref.find(fields);
      if (it != ref.end() && --it->second <= 0) ref.erase(it);
    } else {
      ApplyAll(&t, PlanInsert(&t, fields, 1));
      ++ref[fields];
    }
    CheckOrderedViewAgainstReference(t, ref);
  }
  EXPECT_GT(t.size(), 0u);
}

TEST(TableTest, OrderedViewMatchesOrderedMapKeyReplacement) {
  Table t(ReplacingInfo());  // keys {0, 1}: key replacement
  std::map<ValueList, int64_t, ValueListLess> ref;  // key projection -> count
  uint64_t rng = 7;
  for (int step = 0; step < 500; ++step) {
    ValueList fields = Row(static_cast<int64_t>(NextRand(&rng) % 5),
                           static_cast<int64_t>(NextRand(&rng) % 5),
                           static_cast<int64_t>(NextRand(&rng) % 4));
    ValueList key = t.KeyOf(fields);
    if (NextRand(&rng) % 4 == 0) {
      // Reference: a delete only lands when the stored fields match.
      // Evaluated before applying — the handle dies with the row.
      const Table::Row* row = t.FindByKey(key);
      const bool lands = row != nullptr && ValueListEq{}(row->fields, fields);
      ApplyAll(&t, PlanDelete(&t, fields, 1));
      if (lands) {
        auto it = ref.find(key);
        if (it != ref.end() && --it->second <= 0) ref.erase(it);
      }
    } else {
      ApplyAll(&t, PlanInsert(&t, fields, 1));
      const Table::Row* row = t.FindByKey(key);
      ASSERT_NE(row, nullptr);
      ref[key] = row->count;
    }
    CheckOrderedViewAgainstReference(t, ref);
  }
}

TEST(TableTest, OrderedViewMatchesOrderedMapUnderPlanApplyRounds) {
  // Rounds of 16 deltas planned and applied through one reused buffer (the
  // engine's per-delta path), with the view checked only between rounds so
  // a cached view must survive many mutations before it is read.
  Table t(CountingInfo());
  std::map<ValueList, int64_t, ValueListLess> ref;
  ActionBuffer actions;
  uint64_t rng = 99;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 16; ++i) {
      ValueList fields = Row(static_cast<int64_t>(NextRand(&rng) % 11),
                             static_cast<int64_t>(NextRand(&rng) % 5),
                             static_cast<int64_t>(NextRand(&rng) % 2));
      bool del = NextRand(&rng) % 3 == 0;
      actions.Reset();
      t.Plan(fields, 1, del, &actions);
      for (const TableAction& a : actions) t.Apply(a);
      if (del) {
        auto it = ref.find(fields);
        if (it != ref.end() && --it->second <= 0) ref.erase(it);
      } else {
        ++ref[fields];
      }
    }
    CheckOrderedViewAgainstReference(t, ref);
  }
}

TEST(TableTest, OrderedViewCachesUntilRowSetChanges) {
  Table t(CountingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 1, 1), 1));
  ApplyAll(&t, PlanInsert(&t, Row(2, 2, 2), 1));
  uint64_t rebuilds0 = t.ordered_view_rebuilds();
  (void)t.OrderedView();
  (void)t.OrderedView();
  EXPECT_EQ(t.ordered_view_rebuilds(), rebuilds0 + 1);
  // A pure count bump keeps the row set (and the cached view) intact.
  ApplyAll(&t, PlanInsert(&t, Row(1, 1, 1), 1));
  (void)t.OrderedView();
  EXPECT_EQ(t.ordered_view_rebuilds(), rebuilds0 + 1);
  // An erase invalidates.
  ApplyAll(&t, PlanDelete(&t, Row(2, 2, 2), 1));
  (void)t.OrderedView();
  EXPECT_EQ(t.ordered_view_rebuilds(), rebuilds0 + 2);
}

TEST(TableTest, RowHandlesStableAcrossGrowth) {
  // Handles are slab indices, not pointers: they must survive arbitrary
  // growth (slab reallocation and index rehashes) and keep resolving to the
  // same row.
  Table t(CountingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(0, 0, 0), 1));
  ASSERT_EQ(t.OrderedView().size(), 1u);
  Table::RowHandle first = t.OrderedView()[0];
  for (int64_t i = 1; i < 2000; ++i) {
    ApplyAll(&t, PlanInsert(&t, Row(i, i % 9, i % 4), 1));
  }
  ASSERT_TRUE(t.HandleValid(first));
  EXPECT_EQ(t.Deref(first).fields, Row(0, 0, 0));
  EXPECT_EQ(t.Deref(first).count, 1);
}

TEST(TableTest, StaleHandleDetectedAfterEraseAndSlotReuse) {
  // Erasing a row invalidates its handles; recycling the slot for a new
  // row must NOT resurrect them (the generation tag diverges), so a stale
  // handle can never silently alias the slot's next tenant.
  Table t(CountingInfo());
  ApplyAll(&t, PlanInsert(&t, Row(1, 1, 1), 1));
  ASSERT_EQ(t.OrderedView().size(), 1u);
  Table::RowHandle h = t.OrderedView()[0];
  ASSERT_TRUE(t.HandleValid(h));

  ApplyAll(&t, PlanDelete(&t, Row(1, 1, 1), 1));
  EXPECT_FALSE(t.HandleValid(h));

  // The freed slot is recycled for the next insert (free-listed slab), so
  // the new row's handle shares h's index but not its generation.
  ApplyAll(&t, PlanInsert(&t, Row(2, 2, 2), 1));
  ASSERT_EQ(t.OrderedView().size(), 1u);
  Table::RowHandle h2 = t.OrderedView()[0];
  EXPECT_EQ(h2.idx, h.idx);
  EXPECT_NE(h2, h);
  EXPECT_FALSE(t.HandleValid(h));
  ASSERT_TRUE(t.HandleValid(h2));
  EXPECT_EQ(t.Deref(h2).fields, Row(2, 2, 2));
}

TEST(TableTest, ChurnReusesSlotsInsteadOfGrowingTheSlab) {
  // The converged-flap workload deletes and re-derives the same rows over
  // and over; the slab must stay bounded by the peak row count, not grow
  // with total churn.
  Table t(CountingInfo());
  for (int64_t i = 0; i < 8; ++i) ApplyAll(&t, PlanInsert(&t, Row(i, 0, 0), 1));
  size_t peak_slots = t.slot_count();
  for (int round = 0; round < 100; ++round) {
    for (int64_t i = 0; i < 8; ++i) {
      ApplyAll(&t, PlanDelete(&t, Row(i, 0, 0), 1));
      ApplyAll(&t, PlanInsert(&t, Row(i, 0, 0), 1));
    }
  }
  EXPECT_EQ(t.slot_count(), peak_slots);
  EXPECT_EQ(t.size(), 8u);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
