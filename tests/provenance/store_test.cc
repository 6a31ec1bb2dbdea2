#include "src/provenance/store.h"

#include <gtest/gtest.h>

#include "src/runtime/plan.h"

namespace nettrails {
namespace provenance {
namespace {

constexpr char kSrc[] = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(reach, infinity, infinity, keys(1,2)).
  r1 reach(@X,Y) :- link(@X,Y,C).
)";

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<runtime::CompiledProgramPtr> prog = runtime::Compile(kSrc);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    sim_.AddNode();
    engine_ = std::make_unique<runtime::Engine>(&sim_, 0, *prog);
    store_ = std::make_unique<ProvStore>(engine_.get());
  }

  Tuple Link(int64_t c) {
    return Tuple("link",
                 {Value::Address(0), Value::Address(0 + 0), Value::Int(c)});
  }

  net::Simulator sim_;
  std::unique_ptr<runtime::Engine> engine_;
  std::unique_ptr<ProvStore> store_;
};

TEST_F(StoreTest, BaseTupleGetsSelfEdge) {
  Tuple link("link", {Value::Address(0), Value::Address(1), Value::Int(3)});
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  bool has_self = false;
  for (const ProvEdge& e : store_->EdgesFor(link.Hash())) {
    if (e.IsSelf(link.Hash())) has_self = true;
  }
  EXPECT_TRUE(has_self);
}

TEST_F(StoreTest, DerivedTupleGetsExecEdge) {
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  // Self-link keeps the head local so edges and exec are both at node 0.
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  Tuple reach("reach", {Value::Address(0), Value::Address(0)});
  ASSERT_TRUE(engine_->HasTuple(reach));
  const std::vector<ProvEdge> edges = store_->EdgesFor(reach.Hash());
  ASSERT_EQ(edges.size(), 1u);
  const ProvEdge& e = edges[0];
  EXPECT_FALSE(e.IsSelf(reach.Hash()));
  EXPECT_FALSE(e.maybe);
  EXPECT_EQ(e.rloc, 0u);
  const std::optional<ExecEntry> exec = store_->ExecFor(e.rid);
  ASSERT_TRUE(exec.has_value());
  EXPECT_EQ(exec->rule, "r1");
  ASSERT_EQ(exec->inputs.size(), 1u);
  EXPECT_EQ(exec->inputs[0], link.Hash());
}

TEST_F(StoreTest, DeletionRemovesEdgesAndBumpsVersion) {
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  uint64_t v1 = store_->version();
  EXPECT_GT(v1, 0u);
  ASSERT_TRUE(engine_->Delete(link).ok());
  sim_.Run();
  EXPECT_GT(store_->version(), v1);
  Tuple reach("reach", {Value::Address(0), Value::Address(0)});
  EXPECT_TRUE(store_->EdgesFor(reach.Hash()).empty());
  EXPECT_TRUE(store_->EdgesFor(link.Hash()).empty());
  EXPECT_EQ(store_->exec_count(), 0u);
  EXPECT_EQ(store_->edge_count(), 0u);
}

TEST_F(StoreTest, BootstrapFromExistingState) {
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  // A store attached after the fact reads the current tables.
  ProvStore late(engine_.get());
  EXPECT_FALSE(late.EdgesFor(link.Hash()).empty());
  EXPECT_EQ(late.edge_count(), store_->edge_count());
  EXPECT_EQ(late.exec_count(), store_->exec_count());
}

TEST_F(StoreTest, AllVidsEnumerates) {
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  std::vector<Vid> vids = store_->AllVids();
  EXPECT_EQ(vids.size(), 2u);  // link + reach
}

}  // namespace
}  // namespace provenance
}  // namespace nettrails
