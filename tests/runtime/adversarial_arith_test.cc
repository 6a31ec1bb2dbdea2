// Adversarial-arithmetic fixture: an NDlog program whose rules funnel
// attacker-controlled int64 values through every guarded arithmetic path —
// division, modulo, negation, f_abs, and overflow-checked + - *. Run under
// the CI sanitize job (ctest -R adversarial) this proves the guards turn
// each would-be UB/SIGFPE case into a counted RuntimeError while leaving
// the defined cases exact, at batch_size 1 and 64.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/net/simulator.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace runtime {
namespace {

const int64_t kIntMin = std::numeric_limits<int64_t>::min();
const int64_t kIntMax = std::numeric_limits<int64_t>::max();

constexpr char kProgram[] = R"(
  materialize(input, infinity, infinity, keys(1,2,3)).
  materialize(quot, infinity, infinity, keys(1,2,3)).
  materialize(rem, infinity, infinity, keys(1,2,3)).
  materialize(neg, infinity, infinity, keys(1,2)).
  materialize(sum, infinity, infinity, keys(1,2,3)).
  materialize(prod, infinity, infinity, keys(1,2,3)).
  materialize(mag, infinity, infinity, keys(1,2)).
  rq quot(@X, A, Q) :- input(@X, A, B), Q := A / B.
  rr rem(@X, A, R) :- input(@X, A, B), R := A % B.
  rn neg(@X, N) :- input(@X, A, B), N := -A.
  rs sum(@X, A, S) :- input(@X, A, B), S := A + B.
  rp prod(@X, A, P) :- input(@X, A, B), P := A * B.
  rm mag(@X, M) :- input(@X, A, B), M := f_abs(A).
)";

Tuple In(int64_t a, int64_t b) {
  return Tuple("input", {Value::Address(1), Value::Int(a), Value::Int(b)});
}

struct Fixture {
  net::Simulator sim;
  std::unique_ptr<Engine> engine;
};

std::unique_ptr<Fixture> Build(uint32_t batch_size) {
  Result<CompiledProgramPtr> prog = Compile(kProgram);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return nullptr;
  auto fx = std::make_unique<Fixture>();
  EngineOptions opts;
  opts.batch_size = batch_size;
  fx->engine = std::make_unique<Engine>(&fx->sim, 1, *prog, opts);
  return fx;
}

void InsertAdversarialRows(Engine* engine) {
  // Each row steers one or more rules into a guarded edge case.
  ASSERT_TRUE(engine->Insert(In(kIntMin, -1)).ok());  // div/neg/prod/sum trip
  ASSERT_TRUE(engine->Insert(In(kIntMax, 1)).ok());   // sum trips, rest exact
  ASSERT_TRUE(engine->Insert(In(1, 0)).ok());         // div/mod by zero
  ASSERT_TRUE(engine->Insert(In(kIntMax, 2)).ok());   // prod trips
  ASSERT_TRUE(engine->Insert(In(6, 3)).ok());         // fully benign
}

TEST(AdversarialArithTest, GuardsTurnUbIntoEvalErrors) {
  std::unique_ptr<Fixture> fx = Build(/*batch_size=*/1);
  ASSERT_NE(fx, nullptr);
  Engine& e = *fx->engine;
  InsertAdversarialRows(&e);
  fx->sim.Run();

  // The engine survived (the whole point under UBSan) and counted every
  // refused derivation instead of crashing or wrapping.
  EXPECT_FALSE(e.overflowed());
  EXPECT_GT(e.stats().eval_errors, 0u);

  // Benign row: every rule derived the exact result.
  EXPECT_TRUE(e.HasTuple(
      Tuple("quot", {Value::Address(1), Value::Int(6), Value::Int(2)})));
  EXPECT_TRUE(e.HasTuple(
      Tuple("rem", {Value::Address(1), Value::Int(6), Value::Int(0)})));
  EXPECT_TRUE(e.HasTuple(Tuple("neg", {Value::Address(1), Value::Int(-6)})));
  EXPECT_TRUE(e.HasTuple(
      Tuple("sum", {Value::Address(1), Value::Int(6), Value::Int(9)})));
  EXPECT_TRUE(e.HasTuple(
      Tuple("prod", {Value::Address(1), Value::Int(6), Value::Int(18)})));
  EXPECT_TRUE(e.HasTuple(Tuple("mag", {Value::Address(1), Value::Int(6)})));

  // (INT64_MIN, -1): quot refused (INT64_MIN / -1 unrepresentable), rem is
  // the defined 0, neg/f_abs refused, sum (MIN + -1) and prod (MIN * -1)
  // refused.
  EXPECT_FALSE(e.HasTuple(Tuple(
      "quot",
      {Value::Address(1), Value::Int(kIntMin), Value::Int(kIntMin / -2)})));
  EXPECT_TRUE(e.HasTuple(
      Tuple("rem", {Value::Address(1), Value::Int(kIntMin), Value::Int(0)})));
  EXPECT_FALSE(
      e.HasTuple(Tuple("mag", {Value::Address(1), Value::Int(kIntMin)})));

  // (INT64_MAX, 1): quot/rem/neg/prod/f_abs exact, sum refused.
  EXPECT_TRUE(e.HasTuple(Tuple(
      "quot", {Value::Address(1), Value::Int(kIntMax), Value::Int(kIntMax)})));
  EXPECT_TRUE(e.HasTuple(
      Tuple("neg", {Value::Address(1), Value::Int(-kIntMax)})));
  EXPECT_TRUE(e.HasTuple(Tuple(
      "prod", {Value::Address(1), Value::Int(kIntMax), Value::Int(kIntMax)})));
  EXPECT_TRUE(e.HasTuple(Tuple("mag", {Value::Address(1), Value::Int(kIntMax)})));
  EXPECT_FALSE(e.HasTuple(Tuple(
      "sum", {Value::Address(1), Value::Int(kIntMax), Value::Int(kIntMin)})));

  // (1, 0): division and modulo by zero refused.
  size_t quot_rows = e.TableContents("quot").size();
  for (const Tuple& t : e.TableContents("quot")) {
    EXPECT_NE(t.fields()[1], Value::Int(1));
  }
  EXPECT_GT(quot_rows, 0u);
}

TEST(AdversarialArithTest, SerialAndBatchedAgreeOnGuardedPrograms) {
  std::unique_ptr<Fixture> serial = Build(/*batch_size=*/1);
  std::unique_ptr<Fixture> batched = Build(/*batch_size=*/64);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(batched, nullptr);
  InsertAdversarialRows(serial->engine.get());
  InsertAdversarialRows(batched->engine.get());
  serial->sim.Run();
  batched->sim.Run();
  for (const char* table : {"quot", "rem", "neg", "sum", "prod", "mag"}) {
    EXPECT_EQ(serial->engine->TableContents(table),
              batched->engine->TableContents(table))
        << table;
  }
  EXPECT_EQ(serial->engine->stats().eval_errors,
            batched->engine->stats().eval_errors);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
