// The engine records provenance as rules fire: one firing of a
// non-aggregate rule emits its head, a ruleExec(@L, RID, rule, VidList)
// row and a prov(@H, VID, RID, L, Maybe) edge, and retracting the firing
// retracts all three. These tests pin the digests against the f_mkvid /
// f_mkrid builtins and the retraction cases on a 3-node line.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/provenance/rewrite.h"
#include "src/runtime/builtins.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace provenance {
namespace {

using runtime::Engine;
using runtime::RuleExecRid;
using runtime::TupleVid;
using runtime::ValueToVid;
using runtime::VidToValue;

Value CallBuiltin(const std::string& name, const std::vector<Value>& args) {
  const runtime::BuiltinFn* fn = runtime::FindBuiltin(name);
  EXPECT_NE(fn, nullptr) << name;
  if (fn == nullptr) return Value::Null();
  Result<Value> v = (*fn)(args);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : Value::Null();
}

/// f_mkvid("<pred>", fields...) for a concrete tuple.
Vid BuiltinVid(const Tuple& t) {
  std::vector<Value> args{Value::Str(t.name())};
  args.insert(args.end(), t.fields().begin(), t.fields().end());
  return ValueToVid(CallBuiltin("f_mkvid", args));
}

Tuple Link(NodeId a, NodeId b) {
  return Tuple("link", {Value::Address(a), Value::Address(b), Value::Int(1)});
}

/// A 3-node line (0 - 1 - 2) running `src` with provenance.
class LineWorld {
 public:
  explicit LineWorld(const char* src, bool install_links = true)
      : topo_(net::MakeLine(3, 1)) {
    Result<runtime::CompiledProgramPtr> prog = runtime::Compile(src);
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    if (!prog.ok()) return;
    engines_ = protocols::MakeEngines(&sim_, topo_, *prog);
    if (install_links) {
      EXPECT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
    }
  }

  Engine& at(NodeId n) { return *engines_[n]; }
  net::Simulator& sim() { return sim_; }
  size_t size() const { return engines_.size(); }

  /// prov rows at `n` whose VID is `vid`.
  std::vector<Tuple> EdgesFor(NodeId n, Vid vid) {
    std::vector<Tuple> out;
    for (const Tuple& t : at(n).TableContents(kProvTable)) {
      if (ValueToVid(t.field(1)) == vid) out.push_back(t);
    }
    return out;
  }

  /// ruleExec rows at `n` for rule `rule`.
  std::vector<Tuple> ExecsOf(NodeId n, const std::string& rule) {
    std::vector<Tuple> out;
    for (const Tuple& t : at(n).TableContents(kRuleExecTable)) {
      if (t.field(2) == Value::Str(rule)) out.push_back(t);
    }
    return out;
  }

 private:
  net::Topology topo_;
  net::Simulator sim_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

TEST(EngineProvenanceTest, DigestsMatchTheBuiltins) {
  // MINCOST ships link_d to the neighbor (head and body at different
  // nodes) and records the a_min winners through the same helper.
  LineWorld w(protocols::MincostProgram());
  size_t derived = 0, remote = 0;
  for (NodeId n = 0; n < w.size(); ++n) {
    for (const Tuple& edge : w.at(n).TableContents(kProvTable)) {
      ASSERT_EQ(edge.arity(), kProvArity);
      EXPECT_EQ(edge.field(0), Value::Address(n));
      EXPECT_EQ(edge.field(4), Value::Int(0));
      const Vid vid = ValueToVid(edge.field(1));
      const Vid rid = ValueToVid(edge.field(2));
      const Tuple* head = w.at(n).FindTupleByVid(vid);
      ASSERT_NE(head, nullptr) << edge.ToString();
      EXPECT_TRUE(w.at(n).HasTuple(*head)) << head->ToString();
      EXPECT_EQ(vid, TupleVid(head->name(), head->fields()));
      EXPECT_EQ(vid, BuiltinVid(*head));
      if (rid == vid) continue;  // base-tuple self-edge
      ++derived;

      // The rule execution lives where the body matched (RLoc).
      const NodeId rloc = edge.field(3).as_address();
      if (rloc != n) ++remote;
      const Tuple* exec = nullptr;
      std::vector<Tuple> execs = w.at(rloc).TableContents(kRuleExecTable);
      for (const Tuple& x : execs) {
        if (ValueToVid(x.field(1)) == rid) exec = &x;
      }
      ASSERT_NE(exec, nullptr) << "no ruleExec for " << edge.ToString();
      EXPECT_EQ(exec->field(0), Value::Address(rloc));
      const std::string& rule = exec->field(2).as_string();
      const Value& vid_list = exec->field(3);
      ASSERT_TRUE(vid_list.is_list());
      std::vector<Vid> body;
      for (const Value& v : vid_list.as_list()) {
        body.push_back(ValueToVid(v));
        const Tuple* in = w.at(rloc).FindTupleByVid(body.back());
        ASSERT_NE(in, nullptr) << rule << " input at node " << rloc;
        EXPECT_EQ(body.back(), BuiltinVid(*in));
      }
      EXPECT_FALSE(body.empty());
      EXPECT_EQ(rid, RuleExecRid(rule, rloc, body));
      EXPECT_EQ(rid, ValueToVid(CallBuiltin(
                         "f_mkrid",
                         {Value::Str(rule), Value::Address(rloc), vid_list})));
    }
  }
  EXPECT_GT(derived, 0u);
  EXPECT_GT(remote, 0u);  // link_d edges are recorded at the head's node
}

TEST(EngineProvenanceTest, RetractingOneOfTwoDerivationsKeepsTheOther) {
  // h(@1,5) is derived once at node 0 and once at node 2.
  LineWorld w(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(h, infinity, infinity, keys(1,2)).
    r1 h(@Y,Z) :- link(@X,Y,C), a(@X,Z).
  )");
  const Tuple a0("a", {Value::Address(0), Value::Int(5)});
  const Tuple a2("a", {Value::Address(2), Value::Int(5)});
  const Tuple h("h", {Value::Address(1), Value::Int(5)});
  ASSERT_TRUE(w.at(0).Insert(a0).ok());
  ASSERT_TRUE(w.at(2).Insert(a2).ok());
  w.sim().Run();
  ASSERT_EQ(w.at(1).CountOf(h), 2);
  const Vid hv = TupleVid(h.name(), h.fields());
  ASSERT_EQ(w.EdgesFor(1, hv).size(), 2u);
  ASSERT_EQ(w.ExecsOf(0, "r1").size(), 1u);
  ASSERT_EQ(w.ExecsOf(2, "r1").size(), 1u);

  ASSERT_TRUE(w.at(0).Delete(a0).ok());
  w.sim().Run();
  EXPECT_EQ(w.at(1).CountOf(h), 1);
  EXPECT_TRUE(w.ExecsOf(0, "r1").empty());
  std::vector<Tuple> execs = w.ExecsOf(2, "r1");
  ASSERT_EQ(execs.size(), 1u);
  std::vector<Tuple> edges = w.EdgesFor(1, hv);
  ASSERT_EQ(edges.size(), 1u);
  // The surviving edge names node 2's execution, whose inputs are still
  // there.
  EXPECT_EQ(edges[0].field(2), execs[0].field(1));
  EXPECT_EQ(edges[0].field(3), Value::Address(2));
  EXPECT_EQ(w.at(1).CountOf(Tuple(kProvTable, edges[0].fields())), 1);
  EXPECT_EQ(ValueToVid(execs[0].field(1)),
            RuleExecRid("r1", 2,
                        {TupleVid("link", Link(2, 1).fields()),
                         TupleVid(a2.name(), a2.fields())}));
}

TEST(EngineProvenanceTest, EventHeadRetractsItsProvenanceButNotTheEvent) {
  LineWorld w(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(pong, infinity, infinity, keys(1,2)).
    r1 ping(@Y,X) :- link(@X,Y,C).
    r2 pong(@Y,X) :- ping(@Y,X).
  )");
  const Tuple ping("ping", {Value::Address(1), Value::Address(0)});
  const Tuple pong("pong", {Value::Address(1), Value::Address(0)});
  const Vid ping_vid = TupleVid(ping.name(), ping.fields());
  ASSERT_EQ(w.at(1).CountOf(pong), 1);
  ASSERT_EQ(w.ExecsOf(0, "r1").size(), 1u);
  ASSERT_EQ(w.EdgesFor(1, ping_vid).size(), 1u);

  ASSERT_TRUE(w.at(0).Delete(Link(0, 1)).ok());
  w.sim().Run();
  // The firing's ruleExec row (node 0) and prov edge (node 1) go; the
  // event itself is never retracted, so pong stays.
  EXPECT_TRUE(w.ExecsOf(0, "r1").empty());
  EXPECT_TRUE(w.EdgesFor(1, ping_vid).empty());
  EXPECT_EQ(w.at(1).CountOf(pong), 1);
  EXPECT_EQ(w.ExecsOf(1, "r1").size(), 2u);  // node 1's links are untouched
  for (NodeId n = 0; n < w.size(); ++n) {
    EXPECT_EQ(w.at(n).stats().eval_errors, 0u) << w.at(n).last_error();
  }
}

TEST(EngineProvenanceTest, MaybeRuleRecordsAMaybeEdgeOnly) {
  LineWorld w(protocols::BgpMaybeProgram(), /*install_links=*/false);
  auto route = [](std::vector<NodeId> hops) {
    ValueList out;
    for (NodeId h : hops) out.push_back(Value::Address(h));
    return Value::List(std::move(out));
  };
  const Tuple in("inputRoute", {Value::Address(0), Value::Address(5),
                                Value::Int(100), route({5, 9})});
  const Tuple out("outputRoute", {Value::Address(0), Value::Address(3),
                                  Value::Int(100), route({0, 5, 9})});
  ASSERT_TRUE(w.at(0).Insert(in).ok());
  ASSERT_TRUE(w.at(0).Insert(out).ok());
  w.sim().Run();

  // The observed output is the only outputRoute: the rule never derives it.
  EXPECT_EQ(w.at(0).TableContents("outputRoute").size(), 1u);
  EXPECT_EQ(w.at(0).CountOf(out), 1);
  const Vid out_vid = TupleVid(out.name(), out.fields());
  const Vid in_vid = TupleVid(in.name(), in.fields());
  std::vector<Tuple> edges = w.EdgesFor(0, out_vid);
  ASSERT_EQ(edges.size(), 1u);
  const Vid rid = RuleExecRid("br1", 0, {in_vid});
  EXPECT_EQ(edges[0].fields(),
            (ValueList{Value::Address(0), VidToValue(out_vid),
                       VidToValue(rid), Value::Address(0), Value::Int(1)}));
  std::vector<Tuple> execs = w.ExecsOf(0, "br1");
  ASSERT_EQ(execs.size(), 1u);
  // The VID list covers the original body (inputRoute), not the head.
  EXPECT_EQ(execs[0].fields(),
            (ValueList{Value::Address(0), VidToValue(rid), Value::Str("br1"),
                       Value::List({VidToValue(in_vid)})}));

  // Withdrawing the input retracts the inference.
  ASSERT_TRUE(w.at(0).Delete(in).ok());
  w.sim().Run();
  EXPECT_TRUE(w.EdgesFor(0, out_vid).empty());
  EXPECT_TRUE(w.ExecsOf(0, "br1").empty());
  EXPECT_EQ(w.at(0).CountOf(out), 1);
}

}  // namespace
}  // namespace provenance
}  // namespace nettrails
