#include "src/provenance/secure.h"

#include <deque>
#include <set>

#include "src/common/hash.h"

namespace nettrails {
namespace provenance {

KeyAuthority::KeyAuthority(uint64_t master_seed) : master_seed_(master_seed) {}

MacKey KeyAuthority::KeyFor(NodeId node) const {
  Hasher h;
  h.AddU64(master_seed_);
  h.AddString("node-key");
  h.AddU64(node);
  return h.Digest();
}

uint64_t KeyAuthority::MacEdge(const SignedEdge& edge) const {
  Hasher h;
  h.AddU64(KeyFor(edge.loc));
  h.AddString("prov-edge");
  h.AddU64(edge.vid);
  h.AddU64(edge.loc);
  h.AddU64(edge.rid);
  h.AddU64(edge.rloc);
  h.AddU64(edge.maybe ? 1 : 0);
  return h.Digest();
}

uint64_t KeyAuthority::MacExec(const SignedExec& exec) const {
  Hasher h;
  h.AddU64(KeyFor(exec.rloc));
  h.AddString("rule-exec");
  h.AddU64(exec.rid);
  h.AddU64(exec.rloc);
  h.AddString(exec.rule);
  h.AddU64(exec.inputs.size());
  for (Vid v : exec.inputs) h.AddU64(v);
  return h.Digest();
}

Evidence CollectEvidence(const std::vector<const ProvStore*>& stores,
                         const KeyAuthority& authority, NodeId root_home,
                         Vid root, size_t max_depth) {
  Evidence evidence;
  std::set<Vid> seen_tuples;
  std::set<Vid> seen_execs;
  // BFS over (tuple vid, home, depth).
  std::deque<std::tuple<Vid, NodeId, size_t>> frontier;
  frontier.push_back({root, root_home, max_depth});
  seen_tuples.insert(root);
  while (!frontier.empty()) {
    auto [vid, home, depth] = frontier.front();
    frontier.pop_front();
    if (depth == 0 || home >= stores.size()) continue;
    for (const ProvEdge& e : stores[home]->EdgesFor(vid)) {
      SignedEdge se;
      se.vid = vid;
      se.loc = home;
      se.rid = e.rid;
      se.rloc = e.rloc;
      se.maybe = e.maybe;
      se.mac = authority.MacEdge(se);
      evidence.edges.push_back(se);
      if (e.IsSelf(vid)) continue;
      if (!seen_execs.insert(e.rid).second) continue;
      const std::optional<ExecEntry> exec =
          e.rloc < stores.size() ? stores[e.rloc]->ExecFor(e.rid)
                                 : std::nullopt;
      if (!exec) continue;
      SignedExec sx;
      sx.rid = e.rid;
      sx.rloc = e.rloc;
      sx.rule = exec->rule;
      sx.inputs = exec->inputs;
      sx.mac = authority.MacExec(sx);
      evidence.execs.push_back(sx);
      for (Vid input : exec->inputs) {
        if (seen_tuples.insert(input).second) {
          // Inputs of an execution are homed at the executing node.
          frontier.push_back({input, e.rloc, depth - 1});
        }
      }
    }
  }
  return evidence;
}

VerifyResult VerifyEvidence(const Evidence& evidence,
                            const KeyAuthority& authority, Vid root) {
  VerifyResult result;

  std::map<Vid, const SignedExec*> execs;
  for (const SignedExec& sx : evidence.execs) {
    if (authority.MacExec(sx) != sx.mac) {
      result.Fail("bad MAC on rule execution " + sx.rule);
      continue;
    }
    execs[sx.rid] = &sx;
  }

  std::set<Vid> explained;  // tuples with at least one valid edge
  bool root_present = false;
  for (const SignedEdge& se : evidence.edges) {
    if (authority.MacEdge(se) != se.mac) {
      result.Fail("bad MAC on provenance edge");
      continue;
    }
    explained.insert(se.vid);
    if (se.vid == root) root_present = true;
    if (se.rid == se.vid) continue;  // base self-edge
    auto it = execs.find(se.rid);
    if (it == execs.end()) {
      result.Fail("edge references missing/invalid rule execution");
      continue;
    }
    if (it->second->rloc != se.rloc) {
      result.Fail("edge and execution disagree on the executing node");
    }
  }
  if (!root_present) {
    result.Fail("no valid provenance edge for the queried tuple");
  }

  // Input coverage: each execution input must be explained by an edge
  // (derivation or self) somewhere in the evidence — otherwise a node
  // could claim support from tuples nobody vouches for. Unexplained
  // inputs are reported; transient events are legitimately edge-free, so
  // callers decide whether those reports are fatal.
  for (const auto& [rid, sx] : execs) {
    for (Vid input : sx->inputs) {
      if (!explained.count(input)) {
        result.problems.push_back("unvouched input of rule " + sx->rule);
      }
    }
  }
  return result;
}

}  // namespace provenance
}  // namespace nettrails
