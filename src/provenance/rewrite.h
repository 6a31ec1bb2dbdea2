// The ExSPAN automatic rule-rewriting algorithm (Zhou et al., SIGMOD 2010;
// Section 2.2 of the NetTrails paper), which makes a program maintain its
// own provenance as the distributed relational views prov and ruleExec.
//
// The engine records every rule execution itself: one firing of
// rk: h(@H, A...) :- b1(@L,...), ..., bn(@L,...) emits the head, then
//
//   ruleExec(@L, RID, "rk", [V1..Vn])   RID = f_mkrid("rk", L, [V1..Vn])
//   prov(@H, VID, RID, L, 0)            VID = f_mkvid("h", H, A...)
//
// with Vi = f_mkvid("bi", ...). Bag multiplicities carry deletion (an event
// head is never retracted, but its ruleExec row and prov edge are), and
// aggregates record the contributions that achieve their value. The
// rewrite itself only
//
//   * adds base-tuple self-edges:  prov(@L, VID, VID, L, 0) :- b(@L, ...);
//   * makes maybe rules (h ?- body) provenance-only: the head atom, which
//     arrives externally (e.g. from the legacy-application proxy), joins as
//     the first body atom, and each firing records ruleExec plus a prov
//     edge with Maybe = 1 but never derives the head. Its VID list covers
//     the original body atoms only.
#ifndef NETTRAILS_PROVENANCE_REWRITE_H_
#define NETTRAILS_PROVENANCE_REWRITE_H_

#include <string>

#include "src/common/status.h"
#include "src/ndlog/analysis.h"

namespace nettrails {
namespace provenance {

/// prov(@Loc, VID, RID, RLoc, Maybe): tuple VID at Loc is derivable via
/// rule execution RID stored at RLoc; Maybe is 1 for inferred (maybe-rule)
/// edges. Base tuples carry a self-edge with RID == VID and RLoc == Loc.
inline constexpr char kProvTable[] = "prov";
inline constexpr size_t kProvArity = 5;

/// ruleExec(@RLoc, RID, RuleName, VidList): the rule execution vertex.
inline constexpr char kRuleExecTable[] = "ruleExec";

/// Field position of prov's VID and of ruleExec's RID. The planner indexes
/// both views on it and the provenance store looks rows up through it.
inline constexpr int kProvKeyField = 1;

/// True for predicates the rewrite owns (user programs must not define
/// them): prov, ruleExec.
bool IsProvenancePredicate(const std::string& name);

/// Applies the rewrite. Requires a localized program (single body location
/// per rule) with unique rule names.
Result<ndlog::Program> RewriteForProvenance(const ndlog::AnalyzedProgram& prog);

}  // namespace provenance
}  // namespace nettrails

#endif  // NETTRAILS_PROVENANCE_REWRITE_H_
