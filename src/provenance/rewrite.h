// The ExSPAN automatic rule-rewriting algorithm (Zhou et al., SIGMOD 2010;
// Section 2.2 of the NetTrails paper): takes an NDlog program and outputs a
// modified program with additional rules that capture the program's
// provenance as distributed relational views.
//
// For every (localized) rule  rk: h(@H, A...) :- b1(@L,...), ..., bn(@L,...)
// the rewrite emits an execution-history view plus three consumers:
//
//   rk_eh:  eh_rk(@L, H, A..., Vids) :- b1...bn, quals,
//               NT_V1 := f_mkvid("b1", ...), ..., NT_Vids := f_list(...)
//   rk_hd:  h(@H, A...)                  :- eh_rk(@L, H, A..., Vids).
//   rk_re:  ruleExec(@L, RID, "rk", Vids):- eh_rk(...), RID := f_mkrid(...).
//   rk_pr:  prov(@H, VID, RID, L, 0)     :- eh_rk(...), VID := f_mkvid(...).
//
// Base tables get self-edges:  prov(@L, VID, VID, L, 0) :- b(@L, ...).
//
// Maybe rules (h ?- body) become provenance-only rules: the head atom joins
// as the first body atom (the head tuple arrives externally, e.g. from the
// legacy-application proxy) and the emitted prov edge carries Maybe = 1. No
// head-derivation rule is produced.
//
// Aggregate rules pass through unchanged; the engine records their
// provenance directly (the contributions achieving the aggregate value),
// using the same VID/RID digests.
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
inline constexpr size_t kRuleExecArity = 4;

/// Field position of prov's VID and of ruleExec's RID. The planner indexes
/// both views on it and the provenance store looks rows up through it.
inline constexpr int kProvKeyField = 1;

/// Prefix of generated execution-history views: eh_<rulename>.
inline constexpr char kEhPrefix[] = "eh_";

/// True for predicates the rewrite owns (user programs must not define
/// them): prov, ruleExec, eh_*.
bool IsProvenancePredicate(const std::string& name);

/// Applies the rewrite. Requires a localized program (single body location
/// per rule) with unique rule names.
Result<ndlog::Program> RewriteForProvenance(const ndlog::AnalyzedProgram& prog);

}  // namespace provenance
}  // namespace nettrails

#endif  // NETTRAILS_PROVENANCE_REWRITE_H_
