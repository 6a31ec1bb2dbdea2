// Localization rewrite (Loo et al., "Declarative Networking"): turns rules
// whose bodies span two nodes connected by a link-shaped predicate into
// rules whose bodies execute at a single node, with results shipped to the
// head's node. Example:
//
//   sp2 path(@X,Z,C,P) :- link(@X,Y,C1), path(@Y,Z,C2,P2), ...
//
// becomes
//
//   sp2a link_d(@Y,X,C) :- link(@X,Y,C).
//   sp2  path(@X,Z,C,P) :- link_d(@Y,X,C1), path(@Y,Z,C2,P2), ...
//
// where link_d is the automatically generated "reversed link" table stored
// at the link's destination.
#ifndef NETTRAILS_NDLOG_LOCALIZE_H_
#define NETTRAILS_NDLOG_LOCALIZE_H_

#include <optional>
#include <set>
#include <string>

#include "src/common/status.h"
#include "src/ndlog/analysis.h"

namespace nettrails {
namespace ndlog {

/// Suffix appended to a predicate name for its reversed-link table.
inline constexpr char kReversedSuffix[] = "_d";

/// Distinct location variables of `rule`'s body atoms. An atom located at
/// an @n constant adds none.
std::set<std::string> BodyLocations(const Rule& rule);

/// The connector of a rule whose body spans the two locations `locs`: the
/// index into rule.body of the first link-shaped atom l(@A, B, ...) whose
/// second argument B is the other location, with every other body atom at
/// B. Reversing that atom to l_d(@B, A, ...) localizes the rule at B.
/// nullopt when no atom qualifies.
std::optional<size_t> FindConnector(const Rule& rule,
                                    const std::set<std::string>& locs);

/// Rewrites every rule of `prog` to have a single body location. Rules
/// already local pass through. A two-location rule is rewritten when it has
/// a FindConnector atom; anything else is a PlanError. Generated
/// reversed-link tables and their deriving rules (named p_loc, with no
/// span) are inserted ahead of the first rule that needs them.
///
/// Every input rule appears in the output in input order, keeping its
/// name, its span, and the position of every body term: the connector atom
/// is replaced in place, so body term i of a localized rule is body term i
/// of the user's rule.
Result<Program> Localize(const AnalyzedProgram& prog);

}  // namespace ndlog
}  // namespace nettrails

#endif  // NETTRAILS_NDLOG_LOCALIZE_H_
