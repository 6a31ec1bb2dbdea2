// Whole-program static analysis (ndlint) for NDlog: stratification, type
// inference, link-restriction, dead-code, and plan-quality passes over an
// analyzed (pre-localization) program. Findings are Diagnostics with stable
// codes (see diagnostics.h); LintProgram never fails — severity decides
// whether the compile pipeline turns a finding into a PlanError.
#ifndef NETTRAILS_NDLOG_LINT_H_
#define NETTRAILS_NDLOG_LINT_H_

#include <set>
#include <string>
#include <vector>

#include "src/ndlog/analysis.h"
#include "src/ndlog/diagnostics.h"

namespace nettrails {
namespace ndlog {

struct LintOptions {
  /// Predicates whose first two fields are (src, dst) of a physical link.
  /// The link-restriction pass (ND303) accepts shipping a derived head one
  /// hop along args[1] of such an atom; everything else is flagged.
  std::set<std::string> link_predicates = {"link"};
  /// Diagnostic codes to drop from the result (merged with the in-source
  /// `// ndlint: allow(NDxxx)` pragmas by callers that hold the source).
  std::vector<std::string> allow;
};

/// Scans NDlog source text for suppression pragmas of the form
/// `// ndlint: allow(ND303)` or `// ndlint: allow(ND303, ND403)`.
/// Suppressions are file-scoped. Returns the allowed codes.
std::vector<std::string> ParseLintPragmas(const std::string& source);

/// Runs every lint pass over `analyzed`. The program must be the
/// pre-localization user program (generated localization/provenance rules
/// would trip dead-code and link lints by construction); the plan-quality
/// pass localizes it itself, as Compile does. Findings come back sorted by
/// source position.
DiagnosticEngine LintProgram(const AnalyzedProgram& analyzed,
                             const LintOptions& options = {});

}  // namespace ndlog
}  // namespace nettrails

#endif  // NETTRAILS_NDLOG_LINT_H_
