// Builtin NDlog functions (the f_* library). Includes the list/path helpers
// used by the routing protocols, the BGP route matcher f_isExtend from the
// paper's maybe rule, and the VID/RID digest functions (f_mkvid/f_mkrid,
// equal to the digests the engine records provenance with).
#ifndef NETTRAILS_RUNTIME_BUILTINS_H_
#define NETTRAILS_RUNTIME_BUILTINS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/common/value.h"

namespace nettrails {
namespace runtime {

using BuiltinFn = std::function<Result<Value>(const std::vector<Value>&)>;

/// Bitmask over Value kinds, used by the builtin type contracts and the
/// ndlint type-inference lattice (a field/variable's possible runtime
/// kinds; masks only ever shrink during inference, and an empty mask is a
/// type conflict).
using TypeMask = uint8_t;

namespace typemask {
inline constexpr TypeMask kInt = 1u << 0;
inline constexpr TypeMask kDouble = 1u << 1;
inline constexpr TypeMask kString = 1u << 2;
inline constexpr TypeMask kAddress = 1u << 3;
inline constexpr TypeMask kList = 1u << 4;
inline constexpr TypeMask kNumeric = kInt | kDouble;
inline constexpr TypeMask kAny = kInt | kDouble | kString | kAddress | kList;
}  // namespace typemask

/// Human rendering of a mask, e.g. "int|address" or "any".
std::string TypeMaskName(TypeMask mask);

/// A registered builtin: the callable plus its arity and type contracts.
/// The planner lowers Call expressions against this at compile time, so
/// unknown-builtin and arity errors are rejected when a program is compiled
/// instead of on the first rule firing (the functions still validate arity
/// themselves for direct invocations, e.g. from tests). The type contract
/// drives ndlint's type-inference pass: `arg_types` covers the leading
/// fixed arguments, `rest_type` any variadic remainder, `result_type` the
/// return value.
struct BuiltinInfo {
  BuiltinFn fn;
  int min_args = 0;
  int max_args = -1;  // -1 = unbounded (variadic)
  std::vector<TypeMask> arg_types;
  TypeMask rest_type = typemask::kAny;
  TypeMask result_type = typemask::kAny;
};

/// Looks up a builtin by name ("f_append", ...). Returns nullptr if unknown.
const BuiltinFn* FindBuiltin(const std::string& name);

/// Looks up a builtin with its arity contract. Returns nullptr if unknown.
const BuiltinInfo* FindBuiltinInfo(const std::string& name);

/// True if `name` is a registered builtin.
bool IsBuiltin(const std::string& name);

/// All registered builtin names (for diagnostics and docs).
std::vector<std::string> BuiltinNames();

/// VID of tuple `name(fields...)` as the engine computes it. The f_mkvid
/// builtin digests the same way, so declarative and engine-computed VIDs
/// agree bit-for-bit.
Vid TupleVid(const std::string& name, const ValueList& fields);

/// RID of a rule execution: digest of (rule name, executing node, input VID
/// list). Mirrors the f_mkrid builtin.
Vid RuleExecRid(const std::string& rule_name, NodeId loc,
                const std::vector<Vid>& vids);

/// Vids encode into Value as Int (bit-cast); these convert losslessly.
Value VidToValue(Vid vid);
Vid ValueToVid(const Value& v);

}  // namespace runtime
}  // namespace nettrails

#endif  // NETTRAILS_RUNTIME_BUILTINS_H_
