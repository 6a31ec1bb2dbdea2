#include "src/runtime/builtins.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>

#include "src/common/hash.h"

namespace nettrails {
namespace runtime {

namespace {

/// Digest of name(values...) over a contiguous Value range. Byte-identical
/// to Tuple::Hash by construction (same AddValueRange layout) — the
/// provenance graph's declaratively computed VIDs (f_mkvid) and the
/// engine's (TupleVid) both come from here, and tests pin all three
/// against each other. List values reuse the hash cached in their shared
/// rep.
Vid DigestTuple(const std::string& name, const Value* begin,
                const Value* end) {
  Hasher h;
  h.AddString(name);
  AddValueRange(&h, begin, end);
  return h.Digest();
}

Status ArityError(const char* fn, size_t want, size_t got) {
  return Status::TypeError(std::string(fn) + " expects " +
                           std::to_string(want) + " argument(s), got " +
                           std::to_string(got));
}

Status WantList(const char* fn, const Value& v) {
  return Status::TypeError(std::string(fn) + " expects a list, got " +
                           KindName(v.kind()));
}

Result<Value> FList(const std::vector<Value>& args) {
  return Value::List(ValueList(args.begin(), args.end()));
}

Result<Value> FEmpty(const std::vector<Value>& args) {
  if (!args.empty()) return ArityError("f_empty", 0, args.size());
  return Value::List({});
}

Result<Value> FAppend(const std::vector<Value>& args) {
  if (args.size() != 2) return ArityError("f_append", 2, args.size());
  if (!args[0].is_list()) return WantList("f_append", args[0]);
  ValueList out = args[0].as_list();
  out.push_back(args[1]);
  return Value::List(std::move(out));
}

Result<Value> FPrepend(const std::vector<Value>& args) {
  if (args.size() != 2) return ArityError("f_prepend", 2, args.size());
  if (!args[1].is_list()) return WantList("f_prepend", args[1]);
  ValueList out;
  out.reserve(args[1].as_list().size() + 1);
  out.push_back(args[0]);
  for (const Value& v : args[1].as_list()) out.push_back(v);
  return Value::List(std::move(out));
}

Result<Value> FConcat(const std::vector<Value>& args) {
  if (args.size() != 2) return ArityError("f_concat", 2, args.size());
  if (args[0].is_list() && args[1].is_list()) {
    ValueList out = args[0].as_list();
    for (const Value& v : args[1].as_list()) out.push_back(v);
    return Value::List(std::move(out));
  }
  if (args[0].is_string() && args[1].is_string()) {
    return Value::Str(args[0].as_string() + args[1].as_string());
  }
  return Status::TypeError("f_concat expects two lists or two strings");
}

Result<Value> FMember(const std::vector<Value>& args) {
  if (args.size() != 2) return ArityError("f_member", 2, args.size());
  if (!args[0].is_list()) return WantList("f_member", args[0]);
  for (const Value& v : args[0].as_list()) {
    if (v == args[1]) return Value::Bool(true);
  }
  return Value::Bool(false);
}

Result<Value> FSize(const std::vector<Value>& args) {
  if (args.size() != 1) return ArityError("f_size", 1, args.size());
  if (args[0].is_list()) {
    return Value::Int(static_cast<int64_t>(args[0].as_list().size()));
  }
  if (args[0].is_string()) {
    return Value::Int(static_cast<int64_t>(args[0].as_string().size()));
  }
  return Status::TypeError("f_size expects a list or string");
}

Result<Value> FFirst(const std::vector<Value>& args) {
  if (args.size() != 1) return ArityError("f_first", 1, args.size());
  if (!args[0].is_list()) return WantList("f_first", args[0]);
  if (args[0].as_list().empty()) {
    return Status::RuntimeError("f_first of empty list");
  }
  return args[0].as_list().front();
}

Result<Value> FLast(const std::vector<Value>& args) {
  if (args.size() != 1) return ArityError("f_last", 1, args.size());
  if (!args[0].is_list()) return WantList("f_last", args[0]);
  if (args[0].as_list().empty()) {
    return Status::RuntimeError("f_last of empty list");
  }
  return args[0].as_list().back();
}

Result<Value> FNth(const std::vector<Value>& args) {
  if (args.size() != 2) return ArityError("f_nth", 2, args.size());
  if (!args[0].is_list()) return WantList("f_nth", args[0]);
  if (!args[1].is_int()) return Status::TypeError("f_nth index must be int");
  int64_t i = args[1].as_int();
  const ValueList& xs = args[0].as_list();
  if (i < 0 || static_cast<size_t>(i) >= xs.size()) {
    return Status::RuntimeError("f_nth index out of range");
  }
  return xs[static_cast<size_t>(i)];
}

Result<Value> FIndexOf(const std::vector<Value>& args) {
  if (args.size() != 2) return ArityError("f_indexof", 2, args.size());
  if (!args[0].is_list()) return WantList("f_indexof", args[0]);
  const ValueList& xs = args[0].as_list();
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == args[1]) return Value::Int(static_cast<int64_t>(i));
  }
  return Value::Int(-1);
}

Result<Value> FReverse(const std::vector<Value>& args) {
  if (args.size() != 1) return ArityError("f_reverse", 1, args.size());
  if (!args[0].is_list()) return WantList("f_reverse", args[0]);
  ValueList out(args[0].as_list().rbegin(), args[0].as_list().rend());
  return Value::List(std::move(out));
}

Result<Value> FRemoveLast(const std::vector<Value>& args) {
  if (args.size() != 1) return ArityError("f_removeLast", 1, args.size());
  if (!args[0].is_list()) return WantList("f_removeLast", args[0]);
  if (args[0].as_list().empty()) {
    return Status::RuntimeError("f_removeLast of empty list");
  }
  ValueList out = args[0].as_list();
  out.pop_back();
  return Value::List(std::move(out));
}

Result<Value> FMin(const std::vector<Value>& args) {
  if (args.size() != 2) return ArityError("f_min", 2, args.size());
  return args[0] <= args[1] ? args[0] : args[1];
}

Result<Value> FMax(const std::vector<Value>& args) {
  if (args.size() != 2) return ArityError("f_max", 2, args.size());
  return args[0] >= args[1] ? args[0] : args[1];
}

Result<Value> FAbs(const std::vector<Value>& args) {
  if (args.size() != 1) return ArityError("f_abs", 1, args.size());
  if (args[0].is_int()) {
    int64_t x = args[0].as_int();
    // llabs(INT64_MIN) is undefined: the magnitude is not representable.
    if (x == INT64_MIN) {
      return Status::RuntimeError("integer overflow in f_abs");
    }
    return Value::Int(x < 0 ? -x : x);
  }
  if (args[0].is_double()) return Value::Double(std::fabs(args[0].as_double()));
  return Status::TypeError("f_abs expects a number");
}

Result<Value> FToStr(const std::vector<Value>& args) {
  if (args.size() != 1) return ArityError("f_tostr", 1, args.size());
  return Value::Str(args[0].ToString());
}

Result<Value> FSha1(const std::vector<Value>& args) {
  if (args.size() != 1) return ArityError("f_sha1", 1, args.size());
  return VidToValue(args[0].Hash());
}

// f_isExtend(R2, R1, N): does route R2 equal R1 with node N prepended?
// This is the interdomain-routing matcher from the paper's "maybe" rule
// br1: a BGP router prefixes its identifier to incoming advertisements.
Result<Value> FIsExtend(const std::vector<Value>& args) {
  if (args.size() != 3) return ArityError("f_isExtend", 3, args.size());
  if (!args[0].is_list()) return WantList("f_isExtend", args[0]);
  if (!args[1].is_list()) return WantList("f_isExtend", args[1]);
  const ValueList& r2 = args[0].as_list();
  const ValueList& r1 = args[1].as_list();
  if (r2.size() != r1.size() + 1) return Value::Bool(false);
  if (r2.empty() || r2[0] != args[2]) return Value::Bool(false);
  for (size_t i = 0; i < r1.size(); ++i) {
    if (r2[i + 1] != r1[i]) return Value::Bool(false);
  }
  return Value::Bool(true);
}

// f_mkvid("pred", field0, field1, ...): the VID of tuple pred(fields...).
// Digests the argument values in place instead of copying them into a
// ValueList and re-walking every element (the provenance rewrite's
// base-tuple self-edge rules call it once per base-tuple action).
Result<Value> FMkVid(const std::vector<Value>& args) {
  if (args.empty() || !args[0].is_string()) {
    return Status::TypeError("f_mkvid expects a predicate name first");
  }
  return VidToValue(
      DigestTuple(args[0].as_string(), args.data() + 1, args.data() + args.size()));
}

// f_mkrid("rule", Loc, VidList): the RID of a rule execution.
Result<Value> FMkRid(const std::vector<Value>& args) {
  if (args.size() != 3 || !args[0].is_string() || !args[1].is_address() ||
      !args[2].is_list()) {
    return Status::TypeError(
        "f_mkrid expects (rule name, location, vid list)");
  }
  std::vector<Vid> vids;
  vids.reserve(args[2].as_list().size());
  for (const Value& v : args[2].as_list()) vids.push_back(ValueToVid(v));
  return VidToValue(RuleExecRid(args[0].as_string(), args[1].as_address(), vids));
}

const std::map<std::string, BuiltinInfo>& Registry() {
  using namespace typemask;  // NOLINT(build/namespaces) masks read better bare
  static const std::map<std::string, BuiltinInfo>* reg = [] {
    auto* m = new std::map<std::string, BuiltinInfo>();
    // {fn, min_args, max_args, arg_types, rest_type, result_type};
    // max -1 = variadic, with rest_type covering the tail. The type
    // contracts mirror the runtime checks inside each function — ndlint's
    // inference pass must never be stricter than the evaluator.
    (*m)["f_list"] = {FList, 0, -1, {}, kAny, kList};
    (*m)["f_empty"] = {FEmpty, 0, 0, {}, kAny, kList};
    (*m)["f_append"] = {FAppend, 2, 2, {kList, kAny}, kAny, kList};
    (*m)["f_prepend"] = {FPrepend, 2, 2, {kAny, kList}, kAny, kList};
    (*m)["f_concat"] = {FConcat, 2, 2, {kList | kString, kList | kString},
                        kAny, kList | kString};
    (*m)["f_member"] = {FMember, 2, 2, {kList, kAny}, kAny, kInt};
    (*m)["f_size"] = {FSize, 1, 1, {kList | kString}, kAny, kInt};
    (*m)["f_first"] = {FFirst, 1, 1, {kList}, kAny, kAny};
    (*m)["f_last"] = {FLast, 1, 1, {kList}, kAny, kAny};
    (*m)["f_nth"] = {FNth, 2, 2, {kList, kInt}, kAny, kAny};
    (*m)["f_indexof"] = {FIndexOf, 2, 2, {kList, kAny}, kAny, kInt};
    (*m)["f_reverse"] = {FReverse, 1, 1, {kList}, kAny, kList};
    (*m)["f_removeLast"] = {FRemoveLast, 1, 1, {kList}, kAny, kList};
    (*m)["f_min"] = {FMin, 2, 2, {kAny, kAny}, kAny, kAny};
    (*m)["f_max"] = {FMax, 2, 2, {kAny, kAny}, kAny, kAny};
    (*m)["f_abs"] = {FAbs, 1, 1, {kNumeric}, kAny, kNumeric};
    (*m)["f_tostr"] = {FToStr, 1, 1, {kAny}, kAny, kString};
    (*m)["f_sha1"] = {FSha1, 1, 1, {kAny}, kAny, kInt};
    (*m)["f_isExtend"] = {FIsExtend, 3, 3, {kList, kList, kAny}, kAny, kInt};
    (*m)["f_mkvid"] = {FMkVid, 1, -1, {kString}, kAny, kInt};
    (*m)["f_mkrid"] = {FMkRid, 3, 3, {kString, kAddress, kList}, kAny, kInt};
    return m;
  }();
  return *reg;
}

}  // namespace

std::string TypeMaskName(TypeMask mask) {
  if (mask == typemask::kAny) return "any";
  if (mask == 0) return "none";
  static const struct {
    TypeMask bit;
    const char* name;
  } kBits[] = {{typemask::kInt, "int"},
               {typemask::kDouble, "double"},
               {typemask::kString, "string"},
               {typemask::kAddress, "address"},
               {typemask::kList, "list"}};
  std::string out;
  for (const auto& b : kBits) {
    if (mask & b.bit) {
      if (!out.empty()) out += "|";
      out += b.name;
    }
  }
  return out;
}

const BuiltinFn* FindBuiltin(const std::string& name) {
  const BuiltinInfo* info = FindBuiltinInfo(name);
  return info == nullptr ? nullptr : &info->fn;
}

const BuiltinInfo* FindBuiltinInfo(const std::string& name) {
  auto it = Registry().find(name);
  return it == Registry().end() ? nullptr : &it->second;
}

bool IsBuiltin(const std::string& name) { return FindBuiltin(name) != nullptr; }

std::vector<std::string> BuiltinNames() {
  std::vector<std::string> out;
  for (const auto& [name, fn] : Registry()) out.push_back(name);
  return out;
}

Vid TupleVid(const std::string& name, const ValueList& fields) {
  // Same digest as Tuple(name, fields).Hash(), without constructing (and
  // copying into) a Tuple first — this is the engine's per-action VID path.
  return DigestTuple(name, fields.data(), fields.data() + fields.size());
}

Vid RuleExecRid(const std::string& rule_name, NodeId loc,
                const std::vector<Vid>& vids) {
  Hasher h;
  h.AddString(rule_name);
  h.AddU64(loc);
  h.AddU64(vids.size());
  for (Vid v : vids) h.AddU64(v);
  return h.Digest();
}

Value VidToValue(Vid vid) {
  int64_t as_int;
  std::memcpy(&as_int, &vid, sizeof(as_int));
  return Value::Int(as_int);
}

Vid ValueToVid(const Value& v) {
  int64_t i = v.is_int() ? v.as_int() : 0;
  Vid vid;
  std::memcpy(&vid, &i, sizeof(vid));
  return vid;
}

}  // namespace runtime
}  // namespace nettrails
