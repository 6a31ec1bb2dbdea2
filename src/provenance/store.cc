#include "src/provenance/store.h"

#include <algorithm>

#include "src/provenance/rewrite.h"
#include "src/runtime/builtins.h"

namespace nettrails {
namespace provenance {

using runtime::Table;
using runtime::ValueToVid;

namespace {

/// Id of the planner's index on `table`'s key field, or -1.
int KeyIndexOf(const runtime::CompiledProgram& prog, const char* table) {
  auto it = prog.table_indexes.find(table);
  if (!prog.provenance || it == prog.table_indexes.end()) return -1;
  const std::vector<std::vector<int>>& specs = it->second;
  auto sit = std::find(specs.begin(), specs.end(),
                       std::vector<int>{kProvKeyField});
  return sit == specs.end() ? -1 : static_cast<int>(sit - specs.begin());
}

// prov(@Loc, VID, RID, RLoc, Maybe)
ProvEdge EdgeOf(const Table::Row& row, NodeId here) {
  const ValueList& f = row.fields;
  return ProvEdge{ValueToVid(f[2]),
                  f[3].is_address() ? f[3].as_address() : here,
                  f[4].Truthy(), row.count};
}

// ruleExec(@RLoc, RID, RuleName, VidList)
ExecEntry ExecOf(const Table::Row& row) {
  const ValueList& f = row.fields;
  ExecEntry exec;
  exec.rule = f[2].is_string() ? f[2].as_string() : "?";
  if (f[3].is_list()) {
    for (const Value& v : f[3].as_list()) exec.inputs.push_back(ValueToVid(v));
  }
  exec.count = row.count;
  return exec;
}

}  // namespace

ProvStore::ProvStore(const runtime::Engine* engine)
    : engine_(engine),
      prov_index_(KeyIndexOf(engine->program(), kProvTable)),
      rule_exec_index_(KeyIndexOf(engine->program(), kRuleExecTable)) {}

const Table* ProvStore::View(const char* table, int index_id) const {
  return index_id < 0 ? nullptr : engine_->GetTable(table);
}

template <typename Fn>
void ProvStore::ForEachRow(const char* table, int index_id, Vid vid,
                           Fn&& fn) const {
  const Table* t = View(table, index_id);
  const std::vector<Table::RowHandle>* rows =
      t == nullptr ? nullptr : t->Probe(index_id, {runtime::VidToValue(vid)});
  if (rows == nullptr) return;
  for (Table::RowHandle h : *rows) {
    const Table::Row& row = t->Deref(h);
    // Buckets are keyed by hash alone: skip colliding keys.
    if (ValueToVid(row.fields[kProvKeyField]) == vid) fn(row);
  }
}

std::vector<ProvEdge> ProvStore::EdgesFor(Vid vid) const {
  std::vector<ProvEdge> out;
  ForEachRow(kProvTable, prov_index_, vid, [&](const Table::Row& row) {
    out.push_back(EdgeOf(row, node()));
  });
  return out;
}

std::optional<ExecEntry> ProvStore::ExecFor(Vid rid) const {
  // The RID digests the rule, its location and its inputs: one row.
  std::optional<ExecEntry> out;
  ForEachRow(kRuleExecTable, rule_exec_index_, rid,
             [&](const Table::Row& row) { out = ExecOf(row); });
  return out;
}

std::vector<Vid> ProvStore::AllVids() const {
  std::vector<Vid> out;
  if (const Table* prov = View(kProvTable, prov_index_)) {
    for (Table::RowHandle h : prov->OrderedView()) {
      out.push_back(ValueToVid(prov->Deref(h).fields[kProvKeyField]));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t ProvStore::edge_count() const {
  const Table* prov = View(kProvTable, prov_index_);
  return prov == nullptr ? 0 : prov->size();
}

size_t ProvStore::exec_count() const {
  const Table* execs = View(kRuleExecTable, rule_exec_index_);
  return execs == nullptr ? 0 : execs->size();
}

std::string ProvStore::CanonicalGraph() const {
  std::vector<std::string> lines;
  if (const Table* prov = View(kProvTable, prov_index_)) {
    for (Table::RowHandle h : prov->OrderedView()) {
      const Table::Row& row = prov->Deref(h);
      const ProvEdge e = EdgeOf(row, node());
      lines.push_back(
          "edge " + std::to_string(ValueToVid(row.fields[kProvKeyField])) +
          " <- rid=" + std::to_string(e.rid) + " @" + std::to_string(e.rloc) +
          (e.maybe ? " maybe" : "") + " x" + std::to_string(e.count));
    }
  }
  if (const Table* execs = View(kRuleExecTable, rule_exec_index_)) {
    for (Table::RowHandle h : execs->OrderedView()) {
      const Table::Row& row = execs->Deref(h);
      const ExecEntry exec = ExecOf(row);
      std::string line =
          "exec " + std::to_string(ValueToVid(row.fields[kProvKeyField])) +
          " " + exec.rule + "(";
      for (size_t i = 0; i < exec.inputs.size(); ++i) {
        if (i > 0) line += ",";
        line += std::to_string(exec.inputs[i]);
      }
      line += ") x" + std::to_string(exec.count);
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace provenance
}  // namespace nettrails
