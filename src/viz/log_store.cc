#include "src/viz/log_store.h"

#include "src/provenance/rewrite.h"

namespace nettrails {
namespace viz {

LogStore::LogStore(net::Simulator* sim, std::vector<runtime::Engine*> engines,
                   Options options)
    : sim_(sim), engines_(std::move(engines)), options_(options) {
  sim_->AddLinkObserver([this](NodeId a, NodeId b, bool up) {
    link_events_.push_back({sim_->now(), a, b, up});
  });
}

const SystemSnapshot& LogStore::CaptureNow() {
  SystemSnapshot snap;
  snap.time = sim_->now();
  for (runtime::Engine* engine : engines_) {
    NodeSnapshot ns;
    ns.node = engine->id();
    for (const auto& [name, info] : engine->program().tables) {
      if (!info.materialized) continue;
      if (provenance::IsProvenancePredicate(name) &&
          !options_.include_provenance) {
        continue;
      }
      std::vector<Tuple> contents = engine->TableContents(name);
      if (!contents.empty()) ns.tables[name] = std::move(contents);
    }
    snap.nodes.push_back(std::move(ns));
  }
  for (const auto& [a, b] : sim_->Links()) {
    const net::LinkState* ls = sim_->link(a, b);
    snap.links.push_back({a, b, ls->up, ls->traffic.messages,
                          ls->traffic.bytes});
  }
  snapshots_.push_back(std::move(snap));
  return snapshots_.back();
}

void LogStore::CapturePeriodically(net::Time period, net::Time until) {
  for (net::Time t = sim_->now() + period; t <= until; t += period) {
    sim_->ScheduleAt(t, [this]() { CaptureNow(); });
  }
}

const SystemSnapshot* LogStore::SnapshotAt(net::Time t) const {
  const SystemSnapshot* best = nullptr;
  for (const SystemSnapshot& s : snapshots_) {
    if (s.time <= t && (best == nullptr || s.time > best->time)) best = &s;
  }
  return best;
}

std::vector<Tuple> LogStore::TableAt(net::Time t, NodeId node,
                                     const std::string& table) const {
  const SystemSnapshot* snap = SnapshotAt(t);
  if (snap == nullptr) return {};
  const NodeSnapshot* ns = snap->FindNode(node);
  if (ns == nullptr) return {};
  auto it = ns->tables.find(table);
  return it == ns->tables.end() ? std::vector<Tuple>{} : it->second;
}

}  // namespace viz
}  // namespace nettrails
