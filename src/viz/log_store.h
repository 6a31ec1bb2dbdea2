// The central Log Store of Figure 1: collects periodic per-node snapshots
// and link events, and supports replay — the demo pauses the network at a
// given time and views any node's provenance as of that snapshot.
#ifndef NETTRAILS_VIZ_LOG_STORE_H_
#define NETTRAILS_VIZ_LOG_STORE_H_

#include <string>
#include <vector>

#include "src/net/simulator.h"
#include "src/runtime/engine.h"
#include "src/viz/snapshot.h"

namespace nettrails {
namespace viz {

/// One recorded topology event (for the RapidNet-visualizer timeline).
struct LinkEvent {
  net::Time time = 0;
  NodeId a = 0;
  NodeId b = 0;
  bool up = true;
};

struct LogStoreOptions {
  /// Capture the provenance tables prov/ruleExec in snapshots.
  bool include_provenance = true;
};

class LogStore {
 public:
  using Options = LogStoreOptions;

  /// Observes `engines` (indexed by node id) and link events on `sim`.
  LogStore(net::Simulator* sim, std::vector<runtime::Engine*> engines,
           Options options = Options());

  /// Captures a system-wide snapshot now.
  const SystemSnapshot& CaptureNow();

  /// Schedules periodic captures every `period` until `until`.
  void CapturePeriodically(net::Time period, net::Time until);

  const std::vector<SystemSnapshot>& snapshots() const { return snapshots_; }
  const std::vector<LinkEvent>& link_events() const { return link_events_; }

  /// Latest snapshot at or before `t` (nullptr if none) — the replay
  /// operation behind the demo's "pause the network at a given time".
  const SystemSnapshot* SnapshotAt(net::Time t) const;

  /// Tuples of `table` at node `node` as of the snapshot at/before `t`.
  std::vector<Tuple> TableAt(net::Time t, NodeId node,
                             const std::string& table) const;

 private:
  net::Simulator* sim_;
  std::vector<runtime::Engine*> engines_;
  Options options_;
  std::vector<SystemSnapshot> snapshots_;
  std::vector<LinkEvent> link_events_;
};

}  // namespace viz
}  // namespace nettrails

#endif  // NETTRAILS_VIZ_LOG_STORE_H_
