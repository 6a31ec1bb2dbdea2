// Output checks that do not trust the engine: routing state is compared
// against shortest paths computed here from the links that are up, query
// answers against an uncached re-run, and engine/simulator health against
// the invariants the library documents. Every check takes plain snapshots
// so the tests can hand it a deliberately perturbed table.
#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/net/simulator.h"
#include "src/net/topology.h"
#include "src/runtime/engine.h"

namespace perfbench {

using nettrails::NodeId;
using nettrails::Status;
using nettrails::Tuple;

inline constexpr int64_t kUnreachable = std::numeric_limits<int64_t>::max();

/// dist[a][b], kUnreachable when b cannot be reached from a.
using Dist = std::vector<std::vector<int64_t>>;

/// rows[n]: the rows of one table at node n.
using NodeRows = std::vector<std::vector<Tuple>>;

/// All-pairs shortest path costs by Floyd-Warshall.
Dist FloydWarshall(size_t num_nodes,
                   const std::vector<nettrails::net::CostedLink>& links);

/// Shortest path costs from every source by Dijkstra, with the number of
/// distinct shortest paths per pair (every cost is positive, so each
/// shortest path is loop-free).
struct ShortestPaths {
  Dist dist;
  std::vector<std::vector<uint64_t>> count;
};
ShortestPaths AllPairsDijkstra(
    size_t num_nodes, const std::vector<nettrails::net::CostedLink>& links);

/// The links of `topo` whose index is not in `down`.
std::vector<nettrails::net::CostedLink> LiveLinks(
    const nettrails::net::Topology& topo, const std::vector<size_t>& down);

/// Rows of `table` at every engine, in node order.
NodeRows Snapshot(const std::vector<nettrails::runtime::Engine*>& engines,
                  const std::string& table);

/// Each node X holds mincost(@X,Z,C) exactly for the Z != X that X
/// reaches, with C the shortest path cost.
Status CheckMincost(const NodeRows& mincost, const Dist& expected);

/// Each node X holds bestcost(@X,Z,C) exactly for the reachable Z != X
/// with C the shortest path cost, and bestpath(@X,Z,C,P) rows that are
/// exactly the distinct shortest paths: each P runs from X to Z over live
/// links without revisiting a node, and its link costs sum to C.
Status CheckPathVector(const NodeRows& bestcost, const NodeRows& bestpath,
                       const ShortestPaths& expected,
                       const std::vector<nettrails::net::CostedLink>& live);

/// The parts of a provenance query answer the cached and uncached paths
/// must agree on.
struct Answer {
  int64_t count = 0;
  std::vector<nettrails::Vid> leaves;  // sorted
  std::set<NodeId> nodes;
  bool truncated = false;
};
Status CheckSameAnswer(const Answer& cached, const Answer& fresh);

/// No engine overflowed or recorded an evaluation error, and at
/// quiescence every message sent was delivered or dropped.
Status CheckHealth(const std::vector<nettrails::runtime::Engine*>& engines,
                   const nettrails::net::Simulator& sim);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
