#include "src/oracle.h"

#include <algorithm>
#include <map>
#include <queue>
#include <utility>

namespace perfbench {

using nettrails::ValueList;
using nettrails::net::CostedLink;

namespace {

std::vector<std::vector<std::pair<NodeId, int64_t>>> Adjacency(
    size_t n, const std::vector<CostedLink>& links) {
  std::vector<std::vector<std::pair<NodeId, int64_t>>> adj(n);
  for (const CostedLink& l : links) {
    adj[l.a].push_back({l.b, l.cost});
    adj[l.b].push_back({l.a, l.cost});
  }
  return adj;
}

Status Mismatch(const std::string& what, NodeId node,
                const std::string& detail) {
  return Status::RuntimeError(what + " at node " + std::to_string(node) +
                              ": " + detail);
}

/// (dest, cost) of a 3-field row `name(@X, Z, C)` located at `node`.
Status DestCost(const Tuple& t, NodeId node, NodeId* dest, int64_t* cost) {
  if (t.arity() < 3 || !t.field(0).is_address() ||
      t.field(0).as_address() != node || !t.field(1).is_address() ||
      !t.field(2).is_int()) {
    return Mismatch("malformed row", node, t.ToString());
  }
  *dest = t.field(1).as_address();
  *cost = t.field(2).as_int();
  return Status::OK();
}

/// Checks that `rows` at `node` are exactly {(Z, dist[node][Z])} over the
/// reachable Z != node.
Status CheckCostRows(const std::string& table, const std::vector<Tuple>& rows,
                     NodeId node, const std::vector<int64_t>& dist) {
  std::map<NodeId, int64_t> seen;
  for (const Tuple& t : rows) {
    NodeId z = 0;
    int64_t c = 0;
    NT_RETURN_IF_ERROR(DestCost(t, node, &z, &c));
    if (z >= dist.size() || z == node || dist[z] == kUnreachable) {
      return Mismatch(table + " row for an unreachable destination", node,
                      t.ToString());
    }
    if (c != dist[z]) {
      return Mismatch(table + " cost " + std::to_string(c) + " != shortest " +
                          std::to_string(dist[z]),
                      node, t.ToString());
    }
    if (!seen.emplace(z, c).second) {
      return Mismatch(table + " duplicate destination", node, t.ToString());
    }
  }
  for (size_t z = 0; z < dist.size(); ++z) {
    if (z != node && dist[z] != kUnreachable && seen.count(z) == 0) {
      return Mismatch(table + " missing destination " + std::to_string(z),
                      node, "");
    }
  }
  return Status::OK();
}

}  // namespace

Dist FloydWarshall(size_t n, const std::vector<CostedLink>& links) {
  Dist d(n, std::vector<int64_t>(n, kUnreachable));
  for (size_t i = 0; i < n; ++i) d[i][i] = 0;
  for (const CostedLink& l : links) {
    d[l.a][l.b] = std::min(d[l.a][l.b], l.cost);
    d[l.b][l.a] = std::min(d[l.b][l.a], l.cost);
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (d[i][k] == kUnreachable) continue;
      for (size_t j = 0; j < n; ++j) {
        if (d[k][j] == kUnreachable) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

ShortestPaths AllPairsDijkstra(size_t n, const std::vector<CostedLink>& links) {
  const auto adj = Adjacency(n, links);
  ShortestPaths out;
  out.dist.assign(n, std::vector<int64_t>(n, kUnreachable));
  out.count.assign(n, std::vector<uint64_t>(n, 0));
  for (NodeId s = 0; s < n; ++s) {
    std::vector<int64_t>& dist = out.dist[s];
    std::vector<uint64_t>& count = out.count[s];
    using Item = std::pair<int64_t, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    dist[s] = 0;
    count[s] = 1;
    pq.push({0, s});
    std::vector<bool> done(n, false);
    while (!pq.empty()) {
      auto [du, u] = pq.top();
      pq.pop();
      if (done[u]) continue;
      done[u] = true;
      for (auto [v, w] : adj[u]) {
        const int64_t dv = du + w;
        if (dv < dist[v]) {
          dist[v] = dv;
          count[v] = count[u];
          pq.push({dv, v});
        } else if (dv == dist[v]) {
          count[v] += count[u];
        }
      }
    }
  }
  return out;
}

std::vector<CostedLink> LiveLinks(const nettrails::net::Topology& topo,
                                  const std::vector<size_t>& down) {
  std::vector<CostedLink> live;
  for (size_t i = 0; i < topo.links.size(); ++i) {
    if (std::find(down.begin(), down.end(), i) == down.end()) {
      live.push_back(topo.links[i]);
    }
  }
  return live;
}

NodeRows Snapshot(const std::vector<nettrails::runtime::Engine*>& engines,
                  const std::string& table) {
  NodeRows rows;
  rows.reserve(engines.size());
  for (const nettrails::runtime::Engine* e : engines) {
    rows.push_back(e->TableContents(table));
  }
  return rows;
}

Status CheckMincost(const NodeRows& mincost, const Dist& expected) {
  if (mincost.size() != expected.size()) {
    return Status::RuntimeError("mincost snapshot covers " +
                                std::to_string(mincost.size()) + " nodes, " +
                                "expected " + std::to_string(expected.size()));
  }
  for (NodeId x = 0; x < mincost.size(); ++x) {
    NT_RETURN_IF_ERROR(CheckCostRows("mincost", mincost[x], x, expected[x]));
  }
  return Status::OK();
}

Status CheckPathVector(const NodeRows& bestcost, const NodeRows& bestpath,
                       const ShortestPaths& expected,
                       const std::vector<CostedLink>& live) {
  const size_t n = expected.dist.size();
  if (bestcost.size() != n || bestpath.size() != n) {
    return Status::RuntimeError(
        "path-vector snapshot has the wrong node count");
  }
  std::map<std::pair<NodeId, NodeId>, int64_t> link_cost;
  for (const CostedLink& l : live) {
    link_cost[{l.a, l.b}] = l.cost;
    link_cost[{l.b, l.a}] = l.cost;
  }
  for (NodeId x = 0; x < n; ++x) {
    const std::vector<int64_t>& dist = expected.dist[x];
    NT_RETURN_IF_ERROR(CheckCostRows("bestcost", bestcost[x], x, dist));
    std::vector<uint64_t> paths(n, 0);
    std::set<std::vector<NodeId>> distinct;
    for (const Tuple& t : bestpath[x]) {
      NodeId z = 0;
      int64_t c = 0;
      NT_RETURN_IF_ERROR(DestCost(t, x, &z, &c));
      if (t.arity() != 4 || !t.field(3).is_list()) {
        return Mismatch("malformed bestpath row", x, t.ToString());
      }
      if (z >= n || dist[z] == kUnreachable || c != dist[z]) {
        return Mismatch("bestpath cost is not the shortest", x, t.ToString());
      }
      const ValueList& p = t.field(3).as_list();
      if (p.size() < 2 || !p.front().is_address() || !p.back().is_address() ||
          p.front().as_address() != x || p.back().as_address() != z) {
        return Mismatch("bestpath does not run from source to destination", x,
                        t.ToString());
      }
      std::vector<NodeId> hops;
      std::set<NodeId> visited;
      int64_t sum = 0;
      for (size_t i = 0; i < p.size(); ++i) {
        if (!p[i].is_address() || !visited.insert(p[i].as_address()).second) {
          return Mismatch("bestpath revisits a node", x, t.ToString());
        }
        hops.push_back(p[i].as_address());
        if (i == 0) continue;
        auto it = link_cost.find({hops[i - 1], hops[i]});
        if (it == link_cost.end()) {
          return Mismatch("bestpath uses a link that is down", x, t.ToString());
        }
        sum += it->second;
      }
      if (sum != c) {
        return Mismatch("bestpath link costs sum to " + std::to_string(sum),
                        x, t.ToString());
      }
      if (!distinct.insert(hops).second) {
        return Mismatch("duplicate bestpath", x, t.ToString());
      }
      ++paths[z];
    }
    for (NodeId z = 0; z < n; ++z) {
      if (z == x || dist[z] == kUnreachable) continue;
      if (paths[z] != expected.count[x][z]) {
        return Mismatch("bestpath rows to " + std::to_string(z) + ": " +
                            std::to_string(paths[z]) + " of " +
                            std::to_string(expected.count[x][z]) +
                            " shortest paths",
                        x, "");
      }
    }
  }
  return Status::OK();
}

Status CheckSameAnswer(const Answer& cached, const Answer& fresh) {
  if (cached.count != fresh.count) {
    return Status::RuntimeError("cached query count " +
                                std::to_string(cached.count) + " != uncached " +
                                std::to_string(fresh.count));
  }
  if (cached.leaves != fresh.leaves) {
    return Status::RuntimeError("cached query leaves differ from uncached (" +
                                std::to_string(cached.leaves.size()) + " vs " +
                                std::to_string(fresh.leaves.size()) + ")");
  }
  if (cached.nodes != fresh.nodes) {
    return Status::RuntimeError("cached query node set differs from uncached");
  }
  if (cached.truncated != fresh.truncated) {
    return Status::RuntimeError("cached query truncation differs");
  }
  return Status::OK();
}

Status CheckHealth(const std::vector<nettrails::runtime::Engine*>& engines,
                   const nettrails::net::Simulator& sim) {
  for (const nettrails::runtime::Engine* e : engines) {
    if (e->overflowed()) {
      return Mismatch("engine overflowed", e->id(), e->last_error());
    }
    if (!e->last_error().empty()) {
      return Mismatch("engine error", e->id(), e->last_error());
    }
    if (e->stats().eval_errors != 0) {
      return Mismatch("evaluation errors", e->id(),
                      std::to_string(e->stats().eval_errors));
    }
  }
  const nettrails::net::ChannelFaultStats f = sim.total_fault_stats();
  if (f.sent != f.delivered + f.dropped_link + f.dropped_fault) {
    return Status::RuntimeError(
        "message conservation broken: sent " + std::to_string(f.sent) +
        " != delivered " + std::to_string(f.delivered) + " + dropped " +
        std::to_string(f.dropped_link + f.dropped_fault));
  }
  return Status::OK();
}

}  // namespace perfbench
