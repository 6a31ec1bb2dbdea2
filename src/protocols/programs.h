// The declarative protocol library from the demonstration plan: MINCOST
// (pair-wise minimal path costs), the path-vector protocol, and dynamic
// source routing (DSR), plus the "maybe"-rule program used for the legacy
// BGP use case. All are NDlog sources compiled by runtime::Compile.
#ifndef NETTRAILS_PROTOCOLS_PROGRAMS_H_
#define NETTRAILS_PROTOCOLS_PROGRAMS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/topology.h"
#include "src/runtime/engine.h"

namespace nettrails {
namespace protocols {

/// MINCOST: computes pair-wise minimal path costs (the protocol of Figures
/// 2 and 3). Recursion through a_min; terminates with positive costs.
const char* MincostProgram();

/// Path-vector: full paths with loop avoidance (f_member), plus best-path
/// selection. Requires localization (the canonical sp2-style rule).
const char* PathVectorProgram();

/// Dynamic source routing: on-demand route discovery with route-request
/// flooding (rreq/rrep events) into a materialized route table.
const char* DsrProgram();

/// Link-state protocol (OSPF-style): every node originates one link-state
/// advertisement per adjacent link and floods it hop-by-hop (the recorded
/// flood path bounds the flood, the NDlog analogue of OSPF's
/// sequence-number dedup), giving each node a replicated link-state
/// database (lsdb) of the whole topology; a purely local SPF pass
/// (Bellman-Ford through the a_min-aggregated spf table, cost-bounded like
/// MINCOST) turns the database into shortest-path distances. Convergence
/// oracle: spf at every node equals Dijkstra over the topology, and every
/// lsdb holds exactly both directions of every live link.
const char* LinkStateProgram();

/// The legacy-BGP provenance program: inputRoute/outputRoute tables plus
/// the paper's maybe rule br1 with f_isExtend.
const char* BgpMaybeProgram();

/// Creates one engine per topology node, all sharing `program`.
std::vector<std::unique_ptr<runtime::Engine>> MakeEngines(
    net::Simulator* sim, const net::Topology& topo,
    runtime::CompiledProgramPtr program,
    const runtime::EngineOptions& opts = {});

/// Non-owning view (e.g. for ProvenanceQuerier).
std::vector<runtime::Engine*> EnginePtrs(
    const std::vector<std::unique_ptr<runtime::Engine>>& engines);

/// Inserts link(@a,b,c) and link(@b,a,c) base tuples for every topology
/// edge, then runs the simulator to convergence if `run_to_quiescence`.
Status InstallLinks(const net::Topology& topo,
                    std::vector<std::unique_ptr<runtime::Engine>>* engines,
                    net::Simulator* sim, bool run_to_quiescence = true);

/// Deletes both directions of one link's tuples (protocol-level failure:
/// the physical channel stays up so retraction deltas can propagate, which
/// is how declarative-networking experiments model link failure).
Status FailLink(NodeId a, NodeId b, int64_t cost,
                std::vector<std::unique_ptr<runtime::Engine>>* engines,
                net::Simulator* sim, bool run_to_quiescence = true);

/// Re-inserts both directions of a link's tuples.
Status RecoverLink(NodeId a, NodeId b, int64_t cost,
                   std::vector<std::unique_ptr<runtime::Engine>>* engines,
                   net::Simulator* sim, bool run_to_quiescence = true);

/// Starts a DSR route discovery: injects rreq(@src, src, dst, [src]).
Status StartDsrDiscovery(runtime::Engine* engine, NodeId src, NodeId dst);

/// Crashes node `v`: takes its physical links down in the simulator (frames
/// in flight to/from v are swallowed and counted as fault drops), halts its
/// engine (pending work discarded, timers fenced), and has each topology
/// neighbor retract its link tuple toward v so the failure propagates
/// protocol-level exactly as neighbors would detect it.
Status CrashNode(NodeId v, const net::Topology& topo,
                 std::vector<std::unique_ptr<runtime::Engine>>* engines,
                 net::Simulator* sim, bool run_to_quiescence = true);

/// Restarts node `v` from `ckpt`: brings its links back up, restores the
/// engine checkpoint, reconciles away restored remote-grounded derivations
/// that may be stale (v missed retractions addressed to it while down),
/// then cycles v's link tuples on both endpoints to trigger
/// re-announcement and re-convergence. Provenance stores and query caches
/// need no call here: they read the restored tables and version.
Status RestartNode(NodeId v, const runtime::EngineCheckpoint& ckpt,
                   const net::Topology& topo,
                   std::vector<std::unique_ptr<runtime::Engine>>* engines,
                   net::Simulator* sim, bool run_to_quiescence = true);

}  // namespace protocols
}  // namespace nettrails

#endif  // NETTRAILS_PROTOCOLS_PROGRAMS_H_
