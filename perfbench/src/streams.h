// Seeded input streams for the benchmark workloads. The generators use
// their own SplitMix64 so that the inputs a seed produces depend only on
// this file, never on the library under test.
#ifndef PERFBENCH_SRC_STREAMS_H_
#define PERFBENCH_SRC_STREAMS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, portable, and identical on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n) by rejection (no modulo bias). Requires n > 0.
  uint64_t Below(uint64_t n);
  /// Uniform in [0, 1) with 53 random bits.
  double Unit();

 private:
  uint64_t state_;
};

/// Seeded permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed);

/// One churn event. `links` index the topology's link list.
struct ChurnEvent {
  enum class Kind { kFail, kRecover, kBurst };
  Kind kind = Kind::kFail;
  std::vector<size_t> links;
};

/// At most this many links are down at any point of a churn stream.
inline constexpr size_t kMaxLinksDown = 3;

/// `n` churn events over `num_links` links, all drawn from `seed`. Each
/// event is a failure, a recovery, or a burst failing 2 or 3 links at one
/// virtual instant, chosen uniformly among the kinds that keep at most
/// kMaxLinksDown links down. Failures deal links from a deck reshuffled
/// every pass, so every link fails about as often as any other;
/// recoveries pick one of the down links. The stream starts with every
/// link up and, being generated in order, a shorter stream is a prefix of
/// a longer one.
std::vector<ChurnEvent> MakeChurnStream(size_t num_links, uint64_t seed,
                                        size_t n);

/// Query flavours, in the order of query::QueryType.
enum class QueryKind { kLineage = 0, kNodeSet = 1, kDerivCount = 2 };

struct QueryOp {
  size_t target = 0;  // index into the workload's target list
  QueryKind kind = QueryKind::kLineage;
  bool verify = false;  // re-run uncached and compare
};

/// Queries between two link flaps, and the uncached re-run sample rate.
inline constexpr size_t kQueriesPerFlap = 200;
inline constexpr size_t kVerifyEvery = 20;

struct QueryStream {
  std::vector<QueryOp> queries;
  /// Link flapped after queries[(i + 1) * kQueriesPerFlap - 1].
  std::vector<size_t> flap_links;
};

/// `n` queries over `num_targets` targets, Zipf-skewed (exponent 1) over a
/// popularity ranking of the targets that is fixed for a given target
/// count (the hot set is part of the workload; the seed draws the
/// sequence); the type mix is 50% lineage, 25% node-set, 25% derivation
/// count. One flap link per kQueriesPerFlap queries, drawn from a seeded
/// deck over `num_links`.
QueryStream MakeQueryStream(size_t num_targets, size_t num_links,
                            uint64_t seed, size_t n);

/// Canonical text of a stream, for the byte-identity tests.
std::string Serialize(const std::vector<ChurnEvent>& events);
std::string Serialize(const QueryStream& stream);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STREAMS_H_
