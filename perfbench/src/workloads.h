// The benchmark's three workloads (cold convergence, churn, provenance
// queries under churn), their timed loops, their output checks and their
// metrics. See perfbench/README.md for what each workload stresses and
// what each metric means.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;  // converge | churn | query
  uint64_t seed = 1;
  /// Wall time the measured loop runs for. It always completes the
  /// workload's deterministic prefix, over which the traffic metrics are
  /// taken; with 0 it runs exactly that prefix.
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Repository root; topologies are read from <root>/examples/topologies.
  std::string root = ".";
  /// Chrome trace-event output of a traced run ("" = do not write).
  std::string trace_path;
  /// Simulator worker threads.
  unsigned threads = 4;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;  // the final state passed every check
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<Metric> details;  // sample counts, percentiles, virtual time
  std::vector<std::string> errors;  // the first few failures, in order
};

bool IsWorkload(const std::string& name);

/// Runs one workload. Never throws; failures land in the result.
RunResult RunWorkload(const RunOptions& opts);

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 if empty.
double Quantile(std::vector<double> values, double q);

/// The highest quantile, at most `want`, with at least 10 samples above it
/// (the median when there are too few samples for any tail).
double TailQuantileLevel(size_t samples, double want);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
