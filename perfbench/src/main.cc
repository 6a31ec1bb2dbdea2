// nettrails_perfbench: runs one benchmark workload and prints its metrics.
//
//   nettrails_perfbench --workload converge|churn|query --seed N
//                       --seconds S --trace 0|1 [--root DIR]
//                       [--trace-out FILE] [--source-id ID]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it carry the
// run record (host, build, seed, settings), per-workload details and the
// first failures. Exits 1 when an output check failed, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/engine.h"
#include "src/workloads.h"

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(m.name) + "\": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  return out + "}";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: nettrails_perfbench --workload "
               "converge|churn|query --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--trace-out FILE] [--source-id ID]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string source_id = "unknown";
  bool have_workload = false;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opts.threads = std::min(4u, nproc);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--root") {
      opts.root = value;
    } else if (flag == "--trace-out") {
      opts.trace_path = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !perfbench::IsWorkload(opts.workload)) {
    return Usage("--workload must be converge, churn or query");
  }

  std::printf(
      "run_record {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"source_id\": \"%s\", \"nproc\": %u, "
      "\"sim_threads\": %u, \"batch_size\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\"}\n",
      JsonEscape(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed),
      JsonNumber(opts.seconds).c_str(), opts.trace ? 1 : 0,
      JsonEscape(source_id).c_str(), nproc, opts.threads,
      nettrails::runtime::EngineOptions{}.batch_size, PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER);
  std::fflush(stdout);

  const perfbench::RunResult r = perfbench::RunWorkload(opts);
  for (const std::string& e : r.errors) {
    std::printf("failure %s\n", JsonEscape(e).c_str());
  }
  std::printf("details %s\n", MetricsJson(r.details).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      MetricsJson(r.metrics).c_str());
  return r.correct ? 0 : 1;
}
