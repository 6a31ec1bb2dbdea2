// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around its calls into each library module (the span
// name's prefix up to the first '.' is the layer), kept in memory, and
// written once at the end as a Chrome trace-event file. A disabled tracer
// records nothing.
#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index of the enclosing span, -1 for a root
    uint64_t op;     // op id shared by all spans of one op (0 = set-up)
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Op id stamped on spans begun from now on.
  void set_op(uint64_t op) { op_ = op; }

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when disabled. `name` must outlive the tracer.
  int32_t Begin(const char* name);
  void End(int32_t span);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), span_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t span_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus direct children's durations) summed per
  /// span name over the spans whose op id is in [op_lo, op_hi].
  std::map<std::string, int64_t> SelfNsByName(uint64_t op_lo,
                                              uint64_t op_hi) const;

  /// Writes the spans as a Chrome trace-event JSON file.
  nettrails::Status WriteChromeTrace(const std::string& path) const;

  static std::string LayerOf(const char* name);

 private:
  int64_t NowNs() const;

  bool enabled_;
  uint64_t op_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
