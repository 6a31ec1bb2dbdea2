#include "src/tracer.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent, op_});
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t span) {
  if (span < 0) return;
  spans_[span].end_ns = NowNs();
  // Spans close in stack order; tolerate an out-of-order close by popping
  // through it.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

std::string Tracer::LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

std::map<std::string, int64_t> Tracer::SelfNsByName(uint64_t op_lo,
                                                    uint64_t op_hi) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op < op_lo || s.op > op_hi) continue;
    out[s.name] += (s.end_ns - s.start_ns) - child_ns[i];
  }
  return out;
}

nettrails::Status Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return nettrails::Status::IoError("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), i, s.parent);
  }
  std::fputs("]}\n", f);
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    return nettrails::Status::IoError("write failed: " + path);
  }
  return nettrails::Status::OK();
}

}  // namespace perfbench
