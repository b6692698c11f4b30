// In-memory span recorder for the traced run (--trace 1). Spans wrap the
// benchmark's own calls into the program's public functions: going down,
// shutdown, Start, the first query, each query, each ingest batch, each
// host probe. Spans of one restart cycle share the cycle's id. Nothing is
// written until the run ends. When tracing is off every call is a branch
// on a null recorder.
#ifndef RESTARTBENCH_TRACE_H_
#define RESTARTBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace restartbench {

inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    uint32_t parent;  // index + 1 of the enclosing span, 0 for roots
    uint32_t cycle;   // restart cycle the span belongs to, 0 = set-up
    int64_t start_us;
    int64_t end_us;
  };

  void set_cycle(uint32_t cycle) { cycle_ = cycle; }

  /// Opens a span nested under the innermost open one; returns its handle.
  uint32_t Begin(const char* name) {
    uint32_t parent = open_.empty() ? 0 : open_.back();
    spans_.push_back(Span{name, parent, cycle_, NowMicros(), 0});
    uint32_t handle = static_cast<uint32_t>(spans_.size());
    open_.push_back(handle);
    return handle;
  }
  void End(uint32_t handle) {
    spans_[handle - 1].end_us = NowMicros();
    if (!open_.empty() && open_.back() == handle) open_.pop_back();
  }

  size_t size() const { return spans_.size(); }

  /// Per-name count, total and self time (duration minus the part its
  /// direct children cover).
  struct Summary {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Summary> Summarize() const {
    std::vector<int64_t> child_us(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_us[s.parent - 1] += s.end_us - s.start_us;
    }
    std::map<std::string, Summary> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Summary& sum = out[s.name];
      ++sum.count;
      sum.total_ms += static_cast<double>(s.end_us - s.start_us) / 1e3;
      sum.self_ms +=
          static_cast<double>(s.end_us - s.start_us - child_us[i]) / 1e3;
    }
    return out;
  }

  /// Writes every span plus the per-name summary as one JSON document.
  bool WriteJson(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s,\n\"summary\": {", header.c_str());
    bool first = true;
    for (const auto& [name, s] : Summarize()) {
      std::fprintf(f,
                   "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.3f, "
                   "\"self_ms\": %.3f}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(s.count), s.total_ms,
                   s.self_ms);
      first = false;
    }
    std::fprintf(f, "},\n\"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"id\": %zu, \"parent\": %u, \"cycle\": %u, "
                   "\"name\": \"%s\", \"start_us\": %lld, \"dur_us\": %lld}",
                   i == 0 ? "" : ",", i + 1, s.parent, s.cycle, s.name,
                   static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us - s.start_us));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint32_t cycle_ = 0;
};

/// RAII span on an optional recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), handle_(rec != nullptr ? rec->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint32_t handle_;
};

}  // namespace restartbench

#endif  // RESTARTBENCH_TRACE_H_
