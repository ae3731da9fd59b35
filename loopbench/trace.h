// In-memory span recorder for the loop benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around its calls into
// the library (never inside the library): name, start, end, parent span and
// epoch id. Each thread owns one SpanLog, so recording takes no lock; the
// logs are merged and written out when the run ends. A null SpanLog pointer
// turns every ScopedSpan into a no-op, which is how the untraced run skips
// recording.
#ifndef ALEX_LOOPBENCH_TRACE_H_
#define ALEX_LOOPBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace loopbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // "<module>.<call>"; a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same log, -1 for a root
  uint32_t epoch = 0;
};

class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}

  int32_t Open(const char* name, uint32_t epoch) {
    Span span;
    span.name = name;
    span.epoch = epoch;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void Close(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per-span self time: duration minus the durations of its direct
  // children (children never overlap on one thread).
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
      }
    }
    return self;
  }

  // Tab-separated: thread, id, parent, epoch, name, start_ns, end_ns.
  void Write(std::ostream& out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << thread_ << '\t' << i << '\t' << s.parent << '\t' << s.epoch
          << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span ids
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t epoch) : log_(log) {
    if (log_ != nullptr) id_ = log_->Open(name, epoch);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_ = -1;
};

// Module of a span name: the part before the first '.'.
inline std::string ModuleOf(const char* name) {
  std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace loopbench

#endif  // ALEX_LOOPBENCH_TRACE_H_
