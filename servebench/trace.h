// In-memory span recorder for the benchmark's traced pass.
//
// Spans are recorded only in the benchmark's own code, around its calls into
// the library: each has a name, start, end, parent span and request id. They
// stay in memory while the pass runs and are written once, at exit, as Chrome
// trace-event JSON (opens in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr int64_t kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (kNoSpan when tracing is off).
  int64_t Begin(const char* name, int64_t parent, uint64_t request) {
    if (!enabled_) return kNoSpan;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, parent, request, now, now, ThreadIndexLocked()});
    return static_cast<int64_t>(spans_.size() - 1);
  }

  void End(int64_t span) {
    if (span == kNoSpan) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(span)].end_ns = now;
  }

  /// Span durations grouped by name: total, and self time (duration minus
  /// the part of its interval that direct children cover).
  struct NameTimes {
    size_t count = 0;
    double total_s = 0;
    double self_s = 0;
    double children_s = 0;  ///< Summed durations of direct children.
  };
  std::map<std::string, NameTimes> Summarize() const;

  /// Writes every span as a Chrome trace "complete" event. False on I/O error.
  bool WriteChromeJson(const std::string& path) const;

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

 private:
  struct Span {
    const char* name;
    int64_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t tid;
  };

  uint32_t ThreadIndexLocked() {
    const auto id = std::this_thread::get_id();
    auto it = threads_.find(id);
    if (it != threads_.end()) return it->second;
    const uint32_t idx = static_cast<uint32_t>(threads_.size());
    threads_.emplace(id, idx);
    return idx;
  }

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, uint32_t> threads_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = Tracer::kNoSpan,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace servebench
