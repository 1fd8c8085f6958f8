#include "servebench/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace servebench {

std::map<std::string, Tracer::NameTimes> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Direct children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoSpan) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, NameTimes> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    // Union of the children's intervals clipped to the parent's: overlapping
    // children (none in this benchmark, but cheap to handle) count once.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0, children = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      children += hi - lo;
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    NameTimes& nt = out[s.name];
    ++nt.count;
    nt.total_s += static_cast<double>(dur) * 1e-9;
    nt.self_s += static_cast<double>(dur - covered) * 1e-9;
    nt.children_s += static_cast<double>(children) * 1e-9;
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
                 "\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench
