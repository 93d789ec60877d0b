// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// In-memory trace spans for the benchmark's traced run. The benchmark
// records a span around each call it makes into an engine layer (name,
// trace id, parent, start, end); the spans of one batch share a trace id.
// Spans are kept in memory while the run measures and written out as JSONL
// when it ends. A span's SELF time is its duration minus the part of its
// interval that its child spans cover.

#ifndef WBS_PERFBENCH_SPANS_H_
#define WBS_PERFBENCH_SPANS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< layer-prefixed call name (static storage)
  uint64_t trace_id = 0;  ///< shared by the spans of one batch or query
  int64_t parent = -1;    ///< index of the parent span, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Trace {
 public:
  /// Appends a span and returns its index (the handle children name as
  /// their parent).
  int64_t Add(const char* name, uint64_t trace_id, int64_t parent,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, trace_id, parent, start_ns, end_ns});
    return int64_t(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Drops every span from index `n` on (a discarded attempt's spans).
  void Truncate(size_t n) { spans_.resize(std::min(n, spans_.size())); }

  /// Self time of every span, index-aligned with spans().
  std::vector<int64_t> SelfTimes() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (auto [a, b] : kids) {
        a = std::max(a, cursor);
        b = std::min(b, s.end_ns);
        if (b > a) {
          covered += b - a;
          cursor = b;
        }
      }
      self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  /// Writes one JSON object per span; false if the file cannot be written.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<int64_t> self = SelfTimes();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"span\":%zu,\"name\":\"%s\",\"trace_id\":%llu,"
                   "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"self_ns\":%lld}\n",
                   i, s.name, (unsigned long long)s.trace_id,
                   (long long)s.parent, (long long)s.start_ns,
                   (long long)s.end_ns, (long long)self[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // WBS_PERFBENCH_SPANS_H_
