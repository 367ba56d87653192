#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

int Tracer::Add(const char* name, std::uint64_t request, int parent,
                Clock::time_point start, Clock::time_point end,
                std::uint64_t count) {
  spans_.push_back({name, request, parent, start, end, count});
  return static_cast<int>(spans_.size()) - 1;
}

UVec<double> Tracer::SelfTimesMs() const {
  const std::size_t n = spans_.size();
  // Children of each span, as a CSR list.
  UVec<std::size_t> first(n + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) ++first[static_cast<std::size_t>(s.parent) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  UVec<std::size_t> fill(first.begin(), first.end() - 1);
  UVec<std::size_t> children(first[n]);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans_[i].parent >= 0) {
      children[fill[static_cast<std::size_t>(spans_[i].parent)]++] = i;
    }
  }

  UVec<double> self(n);
  UVec<std::pair<Clock::time_point, Clock::time_point>> cover;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    cover.clear();
    for (std::size_t c = first[i]; c < first[i + 1]; ++c) {
      const Span& child = spans_[children[c]];
      const auto lo = std::max(child.start, s.start);
      const auto hi = std::min(child.end, s.end);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    Clock::duration covered{0};
    Clock::time_point run_lo{}, run_hi{};
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = Millis((s.end - s.start) - covered);
  }
  return self;
}

void Tracer::PrintSummary(std::ostream& out) const {
  const UVec<double> self = SelfTimesMs();
  struct Row {
    const char* name;
    std::size_t spans = 0;
    double total_ms = 0, self_ms = 0;
    std::uint64_t count = 0;
  };
  UVec<Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
      return std::string_view(r.name) == s.name;
    });
    if (it == rows.end()) {
      rows.push_back({s.name});
      it = rows.end() - 1;
    }
    ++it->spans;
    it->total_ms += Millis(s.end - s.start);
    it->self_ms += self[i];
    it->count += s.count;
  }
  out << "# span                  spans     total_ms      self_ms        count\n";
  for (const Row& r : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "# %-18s %9zu %12.3f %12.3f %12llu\n",
                  r.name, r.spans, r.total_ms, r.self_ms,
                  static_cast<unsigned long long>(r.count));
    out << line;
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const UVec<double> self = SelfTimesMs();
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                  "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"self_us\": %.3f, \"count\": %llu}\n",
                  i, s.name, static_cast<unsigned long long>(s.request),
                  s.parent, Micros(s.start - origin), Micros(s.end - origin),
                  self[i] * 1000.0, static_cast<unsigned long long>(s.count));
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
