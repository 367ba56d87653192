// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into the library; the spans of one op share
// a request id and point at their parent span by index.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "perfbench/measure.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t request = 0;  ///< Op id shared by the op's spans.
  int parent = -1;            ///< Index of the parent span; -1 for roots.
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint64_t count = 0;  ///< Work attributed to the span (e.g. DTs).
};

class Tracer {
 public:
  /// Records a finished span and returns its index.
  int Add(const char* name, std::uint64_t request, int parent,
          Clock::time_point start, Clock::time_point end,
          std::uint64_t count = 0);

  /// Self time of every span in milliseconds: its duration minus the
  /// part of its interval covered by the union of its children.
  UVec<double> SelfTimesMs() const;

  /// Per span name: number of spans, total and self time.
  void PrintSummary(std::ostream& out) const;

  /// One JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  UVec<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
