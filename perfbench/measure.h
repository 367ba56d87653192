// Measurement primitives shared by the perfbench workloads: the heap
// hook, an allocator that bypasses it, exact-sample statistics and the
// ordered metric set printed as the benchmark's result line.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// ---- Heap hook (heap_hook.cc) ---------------------------------------
// The binary replaces the global operator new/delete family; every
// allocation made through it is counted by its usable size. Buffers the
// benchmark keeps for itself use UncountedAllocator (plain malloc), so
// the counters see only the library's heap and the program's outputs.

/// Bytes currently allocated through operator new.
std::size_t HeapCurrentBytes();
/// High-water mark of HeapCurrentBytes() since the last HeapResetPeak().
std::size_t HeapPeakBytes();
/// Restarts the high-water mark at the current allocation level.
void HeapResetPeak();

template <typename T>
struct UncountedAllocator {
  using value_type = T;
  UncountedAllocator() noexcept = default;
  template <typename U>
  UncountedAllocator(const UncountedAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }
  friend bool operator==(const UncountedAllocator&,
                         const UncountedAllocator&) noexcept {
    return true;
  }
};

/// A vector the heap hook does not see (benchmark bookkeeping only).
template <typename T>
using UVec = std::vector<T, UncountedAllocator<T>>;

// ---- Exact-sample statistics -----------------------------------------

/// Median of the samples (mean of the middle two for an even count);
/// 0 for an empty set.
double Median(UVec<double> samples);

/// The tail-latency rule: the highest percentile that still has at
/// least `kTailMinBeyond` samples above it, capped at p99.
struct Tail {
  double value = 0;        ///< The sample at that rank.
  double percentile = 0;   ///< Its percentile, in (0, 99].
  std::size_t beyond = 0;  ///< Samples strictly above that rank.
  std::size_t count = 0;   ///< Total samples.
};
inline constexpr std::size_t kTailMinBeyond = 10;

/// The tail's rank rule for `n` samples: `value` is left 0 and `beyond`
/// names the rank (the sample at ascending 0-based index n-1-beyond).
/// Needs more than kTailMinBeyond samples; otherwise beyond = 0 and
/// percentile = 0, i.e. the maximum.
Tail TailRank(std::size_t n);

/// Nearest-rank tail over `samples` by TailRank.
Tail TailOf(UVec<double> samples);

/// Exact per-op latencies in whole nanoseconds, the steady clock's
/// resolution: one counter per nanosecond below kDenseNs and the samples
/// above it kept as they are. Every rank is exact, and millions of
/// sub-microsecond ops cost kDenseNs counters instead of a slot each.
class LatencySamples {
 public:
  void Add(Clock::duration d);
  std::size_t size() const { return count_; }
  /// The k-th smallest sample (0-based), in milliseconds.
  double RankMs(std::size_t k);
  double MedianMs();
  Tail TailMs();

 private:
  static constexpr std::int64_t kDenseNs = std::int64_t{1} << 16;
  UVec<std::uint32_t> dense_;  // sized on first use
  UVec<std::int64_t> sparse_;
  std::size_t dense_count_ = 0;
  std::size_t count_ = 0;
  bool sorted_ = true;
};

// ---- Threads ------------------------------------------------------------

/// Pins the calling thread to `count` CPUs of the set the process
/// started with, counting down from its `first`-highest one (wrapping when the set is
/// smaller). Threads it creates afterwards inherit the set. Pinned runs
/// do not migrate between CPUs mid-run, which on a 4-vCPU VM made the
/// difference between two modes ~20% apart and one; the highest CPUs are
/// used because CPU 0 takes most of the interrupts.
void PinThread(std::size_t first, std::size_t count);

/// Gives the calling thread back the CPU set the process started with.
void UnpinThread();

/// Calls body(index, worker) for every index in [0, n) on up to 4
/// threads (worker < 4 names the thread; the helper threads are
/// unpinned), for the benchmark's untimed checking work. Rethrows the
/// first exception a body threw, after every thread has joined.
void ParallelFor(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body);

/// Threads ParallelFor uses.
std::size_t ParallelWorkers();

// ---- Metric set and result line --------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Writes the one-line result object: correct, attempted, failed and
/// every metric as {"value", "unit"}, numbers at full precision.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
