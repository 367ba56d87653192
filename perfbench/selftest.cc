// --self-test: checks of the benchmark's own machinery — the tail rule,
// seed purity of the generated inputs, span self time, the heap hook,
// and exact repetition of the deterministic per-layer counters.
#include <cstdio>
#include <iostream>
#include <set>
#include <string>

#include "perfbench/workloads.h"
#include "src/core/aligned.h"

namespace perfbench {
namespace {

int g_failures = 0;
int g_checks = 0;

void Expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

void CheckTailRule() {
  for (std::size_t n = kTailMinBeyond + 1; n <= 3000; ++n) {
    UVec<double> samples;
    for (std::size_t i = n; i >= 1; --i) samples.push_back(static_cast<double>(i));
    const Tail t = TailOf(samples);
    const std::size_t rank = static_cast<std::size_t>(t.value);
    const bool holds = t.percentile <= 99.0 && t.beyond >= kTailMinBeyond &&
                       t.beyond == n - rank && t.count == n;
    // One rank higher must break the cap or the ten-beyond floor.
    const bool highest = 100.0 * static_cast<double>(rank + 1) /
                                 static_cast<double>(n) > 99.0 ||
                         n - (rank + 1) < kTailMinBeyond;
    if (!holds || !highest) {
      Expect(false, "tail rule at n=" + std::to_string(n));
      return;
    }
  }
  UVec<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Tail t100 = TailOf(hundred);
  Expect(t100.value == 90 && t100.percentile == 90 && t100.beyond == 10,
         "tail of 100 samples is p90 with 10 beyond");
  UVec<double> many;
  for (int i = 1; i <= 5000; ++i) many.push_back(i);
  const Tail t5000 = TailOf(many);
  Expect(t5000.value == 4950 && t5000.percentile == 99 && t5000.beyond == 50,
         "tail of 5000 samples is capped at p99");
  Expect(Median(UVec<double>{3, 1, 2}) == 2 && Median(UVec<double>{4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");

  // LatencySamples: exact ranks across its dense and sparse ranges.
  LatencySamples exact;
  UVec<double> reference;
  for (std::int64_t i = 0; i < 3000; ++i) {
    const std::int64_t ns = (i * 7919) % 3000 * 97;  // 0 .. ~291 us
    exact.Add(std::chrono::nanoseconds(ns));
    reference.push_back(static_cast<double>(ns) / 1e6);
  }
  const Tail want = TailOf(reference);
  const Tail got = exact.TailMs();
  Expect(exact.MedianMs() == Median(reference) && got.value == want.value &&
             got.beyond == want.beyond,
         "latency samples give the exact median and tail");
}

void CheckSeedPurity() {
  Expect(QueryStream(8, 4096, 7) == QueryStream(8, 4096, 7),
         "query stream is a function of the seed");
  Expect(QueryStream(8, 4096, 7) != QueryStream(8, 4096, 8),
         "query stream changes with the seed");
  ZipfSampler a(255, 3), b(255, 3);
  bool same = true;
  for (int i = 0; i < 10000; ++i) same &= a.Next() == b.Next();
  Expect(same, "Zipf sampler is a function of the seed");

  const auto r1 = RankedCuboids(8, 1), r2 = RankedCuboids(8, 2);
  std::set<std::uint64_t> distinct;
  bool same_sizes = r1.size() == r2.size();
  for (std::size_t i = 0; i < r1.size() && same_sizes; ++i) {
    distinct.insert(r1[i].bits());
    same_sizes = r1[i].size() == r2[i].size();
  }
  Expect(r1.size() == 255 && distinct.size() == 255,
         "ranked cuboids are a permutation of all 255");
  Expect(same_sizes && r1 != r2, "rank sizes fixed, cuboids seeded");

  DriftStream s1(4, 1000, 5), s2(4, 1000, 5);
  UVec<double> c1, c2;
  s1.Next(300, &c1);
  s2.Next(300, &c2);
  Expect(c1 == c2 && c1.size() == 1200, "drift stream is a function of the seed");
  s1.Restart();
  s1.Next(300, &c2);
  Expect(c1 == c2, "drift stream restart replays the pass");
}

void CheckSelfTime() {
  using std::chrono::microseconds;
  const Clock::time_point o{};
  auto at = [&](int us) { return o + microseconds(us); };
  Tracer t;
  const int root = t.Add("op", 1, -1, at(0), at(100));
  t.Add("a", 1, root, at(10), at(30));
  const int b = t.Add("b", 1, root, at(20), at(50));  // overlaps a
  t.Add("c", 1, root, at(90), at(120));                // clipped at 100
  t.Add("b.child", 1, b, at(25), at(45));
  const UVec<double> self = t.SelfTimesMs();
  auto near = [](double x, double y) { return x - y < 1e-9 && y - x < 1e-9; };
  Expect(near(self[0], 0.050), "root self time = 100 - |[10,50] u [90,100]|");
  Expect(near(self[2], 0.010), "child self time = 30 - 20 covered");
  Expect(near(self[4], 0.020), "leaf self time = its duration");
}

void CheckHeapHook() {
  const std::size_t base = HeapCurrentBytes();
  char* block = new char[1 << 20];
  block[0] = 1;
  const std::size_t with = HeapCurrentBytes();  // before any Expect string
  Expect(with >= base + (1 << 20) && with <= base + (1 << 20) + 8192,
         "a 1 MiB new[] is counted by its usable size");
  delete[] block;
  const bool freed = HeapCurrentBytes() == base;
  Expect(freed, "delete[] returns the count");

  void* aligned = ::operator new(1000, std::align_val_t{64});
  const bool counted = HeapCurrentBytes() >= base + 1000;
  ::operator delete(aligned, std::align_val_t{64});
  const bool released = HeapCurrentBytes() == base;
  Expect(counted, "aligned new is counted");
  Expect(released, "aligned delete returns the count");

  HeapResetPeak();
  {
    std::vector<char> big(2 << 20);
    big[0] = 1;
  }
  {
    std::vector<char> small(1 << 20);
    small[0] = 1;
  }
  const std::size_t peak = HeapPeakBytes();
  Expect(peak >= base + (2 << 20) && peak < base + (3 << 20),
         "peak is the high-water mark, not the sum");
  {
    UVec<char> uncounted(4 << 20);
    uncounted[0] = 1;
    const bool bypassed = HeapCurrentBytes() == base;
    Expect(bypassed, "UVec bypasses the hook");
  }
}

double Value(const Outcome& o, const std::string& name) {
  const Metric* m = o.metrics.Find(name);
  return m == nullptr ? -1 : m->value;
}

void CheckRepeatableCounters() {
  RunOptions options;
  options.seed = 11;
  options.trace = true;
  options.seconds = 1;
  const Outcome o1 = RunOffline(options), o2 = RunOffline(options);
  for (const char* name :
       {"core.dt_per_op", "subset.dt_per_point.UI", "subset.dt_per_point.CO",
        "subset.dt_per_point.AC"}) {
    Expect(Value(o1, name) > 0 && Value(o1, name) == Value(o2, name),
           std::string("offline ") + name + " repeats exactly");
  }
  Expect(o1.correct && o2.correct, "offline traced runs are correct");

  options.seconds = 4;
  const Outcome s1 = RunStreamIngest(options), s2 = RunStreamIngest(options);
  for (const char* name :
       {"core.dt_per_op", "stream.dt_per_insert", "stream.candidates_per_insert",
        "stream.rejected_share", "stream.compactions", "stream.refreezes",
        "stream.peak_resident_rows"}) {
    Expect(Value(s1, name) >= 0 && Value(s1, name) == Value(s2, name),
           std::string("stream-ingest ") + name + " repeats exactly");
  }
  Expect(Value(s1, "stream.dt_per_insert") > 0,
         "stream-ingest traced run finished a whole pass");
  Expect(s1.correct && s2.correct, "stream-ingest traced runs are correct");
}

}  // namespace

int RunSelfTest() {
  CheckTailRule();
  CheckSeedPurity();
  CheckSelfTime();
  CheckHeapHook();
  CheckRepeatableCounters();
  std::cout << "self-test: " << (g_checks - g_failures) << "/" << g_checks
            << " checks passed\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
