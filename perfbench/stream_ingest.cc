// Workload `stream-ingest`: one op is one StreamingSkyline::Insert of a
// drifting arrival stream (DRIFT shape, d=4). A unit of work is one pass
// of kPassLength arrivals into a fresh StreamingSkyline; a run cycles
// over kPasses seeded passes, whole cycles only. One pass's latency
// profile and memory peak move a lot with its seed (where the references
// freeze, when a vector doubles), so a run takes in many. Arrivals are generated in chunks between
// timed intervals so the input never sits on the counted heap. Each
// pass's skyline is checked against sfs-subset over the pass outside the
// timed intervals.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "perfbench/workloads.h"
#include "src/algo/algorithm.h"
#include "src/algo/registry.h"
#include "src/stream/streaming_skyline.h"

namespace perfbench {
namespace {

using skyline::PointId;

constexpr skyline::Dim kStreamD = 4;
constexpr std::size_t kPassLength = 100000;
constexpr std::size_t kPasses = 32;
constexpr std::size_t kWarmPasses = 4;
constexpr std::size_t kChunk = 4096;

skyline::StreamingOptions Options() {
  skyline::StreamingOptions options;
  options.adapt_interval = 256;  // as the DRIFT scenario of bench_streaming
  // The default high water (4096) is never reached at d=4, where a pass
  // peaks near 1500 resident rows; 1024 makes the compactor run.
  options.compact_high_water = 1024;
  return options;
}

/// The whole pass, as a dataset.
skyline::Dataset WholePass(DriftStream& stream) {
  stream.Restart();
  UVec<double> chunk;
  std::vector<skyline::Value> values;
  values.reserve(kPassLength * kStreamD);
  while (stream.position() < kPassLength) {
    stream.Next(kChunk, &chunk);
    values.insert(values.end(), chunk.begin(), chunk.end());
  }
  return skyline::Dataset(kStreamD, std::move(values));
}

bool Matches(const skyline::StreamingSkyline& sky,
             const UVec<PointId>& expected) {
  const std::vector<PointId> ids = sky.Skyline();
  UVec<PointId> got(ids.begin(), ids.end());
  std::sort(got.begin(), got.end());
  return got == expected;
}

struct State {
  std::vector<DriftStream> passes;
  std::vector<UVec<PointId>> expected;  // skyline of each whole pass
  double generate_s = 0;
};

State MakeState(std::uint64_t seed, Tracer* tracer) {
  State s;
  for (std::size_t j = 0; j < kPasses; ++j) {
    s.passes.emplace_back(kStreamD, kPassLength,
                          seed ^ (j * 0x9e3779b97f4a7c15ULL));
  }
  // Warm-up: the first kWarmPasses passes, untimed.
  for (std::size_t j = 0; j < kWarmPasses; ++j) {
    const auto t0 = Clock::now();
    const skyline::Dataset pass = WholePass(s.passes[j]);
    const auto t1 = Clock::now();
    skyline::StreamingSkyline warm(kStreamD, Options());
    for (PointId p = 0; p < pass.num_points(); ++p) warm.Insert(pass.point(p));
    const auto t2 = Clock::now();
    s.generate_s += Seconds(t1 - t0);
    if (tracer != nullptr) {
      tracer->Add("data.Generate", 0, -1, t0, t1);
      tracer->Add("warmup", 0, -1, t1, t2);
    }
  }
  return s;
}

/// The reference answers: sfs-subset over each whole pass. Correctness
/// bookkeeping, so outside setup_s.
void AddReference(State* s) {
  const auto offline = skyline::MakeAlgorithm("sfs-subset");
  for (DriftStream& pass : s->passes) {
    const std::vector<PointId> ids = offline->Compute(WholePass(pass));
    s->expected.emplace_back(ids.begin(), ids.end());
    std::sort(s->expected.back().begin(), s->expected.back().end());
  }
}

struct LayerSums {
  skyline::StreamingStats stats;  // over all passes
  std::uint64_t passes = 0;
  std::uint64_t peak_resident_rows = 0;
  UVec<double> compact_ms, refreeze_ms;
  double timed_ns = 0;
};

/// One pass of pass `j` into a fresh StreamingSkyline; spans only when
/// `spans` (the first traced pass: bounded memory).
void RunPass(State& s, std::size_t j, TimedPass* pass,
             std::uint64_t* failed, Tracer* tracer, bool spans,
             LayerSums* sums) {
  DriftStream& stream = s.passes[j];
  stream.Restart();
  skyline::StreamingSkyline sky(kStreamD, Options());
  UVec<double> chunk;
  const double start_s = pass->timed_s;
  std::uint64_t request = 0;
  while (stream.position() < kPassLength) {
    stream.Next(kChunk, &chunk);
    const std::size_t count = chunk.size() / kStreamD;
    for (std::size_t i = 0; i < count; ++i) {
      const std::span<const skyline::Value> point(&chunk[i * kStreamD],
                                                  kStreamD);
      if (tracer == nullptr) {
        const auto t0 = Clock::now();
        sky.Insert(point);
        const auto t1 = Clock::now();
        pass->timed_s += Seconds(t1 - t0);
        pass->latency.Add(t1 - t0);
        continue;
      }
      const skyline::StreamingStats before = sky.stats();
      const auto t0 = Clock::now();
      sky.Insert(point);
      const auto t1 = Clock::now();
      const skyline::StreamingStats& after = sky.stats();
      pass->timed_s += Seconds(t1 - t0);
      pass->latency.Add(t1 - t0);
      sums->timed_ns += Millis(t1 - t0) * 1e6;
      if (after.compactions != before.compactions) {
        sums->compact_ms.push_back(Millis(t1 - t0));
      }
      if (after.refreezes != before.refreezes) {
        sums->refreeze_ms.push_back(Millis(t1 - t0));
      }
      if (spans) {
        ++request;
        const int op = tracer->Add("op", request, -1, t0, t1);
        tracer->Add("stream.Insert", request, op, t0, t1,
                    after.dominance_tests - before.dominance_tests);
      }
    }
  }
  const bool ok = Matches(sky, s.expected[j]);
  (ok ? pass->ops : *failed) += kPassLength;
  pass->unit_rate.push_back(ok ? kPassLength / (pass->timed_s - start_s) : 0);
  if (sums != nullptr) {
    const skyline::StreamingStats& st = sky.stats();
    sums->stats.inserts += st.inserts;
    sums->stats.rejected_dominated += st.rejected_dominated;
    sums->stats.dominance_tests += st.dominance_tests;
    sums->stats.index_queries += st.index_queries;
    sums->stats.index_candidates += st.index_candidates;
    sums->stats.compactions += st.compactions;
    sums->stats.refreezes += st.refreezes;
    sums->peak_resident_rows =
        std::max(sums->peak_resident_rows, st.peak_resident_rows);
    ++sums->passes;
  }
}

TimedPass RunOps(State& s, double seconds, std::uint64_t* attempted,
                 std::uint64_t* failed, Tracer* tracer, LayerSums* sums) {
  TimedPass pass;
  HeapResetPeak();
  bool first = true;
  while (pass.timed_s < seconds) {
    for (std::size_t j = 0; j < kPasses; ++j) {
      RunPass(s, j, &pass, failed, tracer, first, sums);
      first = false;
    }
  }
  pass.peak_heap_bytes = HeapPeakBytes();
  *attempted += pass.latency.size();
  return pass;
}

}  // namespace

Outcome RunStreamIngest(const RunOptions& options) {
  PinThread(0, 1);
  Outcome out;
  if (!options.trace) {
    UVec<double> setup_s;
    State s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      s = State{};
      const auto t0 = Clock::now();
      s = MakeState(options.seed, nullptr);
      setup_s.push_back(Seconds(Clock::now() - t0));
    }
    AddReference(&s);
    TimedPass pass =
        RunOps(s, options.seconds, &out.attempted, &out.failed, nullptr,
               nullptr);
    ReportEndToEnd("stream-ingest", setup_s, pass, &out.metrics);
  } else {
    Tracer tracer;
    DeclareLayerMetrics(&out.metrics);
    PaperProbe(options.seed, &tracer, &out.metrics);
    State s = MakeState(options.seed, &tracer);
    AddReference(&s);
    out.metrics.Set("data.generate_s", s.generate_s, "s");
    const double half = options.seconds / 2;
    const TimedPass plain =
        RunOps(s, half, &out.attempted, &out.failed, nullptr, nullptr);
    LayerSums sums;
    const TimedPass traced =
        RunOps(s, half, &out.attempted, &out.failed, &tracer, &sums);
    ReportOverhead(static_cast<double>(plain.ops) / plain.timed_s,
                   static_cast<double>(traced.ops) / traced.timed_s,
                   &out.metrics);
    const skyline::StreamingStats& st = sums.stats;
    const double inserts = static_cast<double>(st.inserts);
    const double passes = static_cast<double>(sums.passes);
    const double dt = static_cast<double>(st.dominance_tests);
    out.metrics.Set("core.dt_per_op", dt / inserts, "count");
    out.metrics.Set("core.ns_per_dt", sums.timed_ns / dt, "ns");
    out.metrics.Set("subset.index_candidates_per_query",
                    static_cast<double>(st.index_candidates) /
                        static_cast<double>(st.index_queries),
                    "count");
    out.metrics.Set("stream.dt_per_insert", dt / inserts, "count");
    out.metrics.Set("stream.candidates_per_insert", st.CandidatesPerInsert(),
                    "count");
    out.metrics.Set("stream.rejected_share",
                    static_cast<double>(st.rejected_dominated) / inserts,
                    "share");
    out.metrics.Set("stream.compactions",
                    static_cast<double>(st.compactions) / passes, "count");
    out.metrics.Set("stream.compact_ms", Median(sums.compact_ms), "ms");
    out.metrics.Set("stream.refreezes",
                    static_cast<double>(st.refreezes) / passes, "count");
    out.metrics.Set("stream.refreeze_ms", Median(sums.refreeze_ms), "ms");
    out.metrics.Set("stream.peak_resident_rows",
                    static_cast<double>(sums.peak_resident_rows), "count");
    std::printf("# stream-ingest traced half: %llu passes of %zu\n",
                static_cast<unsigned long long>(sums.passes), kPassLength);
    tracer.PrintSummary(std::cout);
    if (!options.trace_path.empty()) tracer.WriteJsonLines(options.trace_path);
  }
  out.correct = out.failed == 0 && out.attempted > 0;
  return out;
}

}  // namespace perfbench
