// Workload `offline`: the paper's setting. One op is one
// SkylineAlgorithm::Compute call; ops rotate in a fixed order over the
// three boosted algorithms x the UI, CO and AC datasets, whole rotations
// only, so each of the nine classes carries equal weight. Each family has
// kInstances seeded datasets and a rotation runs every class on each:
// one AC dataset's cost moves by ~15% with the seed, and the tail sits
// on the slowest instances, so it takes several to keep seeds from
// moving the run's figures.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "perfbench/workloads.h"
#include "src/algo/algorithm.h"
#include "src/algo/registry.h"

namespace perfbench {
namespace {

using skyline::PointId;

const char* const kAlgorithms[] = {"sfs-subset", "salsa-subset",
                                   "sdi-subset"};
constexpr std::size_t kClasses = 9;  // algorithm-major, family-minor
constexpr std::size_t kInstances = 6;

struct Setup {
  std::vector<skyline::Dataset> data;  // [family * kInstances + instance]
  std::vector<std::unique_ptr<skyline::SkylineAlgorithm>> algorithms;
  std::vector<UVec<PointId>> expected;  // sorted unboosted sfs answers
  double generate_s = 0;
};

const skyline::Dataset& DataOf(const Setup& s, std::size_t c,
                               std::size_t instance) {
  return s.data[(c % 3) * kInstances + instance];
}

UVec<PointId> Sorted(const std::vector<PointId>& ids) {
  UVec<PointId> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

Setup MakeSetup(std::uint64_t seed, Tracer* tracer) {
  Setup s;
  const auto t0 = Clock::now();
  for (skyline::DataType type : kFamilies) {
    for (std::size_t i = 0; i < kInstances; ++i) {
      s.data.push_back(skyline::Generate(type, kOfflineN, kOfflineD,
                                         seed + i * 0x9e3779b97f4a7c15ULL));
    }
  }
  const auto t1 = Clock::now();
  s.generate_s = Seconds(t1 - t0);
  for (const char* name : kAlgorithms) {
    s.algorithms.push_back(skyline::MakeAlgorithm(name));
  }
  // Warm-up: one untimed rotation.
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (std::size_t i = 0; i < kInstances; ++i) {
      s.algorithms[c / 3]->Compute(DataOf(s, c, i));
    }
  }
  const auto t2 = Clock::now();
  if (tracer != nullptr) {
    tracer->Add("data.Generate", 0, -1, t0, t1);
    tracer->Add("warmup", 0, -1, t1, t2);
  }
  return s;
}

/// The reference answers: unboosted sfs on every dataset, in parallel.
/// Correctness bookkeeping, so outside setup_s.
void AddReference(Setup* s) {
  s->expected.resize(s->data.size());
  ParallelFor(s->data.size(), [&](std::size_t i, std::size_t) {
    s->expected[i] = Sorted(skyline::MakeAlgorithm("sfs")->Compute(s->data[i]));
  });
}

/// Per-layer sums over the traced pass.
struct LayerSums {
  UVec<double> class_ms[kClasses];
  skyline::SkylineStats stats;  // accumulated over ops
  std::uint64_t points = 0;     // dataset rows entering the ops
  double op_ns = 0;
};

TimedPass RunOps(const Setup& s, double seconds, std::uint64_t* attempted,
                 std::uint64_t* failed, Tracer* tracer, LayerSums* sums) {
  TimedPass pass;
  std::uint64_t request = 0;
  HeapResetPeak();
  while (pass.timed_s < seconds) {
    const double unit_s = pass.timed_s;
    const std::uint64_t unit_ops = pass.ops;
    for (std::size_t op = 0; op < kClasses * kInstances; ++op) {
      const std::size_t c = op / kInstances;
      const skyline::Dataset& data = DataOf(s, c, op % kInstances);
      skyline::SkylineStats stats;
      const auto t0 = Clock::now();
      const std::vector<PointId> ids = s.algorithms[c / 3]->Compute(
          data, tracer != nullptr ? &stats : nullptr);
      const auto t1 = Clock::now();

      const double ms = Millis(t1 - t0);
      pass.timed_s += Seconds(t1 - t0);
      pass.latency.Add(t1 - t0);
      ++*attempted;
      if (Sorted(ids) ==
          s.expected[(c % 3) * kInstances + op % kInstances]) {
        ++pass.ops;
      } else {
        ++*failed;
      }
      if (tracer != nullptr) {
        ++request;
        const int root = tracer->Add("op", request, -1, t0, t1);
        tracer->Add("algo.Compute", request, root, t0, t1,
                    stats.dominance_tests);
        sums->class_ms[c].push_back(ms);
        sums->stats.Accumulate(stats);
        sums->points += data.num_points();
        sums->op_ns += ms * 1e6;
      }
    }
    pass.unit_rate.push_back(static_cast<double>(pass.ops - unit_ops) /
                             (pass.timed_s - unit_s));
  }
  pass.peak_heap_bytes = HeapPeakBytes();
  return pass;
}

}  // namespace

Outcome RunOffline(const RunOptions& options) {
  PinThread(0, 1);
  Outcome out;
  if (!options.trace) {
    UVec<double> setup_s;
    Setup s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      s = Setup{};
      const auto t0 = Clock::now();
      s = MakeSetup(options.seed, nullptr);
      setup_s.push_back(Seconds(Clock::now() - t0));
    }
    AddReference(&s);
    TimedPass pass = RunOps(s, options.seconds, &out.attempted,
                                  &out.failed, nullptr, nullptr);
    ReportEndToEnd("offline", setup_s, pass, &out.metrics);
  } else {
    Tracer tracer;
    DeclareLayerMetrics(&out.metrics);
    PaperProbe(options.seed, &tracer, &out.metrics);
    Setup s = MakeSetup(options.seed, &tracer);
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

    const double ops = static_cast<double>(traced.latency.size());
    const skyline::SkylineStats& st = sums.stats;
    const double queries = static_cast<double>(st.index_queries);
    out.metrics.Set("core.dt_per_op",
                    static_cast<double>(st.dominance_tests) / ops, "count");
    out.metrics.Set("core.ns_per_dt",
                    sums.op_ns / static_cast<double>(st.dominance_tests), "ns");
    out.metrics.Set("subset.index_candidates_per_query",
                    static_cast<double>(st.index_candidates) / queries,
                    "count");
    out.metrics.Set("subset.index_nodes_per_query",
                    static_cast<double>(st.index_nodes_visited) / queries,
                    "count");
    out.metrics.Set("subset.merge_pruned_share",
                    static_cast<double>(st.merge_pruned) /
                        static_cast<double>(sums.points),
                    "share");
    for (std::size_t c = 0; c < kClasses; ++c) {
      const std::string tag(skyline::ShortName(kFamilies[c % 3]));
      out.metrics.Set(std::string("algo.compute_ms.") + kAlgorithms[c / 3] +
                          "." + tag,
                      Median(sums.class_ms[c]), "ms");
    }
    tracer.PrintSummary(std::cout);
    if (!options.trace_path.empty()) tracer.WriteJsonLines(options.trace_path);
  }
  out.correct = out.failed == 0 && out.attempted > 0;
  return out;
}

}  // namespace perfbench
