// The three perfbench workloads and the pieces they share: seeded input
// generators, the end-to-end report and the per-layer metric list.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/trace.h"
#include "src/core/dataset.h"
#include "src/core/subspace.h"
#include "src/data/generator.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< Span dump of the traced pass ("" = none).
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

Outcome RunOffline(const RunOptions& options);
Outcome RunServe(const RunOptions& options);
Outcome RunStreamIngest(const RunOptions& options);

// ---- Shared inputs ----------------------------------------------------

/// Offline datasets (and the probe's): n=20000, d=8, one per family.
inline constexpr std::size_t kOfflineN = 20000;
inline constexpr skyline::Dim kOfflineD = 8;
inline constexpr skyline::DataType kFamilies[] = {
    skyline::DataType::kUniformIndependent, skyline::DataType::kCorrelated,
    skyline::DataType::kAntiCorrelated};

/// Zipf(s=1) sampler over `universe` ranks: rank r is drawn with
/// probability proportional to 1/(r+1).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t universe, std::uint64_t seed);
  std::size_t Next();

 private:
  std::mt19937_64 rng_;
  std::vector<double> cumulative_;
};

/// The 2^d - 1 non-empty cuboids in popularity order: rank r gets a
/// cuboid of a size fixed by r alone (sizes interleaved in proportion to
/// their counts), and the seed picks which cuboid of that size. On data
/// whose dimensions are exchangeable this keeps the cost profile of the
/// hot set the same for every seed.
std::vector<skyline::Subspace> RankedCuboids(skyline::Dim d,
                                             std::uint64_t seed);

/// `count` Zipf-ranked cuboids over RankedCuboids(d, seed).
std::vector<skyline::Subspace> QueryStream(skyline::Dim d, std::size_t count,
                                           std::uint64_t seed);

/// The drifting arrival stream (DRIFT shape): the first quarter of each
/// pass far from the origin, the rest near it, so late arrivals dominate
/// the frozen references and force re-referencing.
class DriftStream {
 public:
  DriftStream(skyline::Dim d, std::size_t pass_length, std::uint64_t seed);
  /// Fills `out` with the next `count` points of the pass (row-major).
  void Next(std::size_t count, UVec<double>* out);
  /// Starts the pass again; the same points follow.
  void Restart();
  std::size_t position() const { return position_; }

 private:
  skyline::Dim d_;
  std::size_t pass_length_;
  std::uint64_t seed_;
  std::size_t position_ = 0;
  std::mt19937_64 rng_;
};

// ---- Reporting --------------------------------------------------------

/// What the untimed-bookkeeping-free part of a run measured.
struct TimedPass {
  LatencySamples latency;   ///< Every op, for the tail (and the p50).
  LatencySamples queries;   ///< serve: the query ops the p50 is over.
  std::uint64_t ops = 0;    ///< Correct ops completed.
  double timed_s = 0;       ///< Sum of the timed intervals.
  /// Correct ops per timed second of each whole unit of work (offline
  /// rotation, serve cycle, stream pass); ops_per_s is their median.
  UVec<double> unit_rate;
  std::size_t peak_heap_bytes = 0;
};

/// Fills the five end-to-end metrics and logs the tail's rank.
void ReportEndToEnd(const char* workload, const UVec<double>& setup_s,
                    TimedPass& pass, Metrics* metrics);

/// Sets every per-layer metric to 0 with its unit; a workload then
/// overwrites the ones its layers produce. 0 means the layer did no
/// work on this workload.
void DeclareLayerMetrics(Metrics* metrics);

/// The paper probe every traced run makes in its setup: on the offline
/// datasets, a direct MergeSubspaces call (subset.merge_ms.*) and one
/// sfs-subset run (subset.dt_per_point.*), with data.Generate spans.
void PaperProbe(std::uint64_t seed, Tracer* tracer, Metrics* metrics);

/// Records `trace.overhead_share` from the untraced and traced rates.
void ReportOverhead(double untraced_ops_per_s, double traced_ops_per_s,
                    Metrics* metrics);

/// Number of setups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
