#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "src/algo/algorithm.h"
#include "src/algo/registry.h"
#include "src/subset/merge.h"

namespace perfbench {

using skyline::Dim;
using skyline::Subspace;

ZipfSampler::ZipfSampler(std::size_t universe, std::uint64_t seed)
    : rng_(seed) {
  cumulative_.reserve(universe);
  double total = 0;
  for (std::size_t r = 0; r < universe; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative_.push_back(total);
  }
}

std::size_t ZipfSampler::Next() {
  std::uniform_real_distribution<double> uniform(0.0, cumulative_.back());
  const double u = uniform(rng_);
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min(static_cast<std::size_t>(it - cumulative_.begin()),
                  cumulative_.size() - 1);
}

std::vector<Subspace> RankedCuboids(Dim d, std::uint64_t seed) {
  // Cuboids grouped by size, each group in seeded order.
  std::vector<std::vector<Subspace>> by_size(d + 1);
  for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << d); ++bits) {
    by_size[Subspace(bits).size()].push_back(Subspace(bits));
  }
  std::mt19937_64 rng(seed ^ 0x5ca1ab1eULL);
  for (auto& group : by_size) std::shuffle(group.begin(), group.end(), rng);

  // Size of rank r: the size furthest behind its proportional quota
  // after r picks (ties to the smaller size) — a function of r only.
  const double total = static_cast<double>((std::uint64_t{1} << d) - 1);
  std::vector<std::size_t> taken(d + 1, 0);
  std::vector<Subspace> ranked;
  ranked.reserve(static_cast<std::size_t>(total));
  for (std::size_t r = 0; r < static_cast<std::size_t>(total); ++r) {
    std::size_t best = 0;
    double best_deficit = -1e300;
    for (std::size_t k = 1; k <= d; ++k) {
      if (taken[k] == by_size[k].size()) continue;
      const double quota = static_cast<double>(r + 1) *
                           static_cast<double>(by_size[k].size()) / total;
      const double deficit = quota - static_cast<double>(taken[k]);
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = k;
      }
    }
    ranked.push_back(by_size[best][taken[best]++]);
  }
  return ranked;
}

std::vector<Subspace> QueryStream(Dim d, std::size_t count,
                                  std::uint64_t seed) {
  const std::vector<Subspace> ranked = RankedCuboids(d, seed);
  ZipfSampler zipf(ranked.size(), seed ^ 0xbeefcafeULL);
  std::vector<Subspace> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) stream.push_back(ranked[zipf.Next()]);
  return stream;
}

DriftStream::DriftStream(Dim d, std::size_t pass_length, std::uint64_t seed)
    : d_(d), pass_length_(pass_length), seed_(seed), rng_(seed) {}

void DriftStream::Restart() {
  rng_.seed(seed_);
  position_ = 0;
}

void DriftStream::Next(std::size_t count, UVec<double>* out) {
  std::uniform_real_distribution<double> far(0.5, 1.0);
  std::uniform_real_distribution<double> near(0.0, 0.5);
  const std::size_t far_until = pass_length_ / 4;
  out->clear();
  count = std::min(count, pass_length_ - position_);
  for (std::size_t i = 0; i < count; ++i, ++position_) {
    auto& dist = position_ < far_until ? far : near;
    for (Dim k = 0; k < d_; ++k) out->push_back(dist(rng_));
  }
}

void ReportEndToEnd(const char* workload, const UVec<double>& setup_s,
                    TimedPass& pass, Metrics* metrics) {
  const Tail tail = pass.latency.TailMs();
  metrics->Set("setup_s", Median(setup_s), "s");
  metrics->Set("ops_per_s", Median(pass.unit_rate), "1/s");
  LatencySamples& p50_over =
      pass.queries.size() == 0 ? pass.latency : pass.queries;
  metrics->Set("latency_ms.p50", p50_over.MedianMs(), "ms");
  metrics->Set("latency_ms.tail", tail.value, "ms");
  metrics->Set("peak_heap_mb",
               static_cast<double>(pass.peak_heap_bytes) / (1024.0 * 1024.0),
               "MB");
  UVec<double> rates = pass.unit_rate;
  std::sort(rates.begin(), rates.end());
  std::printf(
      "# %s: %llu ops in %.3f s timed over %zu units (ops/s per unit: min "
      "%.6g, median %.6g, max %.6g); p50 over %zu ops; tail = p%.2f of %zu "
      "ops (%zu beyond)\n",
      workload, static_cast<unsigned long long>(pass.ops), pass.timed_s,
      rates.size(), rates.empty() ? 0.0 : rates.front(), Median(rates),
      rates.empty() ? 0.0 : rates.back(),
      p50_over.size(), tail.percentile, tail.count, tail.beyond);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

std::vector<LayerMetric> LayerMetricList() {
  std::vector<LayerMetric> list = {
      {"data.generate_s", "s"},
      {"server.construct_s", "s"},
      {"core.dt_per_op", "count"},
      {"core.ns_per_dt", "ns"},
      {"subset.dt_per_point.UI", "count"},
      {"subset.dt_per_point.CO", "count"},
      {"subset.dt_per_point.AC", "count"},
      {"subset.index_candidates_per_query", "count"},
      {"subset.index_nodes_per_query", "count"},
      {"subset.merge_pruned_share", "share"},
      {"subset.merge_ms.UI", "ms"},
      {"subset.merge_ms.CO", "ms"},
      {"subset.merge_ms.AC", "ms"},
  };
  static const char* const kAlgoMetrics[] = {
      "algo.compute_ms.sfs-subset.UI",   "algo.compute_ms.sfs-subset.CO",
      "algo.compute_ms.sfs-subset.AC",   "algo.compute_ms.salsa-subset.UI",
      "algo.compute_ms.salsa-subset.CO", "algo.compute_ms.salsa-subset.AC",
      "algo.compute_ms.sdi-subset.UI",   "algo.compute_ms.sdi-subset.CO",
      "algo.compute_ms.sdi-subset.AC"};
  for (const char* name : kAlgoMetrics) list.push_back({name, "ms"});
  const LayerMetric rest[] = {
      {"query.hit_us.p50", "us"},
      {"server.submit_us.p50", "us"},
      {"server.wake_us.p50", "us"},
      {"query.miss_share", "share"},
      {"query.miss_ms.p50", "ms"},
      {"query.seeded_tests_per_miss", "count"},
      {"query.evictions_per_op", "count"},
      {"query.update_ms.p50", "ms"},
      {"query.update_tests_per_update", "count"},
      {"query.repaired_share", "share"},
      {"query.pinned_recomputes", "count"},
      {"server.mean_batch_size", "count"},
      {"server.union_seeds", "count"},
      {"server.queue_wait_ms.p50", "ms"},
      {"stream.dt_per_insert", "count"},
      {"stream.candidates_per_insert", "count"},
      {"stream.rejected_share", "share"},
      {"stream.compactions", "count"},
      {"stream.compact_ms", "ms"},
      {"stream.refreezes", "count"},
      {"stream.refreeze_ms", "ms"},
      {"stream.peak_resident_rows", "count"},
      {"trace.overhead_share", "share"},
  };
  list.insert(list.end(), std::begin(rest), std::end(rest));
  return list;
}

}  // namespace

void DeclareLayerMetrics(Metrics* metrics) {
  for (const LayerMetric& m : LayerMetricList()) {
    metrics->Set(m.name, 0, m.unit);
  }
}

void PaperProbe(std::uint64_t seed, Tracer* tracer, Metrics* metrics) {
  const auto algorithm = skyline::MakeAlgorithm("sfs-subset");
  const int sigma = skyline::SkylineAlgorithm::EffectiveSigma(0, kOfflineD);
  for (skyline::DataType type : kFamilies) {
    const std::string tag(skyline::ShortName(type));
    const auto t0 = Clock::now();
    const skyline::Dataset data =
        skyline::Generate(type, kOfflineN, kOfflineD, seed);
    const auto t1 = Clock::now();
    tracer->Add("data.Generate", 0, -1, t0, t1);
    const skyline::MergeResult merge = skyline::MergeSubspaces(data, sigma);
    const auto t2 = Clock::now();
    tracer->Add("subset.Merge", 0, -1, t1, t2, merge.dominance_tests);
    skyline::SkylineStats stats;
    algorithm->Compute(data, &stats);
    const auto t3 = Clock::now();
    tracer->Add("algo.Compute", 0, -1, t2, t3, stats.dominance_tests);
    metrics->Set("subset.merge_ms." + tag, Millis(t2 - t1), "ms");
    metrics->Set("subset.dt_per_point." + tag,
                 stats.MeanDominanceTests(data.num_points()), "count");
  }
}

void ReportOverhead(double untraced_ops_per_s, double traced_ops_per_s,
                    Metrics* metrics) {
  metrics->Set("trace.overhead_share",
               untraced_ops_per_s > 0
                   ? 1.0 - traced_ops_per_s / untraced_ops_per_s
                   : 0,
               "share");
}

}  // namespace perfbench
