// Workload `serve`: SkylineServer over UI data, n=100000, d=8, driven by
// one client thread in a closed loop. The client submits a burst of
// kBurst Zipf(s=1) cuboid queries, waits for all of them, and after every
// kBurstsPerUpdate bursts applies one small update (inserts plus removes
// of live ids) — only between drained bursts, so an update's latency is
// its own apply cost. Ops are queries plus updates. Every distinct
// (cuboid, epoch) answer is certified once, after the timed loop
// (certify.h).
//
// Removes avoid the full-space skyline except in the last update of each
// cycle of kUpdatesPerCycle updates, which removes one of its members and
// so forces exactly one pinned full-space recompute per cycle. A run is
// a whole number of cycles: every run of a seed does the same work, and
// the recomputes (~0.2% of ops, the slowest) stay clear of the tail rank.
// Popularity shifts at every cycle (a new seeded rank-to-cuboid map).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "perfbench/certify.h"
#include "perfbench/workloads.h"
#include "src/server/server.h"

namespace perfbench {
namespace {

using skyline::PointId;
using skyline::Subspace;

constexpr std::size_t kServeN = 100000;
constexpr skyline::Dim kServeD = 8;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kBurst = 8;
constexpr std::size_t kBurstsPerUpdate = 16;
constexpr std::size_t kUpdatesPerCycle = 4;
constexpr std::size_t kUpdateInserts = 4;
constexpr std::size_t kUpdateRemoves = 4;
constexpr std::size_t kWarmCuboids = 64;  // the default cache capacity
constexpr std::size_t kCycleQueries =
    kUpdatesPerCycle * kBurstsPerUpdate * kBurst;
constexpr std::size_t kStreamCycles = 64;  // distinct popularity maps
constexpr std::size_t kInstances = 6;

/// Seed of cycle j's popularity map; cycle 0 uses the run's seed.
std::uint64_t CycleSeed(std::uint64_t seed, std::size_t cycle) {
  return seed ^ (cycle * 0x9e3779b97f4a7c15ULL);
}

struct State {
  std::unique_ptr<skyline::Dataset> data;
  std::unique_ptr<skyline::SkylineServer> server;  // reads *data
  double generate_s = 0;
  double construct_s = 0;
};

State MakeState(std::uint64_t seed, Tracer* tracer) {
  State s;
  const auto t0 = Clock::now();
  s.data = std::make_unique<skyline::Dataset>(skyline::Generate(
      skyline::DataType::kUniformIndependent, kServeN, kServeD, seed));
  const auto t1 = Clock::now();
  skyline::ServerOptions options;
  options.workers = kWorkers;
  options.query.threads = kWorkers;
  // The server's workers (and the parallel computes they start) inherit
  // two CPUs of their own; the client thread keeps a third.
  PinThread(1, kWorkers);
  s.server = std::make_unique<skyline::SkylineServer>(*s.data, options);
  PinThread(0, 1);
  const auto t2 = Clock::now();
  // Warm-up: the first cycle's hot set, in bursts.
  const std::vector<Subspace> ranked =
      RankedCuboids(kServeD, CycleSeed(seed, 0));
  for (std::size_t i = 0; i < kWarmCuboids; i += kBurst) {
    std::vector<skyline::ResponseHandle> handles;
    for (std::size_t j = i; j < i + kBurst && j < kWarmCuboids; ++j) {
      handles.push_back(s.server->Submit(ranked[j]));
    }
    for (const auto& h : handles) h.Wait();
  }
  const auto t3 = Clock::now();
  s.generate_s = Seconds(t1 - t0);
  s.construct_s = Seconds(t2 - t1);
  if (tracer != nullptr) {
    tracer->Add("data.Generate", 0, -1, t0, t1);
    tracer->Add("server.construct", 0, -1, t1, t2);
    tracer->Add("warmup", 0, -1, t2, t3);
  }
  return s;
}

/// The client: query stream, update generator, live-id mirror. Each
/// cycle draws its queries over a popularity map of its own, so a run
/// averages over several hot sets instead of resting on the one the seed
/// happened to pick.
struct Client {
  Client(std::uint64_t seed, const skyline::Dataset& data)
      : update_rng(seed ^ 0x0dd5eed5ULL), checker(data) {
    for (std::size_t j = 0; j < kStreamCycles; ++j) {
      const std::vector<Subspace> cycle =
          QueryStream(kServeD, kCycleQueries, CycleSeed(seed, j));
      stream.insert(stream.end(), cycle.begin(), cycle.end());
    }
    live.reserve(kServeN);
    for (PointId id = 0; id < kServeN; ++id) live.push_back(id);
  }
  std::vector<Subspace> stream;
  std::size_t next_query = 0;
  std::size_t bursts_since_update = 0;
  std::size_t updates_in_cycle = 0;
  std::mt19937_64 update_rng;
  UVec<PointId> live;
  PointId next_id = kServeN;
  std::uint64_t epoch = 0;  // of the last update the client applied
  AnswerChecker checker;
  std::uint64_t request = 0;
};

struct LayerSums {
  UVec<double> hit_us, submit_us, wake_us, miss_ms, update_ms;
  std::uint64_t queries = 0;
  double timed_ns = 0;
};

void RunBurst(skyline::SkylineServer& server, Client& c, TimedPass* pass,
              std::uint64_t* attempted, std::uint64_t* failed,
              Tracer* tracer, LayerSums* sums) {
  Subspace v[kBurst];
  skyline::ResponseHandle handle[kBurst];
  skyline::ServerResponse response[kBurst];
  Clock::time_point submit_start[kBurst], submit_end[kBurst], woke[kBurst];
  bool inline_hit[kBurst] = {};
  skyline::ServerStatsSnapshot before;
  if (tracer != nullptr) before = server.Stats();

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kBurst; ++i) {
    v[i] = c.stream[c.next_query++ % c.stream.size()];
    submit_start[i] = Clock::now();
    handle[i] = server.Submit(v[i]);
    submit_end[i] = Clock::now();
    if (tracer != nullptr) {
      skyline::ServerResponse peek;
      inline_hit[i] = handle[i].TryGet(&peek);
    }
  }
  for (std::size_t i = 0; i < kBurst; ++i) {
    response[i] = handle[i].Wait();
    woke[i] = Clock::now();
  }
  const auto t1 = Clock::now();
  pass->timed_s += Seconds(t1 - t0);

  for (std::size_t i = 0; i < kBurst; ++i) {
    pass->latency.Add(response[i].resolved_at - submit_start[i]);
    pass->queries.Add(response[i].resolved_at - submit_start[i]);
    ++*attempted;
    // Updates run only between drained bursts: every answer must be
    // exact at the client's epoch. Certified after the timed loop.
    const skyline::ServerResponse& r = response[i];
    if (r.status == skyline::StatusCode::kOk && r.epoch == c.epoch &&
        c.checker.RecordAnswer(v[i], r.epoch, r.ids)) {
      ++pass->ops;
    } else {
      ++*failed;
    }
  }
  if (tracer == nullptr) return;

  const skyline::ServerStatsSnapshot after = server.Stats();
  tracer->Add("burst", 0, -1, t0, t1,
              after.query.dominance_tests() - before.query.dominance_tests());
  sums->timed_ns += Millis(t1 - t0) * 1e6;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const std::uint64_t id = ++c.request;
    const auto resolved = std::max(response[i].resolved_at, submit_end[i]);
    const int op = tracer->Add("op", id, -1, submit_start[i], woke[i]);
    tracer->Add("server.Submit", id, op, submit_start[i], submit_end[i]);
    tracer->Add("server.resolve", id, op, submit_end[i], resolved);
    tracer->Add("client.wake", id, op, resolved, woke[i]);
    sums->submit_us.push_back(Micros(submit_end[i] - submit_start[i]));
    sums->wake_us.push_back(Micros(woke[i] - response[i].resolved_at));
    if (inline_hit[i]) {
      sums->hit_us.push_back(Micros(submit_end[i] - submit_start[i]));
    } else {
      sums->miss_ms.push_back(
          Millis(response[i].resolved_at - submit_start[i]));
    }
    ++sums->queries;
  }
}

/// Takes live id c.live[at] out of the client's mirror.
PointId TakeLive(Client& c, std::size_t at) {
  const PointId id = c.live[at];
  c.live[at] = c.live.back();
  c.live.pop_back();
  return id;
}

void RunUpdate(skyline::SkylineServer& server, Client& c, bool remove_member,
               TimedPass* pass, std::uint64_t* attempted,
               std::uint64_t* failed, Tracer* tracer, LayerSums* sums) {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<skyline::Value> inserts(kUpdateInserts * kServeD);
  for (double& x : inserts) x = uniform(c.update_rng);

  // The current full-space skyline, read untimed through the server (an
  // inline hit on the pinned entry; not an op).
  std::vector<PointId> full = server.Query(Subspace::Full(kServeD)).ids;
  std::sort(full.begin(), full.end());
  std::vector<PointId> removes;
  if (remove_member && !full.empty()) {
    std::uniform_int_distribution<std::size_t> pick(0, full.size() - 1);
    const PointId id = full[pick(c.update_rng)];
    removes.push_back(
        TakeLive(c, static_cast<std::size_t>(
                        std::find(c.live.begin(), c.live.end(), id) -
                        c.live.begin())));
  }
  while (removes.size() < kUpdateRemoves) {
    std::uniform_int_distribution<std::size_t> pick(0, c.live.size() - 1);
    const std::size_t at = pick(c.update_rng);
    if (std::binary_search(full.begin(), full.end(), c.live[at])) continue;
    removes.push_back(TakeLive(c, at));
  }
  for (std::size_t i = 0; i < kUpdateInserts; ++i) c.live.push_back(c.next_id++);
  const std::vector<skyline::Value> inserted = inserts;
  const std::vector<PointId> removed = removes;

  skyline::ServerStatsSnapshot before;
  if (tracer != nullptr) before = server.Stats();
  const auto t0 = Clock::now();
  const skyline::ResponseHandle handle =
      server.SubmitUpdate(std::move(inserts), std::move(removes));
  const auto t_submit = Clock::now();
  const skyline::ServerResponse r = handle.Wait();
  const auto t1 = Clock::now();
  pass->timed_s += Seconds(t1 - t0);
  const double ms = Millis(r.resolved_at - t0);
  pass->latency.Add(r.resolved_at - t0);
  ++*attempted;
  if (r.status == skyline::StatusCode::kOk && r.epoch == c.epoch + 1) {
    ++pass->ops;
    c.epoch = r.epoch;
    c.checker.RecordUpdate(r.epoch, inserted, removed);
  } else {
    ++*failed;
  }
  if (tracer == nullptr) return;

  const skyline::ServerStatsSnapshot after = server.Stats();
  const std::uint64_t id = ++c.request;
  const auto resolved = std::max(r.resolved_at, t_submit);
  const int op = tracer->Add("op", id, -1, t0, t1);
  tracer->Add("server.SubmitUpdate", id, op, t0, t_submit);
  tracer->Add("server.resolve", id, op, t_submit, resolved,
              after.query.update_tests - before.query.update_tests);
  tracer->Add("client.wake", id, op, resolved, t1);
  sums->update_ms.push_back(ms);
  sums->timed_ns += Millis(t1 - t0) * 1e6;
}

/// Runs whole cycles on `s` for at least `seconds` of timed work, adding
/// to `pass`, then certifies what the client recorded.
void RunOps(State& s, Client& c, double seconds, TimedPass* pass,
            std::uint64_t* attempted, std::uint64_t* failed, Tracer* tracer,
            LayerSums* sums) {
  const double until = pass->timed_s + seconds;
  double unit_s = pass->timed_s;
  std::uint64_t unit_ops = pass->ops;
  HeapResetPeak();
  // Whole cycles only; a fresh client starts at a cycle boundary.
  while (pass->timed_s < until || c.bursts_since_update != 0 ||
         c.updates_in_cycle != 0) {
    if (c.bursts_since_update < kBurstsPerUpdate) {
      RunBurst(*s.server, c, pass, attempted, failed, tracer, sums);
      ++c.bursts_since_update;
      continue;
    }
    const bool last = ++c.updates_in_cycle == kUpdatesPerCycle;
    RunUpdate(*s.server, c, last, pass, attempted, failed, tracer, sums);
    c.bursts_since_update = 0;
    if (!last) continue;
    c.updates_in_cycle = 0;
    pass->unit_rate.push_back(static_cast<double>(pass->ops - unit_ops) /
                              (pass->timed_s - unit_s));
    unit_s = pass->timed_s;
    unit_ops = pass->ops;
  }
  pass->peak_heap_bytes = std::max(pass->peak_heap_bytes, HeapPeakBytes());
  // A failed answer fails the run; the cycle rates above counted it.
  const std::uint64_t rejected = c.checker.CertifyRecorded();
  pass->ops -= rejected;
  *failed += rejected;
  std::printf("# serve: %zu (cuboid, epoch) answers certified in %.3f s "
              "after the timed loop (%zu in full, %zu from the updates "
              "since)\n",
              c.checker.full() + c.checker.incremental(), c.checker.seconds(),
              c.checker.full(), c.checker.incremental());
}

double Share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

Outcome RunServe(const RunOptions& options) {
  Outcome out;
  if (!options.trace) {
    // The run serves kInstances datasets in turn, each set up, warmed and
    // run for an equal share of the seconds: the cost of one 100K-row
    // dataset moves ~40% with its seed (its skyline has 9000-11000
    // points), and serving several keeps the seed from moving the
    // figures. setup_s is the median of the instances' setups.
    UVec<double> setup_s;
    TimedPass pass;
    for (std::size_t k = 0; k < kInstances; ++k) {
      const std::uint64_t seed = options.seed ^ (k * 0x9e3779b97f4a7c15ULL);
      const auto t0 = Clock::now();
      State s = MakeState(seed, nullptr);
      setup_s.push_back(Seconds(Clock::now() - t0));
      Client client(seed, *s.data);
      RunOps(s, client, options.seconds / kInstances, &pass, &out.attempted,
             &out.failed, nullptr, nullptr);
    }
    ReportEndToEnd("serve", setup_s, pass, &out.metrics);
  } else {
    Tracer tracer;
    DeclareLayerMetrics(&out.metrics);
    PaperProbe(options.seed, &tracer, &out.metrics);
    State s = MakeState(options.seed, &tracer);
    out.metrics.Set("data.generate_s", s.generate_s, "s");
    out.metrics.Set("server.construct_s", s.construct_s, "s");
    Client client(options.seed, *s.data);
    const double half = options.seconds / 2;
    TimedPass plain;
    RunOps(s, client, half, &plain, &out.attempted, &out.failed, nullptr,
           nullptr);
    LayerSums sums;
    const skyline::ServerStatsSnapshot before = s.server->Stats();
    TimedPass traced;
    RunOps(s, client, half, &traced, &out.attempted, &out.failed, &tracer,
           &sums);
    const skyline::ServerStatsSnapshot after = s.server->Stats();
    ReportOverhead(static_cast<double>(plain.ops) / plain.timed_s,
                   static_cast<double>(traced.ops) / traced.timed_s,
                   &out.metrics);

    const skyline::QueryStatsSnapshot& qa = after.query;
    const skyline::QueryStatsSnapshot& qb = before.query;
    const std::uint64_t ops = traced.latency.size();
    const std::uint64_t dt = (qa.dominance_tests() - qb.dominance_tests()) +
                             (after.stale_tests - before.stale_tests);
    out.metrics.Set("core.dt_per_op", Share(dt, ops), "count");
    out.metrics.Set("core.ns_per_dt",
                    dt == 0 ? 0 : sums.timed_ns / static_cast<double>(dt),
                    "ns");
    out.metrics.Set("query.hit_us.p50", Median(sums.hit_us), "us");
    out.metrics.Set("server.submit_us.p50", Median(sums.submit_us), "us");
    out.metrics.Set("server.wake_us.p50", Median(sums.wake_us), "us");
    out.metrics.Set("query.miss_share",
                    Share(qa.misses() - qb.misses(), sums.queries), "share");
    out.metrics.Set("query.miss_ms.p50", Median(sums.miss_ms), "ms");
    out.metrics.Set(
        "query.seeded_tests_per_miss",
        Share(qa.seeded_tests - qb.seeded_tests, qa.seeded - qb.seeded),
        "count");
    out.metrics.Set("query.evictions_per_op",
                    Share(qa.evictions - qb.evictions, ops), "count");
    out.metrics.Set("query.update_ms.p50", Median(sums.update_ms), "ms");
    out.metrics.Set(
        "query.update_tests_per_update",
        Share(qa.update_tests - qb.update_tests, qa.updates - qb.updates),
        "count");
    const std::uint64_t repaired = qa.repaired - qb.repaired;
    out.metrics.Set(
        "query.repaired_share",
        Share(repaired, repaired + (qa.invalidated - qb.invalidated)),
        "share");
    out.metrics.Set("query.pinned_recomputes",
                    static_cast<double>(qa.pinned_recomputes -
                                        qb.pinned_recomputes),
                    "count");
    out.metrics.Set("server.mean_batch_size",
                    Share(after.batched_requests - before.batched_requests,
                          after.batches - before.batches),
                    "count");
    out.metrics.Set("server.union_seeds",
                    static_cast<double>(after.union_seeds - before.union_seeds),
                    "count");
    skyline::LatencyHistogram::Snapshot wait = after.queue_wait;
    wait.total = 0;
    for (int b = 0; b < skyline::LatencyHistogram::kBuckets; ++b) {
      wait.counts[b] -= before.queue_wait.counts[b];
      wait.total += wait.counts[b];
    }
    out.metrics.Set("server.queue_wait_ms.p50",
                    static_cast<double>(wait.PercentileNanos(50)) / 1e6, "ms");
    tracer.PrintSummary(std::cout);
    if (!options.trace_path.empty()) tracer.WriteJsonLines(options.trace_path);
  }
  out.correct = out.failed == 0 && out.attempted > 0;
  return out;
}

}  // namespace perfbench
