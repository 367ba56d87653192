#include "perfbench/measure.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

namespace perfbench {

double Median(UVec<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailRank(std::size_t n) {
  Tail tail;
  tail.count = n;
  if (n <= kTailMinBeyond) return tail;
  // Rank r (1-based) sits at percentile 100*r/n with n-r samples above
  // it; take the largest r with r <= 0.99n and n-r >= kTailMinBeyond.
  const std::size_t by_cap = n - (n + 99) / 100;  // floor(0.99 n)
  const std::size_t rank = std::min(by_cap, n - kTailMinBeyond);
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = n - rank;
  return tail;
}

Tail TailOf(UVec<double> samples) {
  Tail tail = TailRank(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  tail.value = samples[samples.size() - 1 - tail.beyond];
  return tail;
}

void LatencySamples::Add(Clock::duration d) {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  ++count_;
  if (ns >= 0 && ns < kDenseNs) {
    if (dense_.empty()) dense_.assign(kDenseNs, 0);
    ++dense_[static_cast<std::size_t>(ns)];
    ++dense_count_;
  } else {
    sparse_.push_back(ns);
    sorted_ = false;
  }
}

double LatencySamples::RankMs(std::size_t k) {
  if (k >= count_) return 0;
  if (k >= dense_count_) {
    if (!sorted_) std::sort(sparse_.begin(), sparse_.end());
    sorted_ = true;
    return static_cast<double>(sparse_[k - dense_count_]) / 1e6;
  }
  std::size_t seen = 0;
  for (std::size_t ns = 0; ns < dense_.size(); ++ns) {
    seen += dense_[ns];
    if (seen > k) return static_cast<double>(ns) / 1e6;
  }
  return 0;  // unreachable: k < dense_count_
}

double LatencySamples::MedianMs() {
  if (count_ == 0) return 0;
  return count_ % 2 == 1
             ? RankMs(count_ / 2)
             : 0.5 * (RankMs(count_ / 2 - 1) + RankMs(count_ / 2));
}

Tail LatencySamples::TailMs() {
  Tail tail = TailRank(count_);
  if (count_ > 0) tail.value = RankMs(count_ - 1 - tail.beyond);
  return tail;
}

namespace {

/// The CPU set the process started with, read before the first pin.
const cpu_set_t& StartupCpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) CPU_SET(cpu, &set);
    }
    return set;
  }();
  return cpus;
}

}  // namespace

void PinThread(std::size_t first, std::size_t count) {
  const cpu_set_t allowed = StartupCpus();
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (std::size_t i = 0; i < count; ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &chosen);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(chosen), &chosen);
}

void UnpinThread() {
  pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &StartupCpus());
}

std::size_t ParallelWorkers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

void ParallelFor(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  auto work = [&](std::size_t worker) {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) body(i, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
      next.store(n);  // stop handing out indices
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 1; w < std::min(ParallelWorkers(), n); ++w) {
    threads.emplace_back([&work, w] {
      UnpinThread();
      work(w);
    });
  }
  work(0);
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0;  // JSON has no NaN/inf
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Metrics::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
