#include "perfbench/certify.h"

#include <algorithm>

namespace perfbench {

using skyline::PointId;
using skyline::Subspace;

namespace {
constexpr PointId kNoWitness = std::numeric_limits<PointId>::max();
}  // namespace

AnswerChecker::AnswerChecker(const skyline::Dataset& initial)
    : d_(initial.num_dims()),
      rows_(initial.values().begin(), initial.values().end()),
      born_(initial.num_points(), 0),
      died_(initial.num_points(), kNever),
      witness_(ParallelWorkers(),
               UVec<PointId>(initial.num_points(), kNoWitness)) {}

void AnswerChecker::RecordUpdate(std::uint64_t epoch,
                                 std::span<const skyline::Value> inserts,
                                 std::span<const PointId> removed) {
  const PointId first = static_cast<PointId>(born_.size());
  const PointId count = static_cast<PointId>(inserts.size() / d_);
  rows_.insert(rows_.end(), inserts.begin(), inserts.end());
  born_.resize(born_.size() + count, epoch);
  died_.resize(died_.size() + count, kNever);
  for (PointId id : removed) died_[id] = epoch;
  log_[epoch] = {first, count, UVec<PointId>(removed.begin(), removed.end())};
}

bool AnswerChecker::RecordAnswer(Subspace v, std::uint64_t epoch,
                                 const std::vector<PointId>& ids) {
  auto [it, inserted] = pending_.try_emplace({v.bits(), epoch});
  Recorded& r = it->second;
  ++r.ops;
  if (inserted) {
    r.ids.assign(ids.begin(), ids.end());
    return true;
  }
  return r.ids.size() == ids.size() &&
         std::equal(ids.begin(), ids.end(), r.ids.begin());
}

bool AnswerChecker::Dominates(Subspace v, PointId a, PointId b) const {
  const skyline::Value* ra = &rows_[static_cast<std::size_t>(a) * d_];
  const skyline::Value* rb = &rows_[static_cast<std::size_t>(b) * d_];
  bool strict = false;
  for (skyline::Dim k = 0; k < d_; ++k) {
    if (!v.Contains(k)) continue;
    if (ra[k] > rb[k]) return false;
    strict |= ra[k] < rb[k];
  }
  return strict;
}

// Exact check of one answer against the replica at `epoch`: every member
// live and undominated, every live non-member dominated on the cuboid's
// dimensions. A non-member first tries its witness — any live point that
// dominates it will do, since a dominating member then exists by
// transitivity — and otherwise scans the members in coordinate-sum order
// (a dominator never has a larger sum, so the scan stops at the first
// larger one).
bool AnswerChecker::Certify(Subspace v, std::uint64_t epoch,
                            const UVec<PointId>& ids,
                            UVec<PointId>& witness) const {
  const std::size_t n = born_.size();
  UVec<skyline::Dim> dims;
  for (skyline::Dim k = 0; k < d_; ++k) {
    if (v.Contains(k)) dims.push_back(k);
  }
  const std::size_t k = dims.size();
  auto project = [&](PointId id, skyline::Value* out) {
    skyline::Value sum = 0;
    const skyline::Value* row = &rows_[static_cast<std::size_t>(id) * d_];
    for (std::size_t j = 0; j < k; ++j) {
      out[j] = row[dims[j]];
      sum += out[j];
    }
    return sum;
  };
  auto dominates = [k](const skyline::Value* a, const skyline::Value* b) {
    bool strict = false;
    for (std::size_t j = 0; j < k; ++j) {
      if (a[j] > b[j]) return false;
      strict |= a[j] < b[j];
    }
    return strict;
  };

  UVec<char> member(n, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= n || !Live(ids[i], epoch)) return false;
    if (i > 0 && ids[i - 1] >= ids[i]) return false;  // kOk answers ascend
    member[ids[i]] = 1;
  }
  const std::size_t m = ids.size();
  UVec<skyline::Value> p(k);
  UVec<std::pair<skyline::Value, PointId>> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = {project(ids[i], p.data()), ids[i]};
  std::sort(order.begin(), order.end());
  UVec<skyline::Value> rows(m * k);
  for (std::size_t i = 0; i < m; ++i) project(order[i].second, &rows[i * k]);
  // Index of the first member dominating q, or m.
  auto first_dominator = [&](const skyline::Value* q, skyline::Value sum) {
    for (std::size_t j = 0; j < m && order[j].first <= sum; ++j) {
      if (dominates(&rows[j * k], q)) return j;
    }
    return m;
  };
  // Members against members suffices: a non-member dominating a member
  // would itself be dominated by a member, which then dominates it too.
  for (std::size_t i = 0; i < m; ++i) {
    if (first_dominator(&rows[i * k], order[i].first) != m) return false;
  }
  for (PointId id = 0; id < n; ++id) {
    if (member[id] || !Live(id, epoch)) continue;
    const PointId w = witness[id];
    if (w != kNoWitness && Live(w, epoch) && Dominates(v, w, id)) continue;
    const std::size_t j = first_dominator(p.data(), project(id, p.data()));
    if (j == m) return false;
    witness[id] = order[j].second;
  }
  return true;
}

// An answer equal to the cuboid's last certified one is still exact if
// no update since removed a member and every inserted row still live is
// dominated by a member: an insert dominating a member would itself be
// dominated by a member, which would then dominate the first one — but
// members form an antichain; and every other live non-member keeps the
// dominating member it had.
bool AnswerChecker::Unchanged(Subspace v, const Certified& last,
                              std::uint64_t epoch) const {
  for (std::uint64_t e = last.epoch + 1; e <= epoch; ++e) {
    const Update& u = log_.at(e);
    for (PointId id : u.removed) {
      if (std::binary_search(last.ids.begin(), last.ids.end(), id)) {
        return false;
      }
    }
    for (PointId id = u.first_inserted; id < u.first_inserted + u.inserted;
         ++id) {
      if (!Live(id, epoch)) continue;
      if (std::none_of(last.ids.begin(), last.ids.end(), [&](PointId m) {
            return Dominates(v, m, id);
          })) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t AnswerChecker::CertifyRecorded() {
  const auto t0 = Clock::now();
  // One chain per cuboid, its answers in epoch order. The certified_
  // entries are made here, so the parallel part only writes values that
  // its chain owns.
  struct Chain {
    std::uint64_t bits = 0;
    Certified* last = nullptr;
    UVec<std::pair<std::uint64_t, Recorded*>> answers;  // (epoch, answer)
    std::uint64_t failed_ops = 0;
    std::size_t full = 0;
    std::size_t incremental = 0;
  };
  for (UVec<PointId>& w : witness_) w.resize(born_.size(), kNoWitness);
  UVec<Chain> chains;
  for (auto& [key, recorded] : pending_) {
    if (chains.empty() || chains.back().bits != key.first) {
      Chain chain;
      chain.bits = key.first;
      chain.last = &certified_[key.first];
      chains.push_back(std::move(chain));
    }
    chains.back().answers.emplace_back(key.second, &recorded);
  }
  ParallelFor(chains.size(), [&](std::size_t c, std::size_t worker) {
    Chain& chain = chains[c];
    const Subspace v(chain.bits);
    Certified& last = *chain.last;
    for (auto& [epoch, recorded] : chain.answers) {
      if (last.epoch != kNever && last.ids == recorded->ids &&
          Unchanged(v, last, epoch)) {
        last.epoch = epoch;
        ++chain.incremental;
        continue;
      }
      ++chain.full;
      if (Certify(v, epoch, recorded->ids, witness_[worker])) {
        last = {epoch, std::move(recorded->ids)};
      } else {
        chain.failed_ops += recorded->ops;
      }
    }
  });
  std::uint64_t failed_ops = 0;
  for (const Chain& chain : chains) {
    failed_ops += chain.failed_ops;
    full_ += chain.full;
    incremental_ += chain.incremental;
  }
  pending_.clear();
  seconds_ += Seconds(Clock::now() - t0);
  return failed_ops;
}

}  // namespace perfbench
