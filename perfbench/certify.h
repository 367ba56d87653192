// Answer checking for the `serve` workload. During the timed loop the
// client only records each distinct (cuboid, epoch) answer and the
// updates it applied; after the loop every recorded answer is certified
// against a client-side replica of the dataset that knows, per row, the
// epochs in which it was live. Nothing is certified between bursts, so
// the checker never evicts the server's working set from the caches the
// next burst runs on.
#ifndef PERFBENCH_CERTIFY_H_
#define PERFBENCH_CERTIFY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "perfbench/measure.h"
#include "src/core/dataset.h"
#include "src/core/subspace.h"

namespace perfbench {

class AnswerChecker {
 public:
  /// Replicates `initial` (epoch 0) outside the counted heap.
  explicit AnswerChecker(const skyline::Dataset& initial);

  /// Records the update that produced `epoch`: rows appended in order
  /// (ids continue the row count) and ids removed.
  void RecordUpdate(std::uint64_t epoch, std::span<const skyline::Value> inserts,
                    std::span<const skyline::PointId> removed);

  /// Records one exact answer for cuboid `v` at `epoch`. Returns false if
  /// an answer already recorded for the same (cuboid, epoch) differs.
  bool RecordAnswer(skyline::Subspace v, std::uint64_t epoch,
                    const std::vector<skyline::PointId>& ids);

  /// Certifies every answer recorded since the last call and returns the
  /// number of recorded answers (ops) whose (cuboid, epoch) failed.
  /// Cuboids are certified in parallel, each one's epochs in order.
  std::uint64_t CertifyRecorded();

  std::size_t full() const { return full_; }
  std::size_t incremental() const { return incremental_; }
  double seconds() const { return seconds_; }

 private:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  struct Recorded {
    UVec<skyline::PointId> ids;  // ascending
    std::uint64_t ops = 0;       // answers that repeated it
  };
  struct Update {
    skyline::PointId first_inserted = 0;
    skyline::PointId inserted = 0;
    UVec<skyline::PointId> removed;
  };
  struct Certified {
    std::uint64_t epoch = kNever;  // kNever: nothing certified yet
    UVec<skyline::PointId> ids;
  };
  template <typename K, typename V>
  using UMap = std::map<K, V, std::less<K>,
                        UncountedAllocator<std::pair<const K, V>>>;

  bool Live(skyline::PointId id, std::uint64_t epoch) const {
    return born_[id] <= epoch && epoch < died_[id];
  }
  bool Dominates(skyline::Subspace v, skyline::PointId a,
                 skyline::PointId b) const;
  bool Certify(skyline::Subspace v, std::uint64_t epoch,
               const UVec<skyline::PointId>& ids,
               UVec<skyline::PointId>& witness) const;
  bool Unchanged(skyline::Subspace v, const Certified& last,
                 std::uint64_t epoch) const;

  skyline::Dim d_;
  UVec<skyline::Value> rows_;   // every row ever recorded, row-major
  UVec<std::uint64_t> born_;    // epoch that inserted the row
  UVec<std::uint64_t> died_;    // epoch that removed it, or kNever
  // Per certifying thread, per row: a point that dominated the row.
  std::vector<UVec<skyline::PointId>> witness_;

  // Recorded answers by (cuboid bits, epoch): one cuboid's in epoch order.
  UMap<std::pair<std::uint64_t, std::uint64_t>, Recorded> pending_;
  UMap<std::uint64_t, Update> log_;            // by the epoch it made
  UMap<std::uint64_t, Certified> certified_;   // by cuboid bits
  std::size_t full_ = 0;
  std::size_t incremental_ = 0;
  double seconds_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CERTIFY_H_
