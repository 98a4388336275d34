// Sliding-window metrics: recent-window rates and quantiles next to the
// registry's since-start cumulative values. A WindowedHistogram keeps an
// N-slot ring of one-second buckets tagged with the absolute second they
// cover; Record() lands in the current second's slot (lazily re-tagging
// slots whose second has passed), and a read merges the slots inside the
// asked window. Merging rides the HistogramData bucket algebra, so a
// windowed p95 is computed exactly the way the cumulative one is — same
// buckets, same interpolation — just over a bounded time range; the
// window's count over its width is the recent event rate.
//
// Every call takes an explicit time point (defaulted to now) so tests
// drive deterministic timelines, and the type is small enough to live
// per-shard: one mutex (rank kObsWindow, a leaf) guarding a fixed-size
// ring, no allocation after construction.
#ifndef RELCOMP_OBS_WINDOW_H_
#define RELCOMP_OBS_WINDOW_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/histogram.h"
#include "util/mutex.h"

namespace relcomp {
namespace obs {

/// A histogram whose recent distribution is queryable: Snapshot(10s)
/// merges the last 10 one-second HistogramData slots, giving recent
/// p50/p95/p99 with the same bucket math as the cumulative histogram.
/// Slots older than the ring's span are recycled in place, so it answers
/// for any window up to `window_slots` seconds.
class WindowedHistogram {
 public:
  using Clock = std::chrono::steady_clock;

  /// `window_slots` is the history depth in seconds (>= 1; the default
  /// covers the 60 s reporting window plus slack for slot-boundary skew).
  explicit WindowedHistogram(size_t window_slots = 64)
      : slots_(window_slots == 0 ? 1 : window_slots) {}

  void Record(uint64_t value, Clock::time_point now = Clock::now());

  /// The merged distribution of the trailing `window_secs` seconds
  /// (clamped to the ring's span). Empty HistogramData when idle.
  HistogramData Snapshot(uint64_t window_secs,
                         Clock::time_point now = Clock::now()) const;

  /// Mean values recorded per second over the trailing window: the count
  /// of the (clamped) window divided by `window_secs`.
  double Rate(uint64_t window_secs, Clock::time_point now = Clock::now()) const;

 private:
  struct Slot {
    int64_t second = -1;
    HistogramData data;
  };

  mutable Mutex mu_{LockRank::kObsWindow, "WindowedHistogram::mu_"};
  std::vector<Slot> slots_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace relcomp

#endif  // RELCOMP_OBS_WINDOW_H_
