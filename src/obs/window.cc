#include "obs/window.h"

#include <algorithm>

namespace relcomp {
namespace obs {

namespace {

int64_t SecondOf(std::chrono::steady_clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::seconds>(
             now.time_since_epoch())
      .count();
}

// Whether `slot_second` falls inside the trailing window [now-window+1, now]
// — the current second counts as the window's newest slot. Callers clamp
// `window_secs` to the ring size first: a slot older than the ring's span
// belongs to a second the ring can no longer represent (its intervening
// seconds were recycled), so counting it would resurrect expired data.
bool InWindow(int64_t slot_second, int64_t now_second, uint64_t window_secs) {
  if (slot_second < 0) return false;
  if (slot_second > now_second) return false;  // clock skew guard
  return now_second - slot_second <
         static_cast<int64_t>(std::max<uint64_t>(window_secs, 1));
}

}  // namespace

void WindowedHistogram::Record(uint64_t value, Clock::time_point now) {
  const int64_t second = SecondOf(now);
  MutexLock lock(mu_);
  Slot& slot = slots_[static_cast<size_t>(second) % slots_.size()];
  if (slot.second != second) {
    slot.second = second;
    slot.data = HistogramData{};
  }
  slot.data.buckets[HistogramData::BucketIndex(value)] += 1;
  slot.data.count += 1;
  slot.data.sum += value;
  slot.data.max = std::max(slot.data.max, value);
}

HistogramData WindowedHistogram::Snapshot(uint64_t window_secs,
                                          Clock::time_point now) const {
  const int64_t second = SecondOf(now);
  HistogramData merged;
  MutexLock lock(mu_);
  window_secs = std::min<uint64_t>(window_secs, slots_.size());
  for (const Slot& slot : slots_) {
    if (InWindow(slot.second, second, window_secs)) merged.Merge(slot.data);
  }
  return merged;
}

double WindowedHistogram::Rate(uint64_t window_secs,
                               Clock::time_point now) const {
  if (window_secs == 0) window_secs = 1;
  return static_cast<double>(Snapshot(window_secs, now).count) /
         static_cast<double>(window_secs);
}

}  // namespace obs
}  // namespace relcomp
