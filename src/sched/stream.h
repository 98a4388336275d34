// A small unbounded multi-producer single-consumer stream, the delivery
// channel of the service's streaming submission path. Workers Publish()
// items as decisions complete; the consumer pulls them with Next()
// (iterator style) or drains them into a callback.
//
// Generic on the item type so the sched/ layer stays below service/ (the
// service instantiates it with indexed Decisions).
#ifndef RELCOMP_SCHED_STREAM_H_
#define RELCOMP_SCHED_STREAM_H_

#include <deque>
#include <utility>

#include "util/mutex.h"

namespace relcomp {
namespace sched {

template <typename T>
class Stream {
 public:
  Stream() = default;
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Producer side: enqueues an item; never blocks.
  void Publish(T item) {
    // The notification stays under the lock: a consumer that saw the final
    // item may destroy the stream the moment it can reacquire the mutex,
    // so the cv must not be touched after the unlock.
    MutexLock lock(mu_);
    items_.push_back(std::move(item));
    items_cv_.NotifyOne();
  }

  /// Producer side: no more items will be published. Idempotent.
  void Finish() {
    MutexLock lock(mu_);
    finished_ = true;
    items_cv_.NotifyAll();
  }

  /// Consumer side: blocks for the next item. Returns false once the
  /// stream is finished and drained.
  bool Next(T* out) {
    MutexLock lock(mu_);
    while (!finished_ && items_.empty()) items_cv_.Wait(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Consumer side: drains every remaining item into `sink`, blocking
  /// until the stream finishes.
  template <typename Sink>
  void Drain(Sink&& sink) {
    T item;
    while (Next(&item)) sink(std::move(item));
  }

 private:
  Mutex mu_{LockRank::kSchedStream, "Stream::mu_"};
  CondVar items_cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool finished_ GUARDED_BY(mu_) = false;
};

}  // namespace sched
}  // namespace relcomp

#endif  // RELCOMP_SCHED_STREAM_H_
