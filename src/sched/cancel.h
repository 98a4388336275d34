// Cooperative cancellation for scheduled work. A CancelSource owns the
// cancelled bit; CancelTokens are cheap shared observers handed to
// submissions. Cancellation is a request, not an interrupt: the scheduler
// and the service check tokens at evaluation boundaries (admission, queue
// pop, publication), and the core search loops poll them at amortized
// checkpoints (SearchOptions::cancel), so a decider that has already
// started aborts at the next checkpoint instead of running to completion.
//
// Coalescing interacts through polling: a coalesced flight group is shed
// (queued) or aborted (running) only when EVERY member's token is
// cancelled — members without a token count as permanently interested.
// CancelGroup packages that rule as a single joint token the running
// evaluation can poll, with membership that may still grow while the
// computation runs.
#ifndef RELCOMP_SCHED_CANCEL_H_
#define RELCOMP_SCHED_CANCEL_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace relcomp {
namespace sched {

class CancelSource;
class CancelGroup;

/// Observer half: copyable, cheap, thread-safe. A default-constructed token
/// is "invalid" — it belongs to no source and never reports cancellation,
/// so plumbing that doesn't care about cancellation passes tokens around
/// for free.
class CancelToken {
 public:
  CancelToken() = default;

  /// Whether this token is connected to a source at all.
  bool valid() const { return state_ != nullptr; }

  /// Whether the owning source (or joint group) has requested cancellation.
  /// Invalid tokens are never cancelled.
  bool cancelled() const { return state_ != nullptr && state_->cancelled(); }

 private:
  friend class CancelSource;
  friend class CancelGroup;

  /// Pluggable observer state: a plain flipped-once bit (CancelSource) or a
  /// joint all-members poll (CancelGroup).
  struct State {
    virtual ~State() = default;
    virtual bool cancelled() const = 0;
  };

  explicit CancelToken(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

/// Owner half: Cancel() flips the shared bit exactly once; every token
/// minted from this source observes it. Destroying the source does NOT
/// cancel outstanding tokens (work keeps its meaning when the requester
/// merely goes away without asking to cancel).
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<FlagState>()) {}

  CancelToken token() const { return CancelToken(state_); }

  void Cancel() { state_->flag.store(true, std::memory_order_release); }

  bool cancelled() const {
    return state_->flag.load(std::memory_order_acquire);
  }

 private:
  struct FlagState : CancelToken::State {
    std::atomic<bool> flag{false};
    bool cancelled() const override {
      return flag.load(std::memory_order_acquire);
    }
  };

  std::shared_ptr<FlagState> state_;
};

/// Joint interest in one shared computation (a coalesced flight group).
/// Participants register their tokens with Add; token() observes the group
/// rule: cancelled only when the group has at least one participant and
/// EVERY participant's token is cancelled.
/// Adding an invalid token pins the group live forever (that participant
/// can never withdraw its interest), and participants may keep joining
/// while the computation runs — a late joiner revives a group whose earlier
/// members have all cancelled, provided the evaluation has not yet observed
/// the joint cancellation at a checkpoint.
///
/// Polls take a mutex; they are meant for amortized checkpoints and queue
/// boundaries, not per-step hot loops.
class CancelGroup {
 public:
  CancelGroup() : state_(std::make_shared<GroupState>()) {}

  /// Registers one participant. Thread-safe against token() polls.
  void Add(CancelToken member) {
    MutexLock lock(state_->mu);
    if (state_->pinned) return;
    if (!member.valid()) {
      state_->pinned = true;
      state_->members.clear();  // the poll can never succeed again
      return;
    }
    state_->members.push_back(std::move(member));
  }

  /// The joint observer token (cheap to copy; polls under the group lock).
  CancelToken token() const { return CancelToken(state_); }

  /// Whether every registered participant has cancelled (false while the
  /// group is empty or pinned).
  bool cancelled() const { return state_->cancelled(); }

 private:
  struct GroupState : CancelToken::State {
    mutable Mutex mu{LockRank::kCancelGroup, "CancelGroup::mu"};
    bool pinned GUARDED_BY(mu) = false;  ///< an uncancellable participant joined
    std::vector<CancelToken> members GUARDED_BY(mu);

    bool cancelled() const override {
      // Poll OUTSIDE the lock, over a snapshot: a member may itself be
      // another group's token (a caller may pass a group's token as a
      // request's options.cancel), and polling it under this group's mutex
      // would nest two same-rank mutexes. A participant Add racing the
      // poll lands as if it joined just after the snapshot.
      std::vector<CancelToken> snapshot;
      {
        MutexLock lock(mu);
        if (pinned || members.empty()) return false;
        snapshot = members;
      }
      for (const CancelToken& member : snapshot) {
        if (!member.cancelled()) return false;
      }
      return true;
    }
  };

  std::shared_ptr<GroupState> state_;
};

}  // namespace sched

// The cancellation vocabulary is used below the sched layer too (core
// search loops poll a token via SearchOptions), so the names are also
// exported at the relcomp level.
using sched::CancelGroup;
using sched::CancelSource;
using sched::CancelToken;

}  // namespace relcomp

#endif  // RELCOMP_SCHED_CANCEL_H_
