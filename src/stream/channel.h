#ifndef ICEWAFL_STREAM_CHANNEL_H_
#define ICEWAFL_STREAM_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "stream/tuple.h"
#include "util/sync.h"

namespace icewafl {

/// \brief Counters describing one channel's traffic.
///
/// `blocked_pushes` / `blocked_pops` count the calls that had to wait on
/// the condition variable — the direct measure of backpressure (full
/// channel) and starvation (empty channel) between pipeline stages.
struct ChannelStats {
  uint64_t pushes = 0;
  uint64_t pops = 0;
  uint64_t blocked_pushes = 0;
  uint64_t blocked_pops = 0;
  /// Rejected TryPush calls, by reason. These are what reconcile the
  /// server's slow-consumer metrics (drops, disconnects) against the
  /// channel layer: every dropped frame starts as a kFull TryPush.
  uint64_t try_push_full = 0;
  uint64_t try_push_closed = 0;
  /// Largest number of items queued at once (peak buffering).
  uint64_t peak_queued = 0;

  /// \brief Accumulates `other` (peak takes the max; everything else sums).
  void Add(const ChannelStats& other) {
    pushes += other.pushes;
    pops += other.pops;
    blocked_pushes += other.blocked_pushes;
    blocked_pops += other.blocked_pops;
    try_push_full += other.try_push_full;
    try_push_closed += other.try_push_closed;
    if (other.peak_queued > peak_queued) peak_queued = other.peak_queued;
  }
};

/// \brief Bounded blocking MPSC/MPMC queue connecting pipeline stages.
///
/// The backbone of the pipelined runtime: producers `Push` until the
/// channel holds `capacity` items, then block — backpressure propagates
/// upstream to the source, which is what bounds the memory footprint of
/// an unbounded stream. Consumers `Pop` until the channel is both closed
/// and drained.
///
/// End-of-stream and abort are modelled explicitly:
///  - `Close()`   — graceful: no further pushes succeed, queued items
///                  remain poppable (normal end of a bounded stream);
///  - `Poison()`  — abort: closes *and* discards queued items so blocked
///                  producers and consumers wake immediately (error
///                  propagation across stages).
///
/// All operations are safe to call concurrently from any thread. The
/// channel lock ranks as `kLockRankChannel` in the global hierarchy
/// (util/sync.h): server code may enqueue while holding registry /
/// session / connection locks, but channel callbacks never re-enter the
/// server.
template <typename T>
class BoundedChannel {
 public:
  /// \param capacity maximum queued items (>= 1).
  explicit BoundedChannel(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedChannel(const BoundedChannel&) = delete;
  BoundedChannel& operator=(const BoundedChannel&) = delete;

  /// \brief Enqueues `item`, blocking while the channel is full.
  /// \return false iff the channel was closed (the item is dropped).
  bool Push(T item) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    bool waited = false;
    while (queue_.size() >= capacity_ && !closed_) {
      waited = true;
      not_full_.Wait(mu_);
    }
    if (closed_) return false;
    queue_.push_back(std::move(item));
    ++stats_.pushes;
    // A wait only counts as backpressure when the push actually lands;
    // waits cut short by Close()/Poison() are aborts, not backpressure.
    if (waited) ++stats_.blocked_pushes;
    if (queue_.size() > stats_.peak_queued) stats_.peak_queued = queue_.size();
    lock.Unlock();
    not_empty_.NotifyOne();
    return true;
  }

  /// \brief Outcome of a non-blocking TryPush.
  enum class PushResult { kOk, kFull, kClosed };

  /// \brief Non-blocking enqueue; never waits. Used by the serving
  /// fan-out to implement the drop_oldest / disconnect slow-consumer
  /// policies, where a full queue is a decision point, not a wait.
  PushResult TryPush(T item) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (closed_) {
      ++stats_.try_push_closed;
      return PushResult::kClosed;
    }
    if (queue_.size() >= capacity_) {
      ++stats_.try_push_full;
      return PushResult::kFull;
    }
    queue_.push_back(std::move(item));
    ++stats_.pushes;
    if (queue_.size() > stats_.peak_queued) stats_.peak_queued = queue_.size();
    lock.Unlock();
    not_empty_.NotifyOne();
    return PushResult::kOk;
  }

  /// \brief Non-blocking dequeue; never waits.
  /// \return false when the channel is currently empty (whether open or
  /// closed — combine with closed() to distinguish end of stream, which
  /// is race-free for a channel's single consumer).
  bool TryPop(T* out) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.pops;
    lock.Unlock();
    not_full_.NotifyOne();
    return true;
  }

  /// \brief Every item costs 1: a TryPopMany budget is an item count.
  struct UnitCost {
    size_t operator()(const T& /*item*/) const { return 1; }
  };

  /// \brief Non-blocking bulk dequeue: appends items to `*out` under one
  /// lock acquisition while the summed `cost(item)` of the items taken
  /// so far is below `budget`, and wakes producers blocked in Push when
  /// it took anything. The budget is checked before each pop, so with a
  /// weight such as a byte size the last item may overshoot it — the
  /// bound a TryPop loop checking a running total gives.
  /// \return the number of items taken; 0 when the channel is empty
  /// (open, closed, or poisoned alike).
  template <typename CostFn = UnitCost>
  size_t TryPopMany(std::vector<T>* out, size_t budget, CostFn cost = {})
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    size_t taken = 0;
    size_t spent = 0;
    while (spent < budget && !queue_.empty()) {
      spent += cost(queue_.front());
      out->push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++taken;
    }
    stats_.pops += taken;
    lock.Unlock();
    if (taken > 0) not_full_.NotifyAll();
    return taken;
  }

  /// \brief Dequeues into `*out`, blocking while the channel is empty and
  /// still open.
  /// \return false iff the channel is closed and drained (end of stream).
  bool Pop(T* out) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (queue_.empty() && !closed_) {
      ++stats_.blocked_pops;
      while (queue_.empty() && !closed_) not_empty_.Wait(mu_);
    }
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.pops;
    lock.Unlock();
    not_full_.NotifyOne();
    return true;
  }

  /// \brief Closes the channel for writing; queued items stay poppable.
  void Close() EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  /// \brief Closes the channel and discards queued items (abort path).
  void Poison() EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
      queue_.clear();
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  bool closed() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return queue_.size();
  }

  size_t capacity() const { return capacity_; }

  ChannelStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_{kLockRankChannel};
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> queue_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  ChannelStats stats_ GUARDED_BY(mu_);
};

/// \brief Channel of tuple batches — the unit of transfer between
/// pipeline stages (batching amortizes locking and virtual dispatch).
using BatchChannel = BoundedChannel<TupleVector>;

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_CHANNEL_H_
