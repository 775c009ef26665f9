#include "stream/channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace icewafl {
namespace {

using IntChannel = BoundedChannel<int>;

TEST(ChannelTest, FifoOrder) {
  IntChannel ch(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.Push(i));
  ch.Close();
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ch.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ch.Pop(&v));
}

TEST(ChannelTest, CapacityIsClampedToOne) {
  IntChannel ch(0);
  EXPECT_EQ(ch.capacity(), 1u);
}

TEST(ChannelTest, PushBlocksWhenFullUntilPop) {
  IntChannel ch(2);
  EXPECT_TRUE(ch.Push(1));
  EXPECT_TRUE(ch.Push(2));
  EXPECT_EQ(ch.size(), 2u);

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.Push(3));  // blocks: channel full
    third_pushed.store(true);
  });

  // The producer must be parked on the full channel, not completing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(ch.size(), 2u);

  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_GE(ch.stats().blocked_pushes, 1u);
}

TEST(ChannelTest, CloseWakesBlockedPushAndReturnsFalse) {
  IntChannel ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result.store(ch.Push(2) ? 1 : 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(result.load(), -1);  // still blocked
  ch.Close();
  producer.join();
  EXPECT_EQ(result.load(), 0);  // push rejected, item dropped
  // The item queued before Close stays poppable.
  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(ch.Pop(&v));
}

TEST(ChannelTest, CloseWakesBlockedPopAndReturnsFalse) {
  IntChannel ch(4);
  std::atomic<int> result{-1};
  std::thread consumer([&] {
    int v = 0;
    result.store(ch.Pop(&v) ? 1 : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(result.load(), -1);  // still blocked on empty channel
  ch.Close();
  consumer.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_GE(ch.stats().blocked_pops, 1u);
}

TEST(ChannelTest, PoisonDiscardsQueuedItems) {
  IntChannel ch(4);
  EXPECT_TRUE(ch.Push(1));
  EXPECT_TRUE(ch.Push(2));
  ch.Poison();
  int v = 0;
  EXPECT_FALSE(ch.Pop(&v));  // queue discarded, not drained
  EXPECT_FALSE(ch.Push(3));
  EXPECT_TRUE(ch.closed());
  EXPECT_EQ(ch.size(), 0u);
}

TEST(ChannelTest, PoisonWakesBlockedProducer) {
  IntChannel ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result.store(ch.Push(2) ? 1 : 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ch.Poison();
  producer.join();
  EXPECT_EQ(result.load(), 0);
}

TEST(ChannelTest, FailedPushDoesNotCountAsBackpressure) {
  // Regression: a Push parked on a full channel whose wait ends because
  // of Close() used to increment blocked_pushes even though nothing was
  // enqueued — inflating the backpressure signal with aborts.
  IntChannel ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result.store(ch.Push(2) ? 1 : 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(result.load(), -1);  // parked on the full channel
  ch.Close();
  producer.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_EQ(ch.stats().blocked_pushes, 0u);
  EXPECT_EQ(ch.stats().pushes, 1u);
}

TEST(ChannelTest, SuccessfulPushAfterWaitStillCounts) {
  // The complement: a wait that ends with the item actually enqueued is
  // real backpressure and must be counted.
  IntChannel ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::thread producer([&] { EXPECT_TRUE(ch.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  producer.join();
  EXPECT_GE(ch.stats().blocked_pushes, 1u);
  EXPECT_EQ(ch.stats().pushes, 2u);
}

TEST(ChannelTest, TryPushOutcomesAreCountedByReason) {
  // Regression: rejected TryPush calls were invisible in ChannelStats,
  // so a fanout queue that dropped frames reconciled against nothing.
  // Every kFull and kClosed outcome must land in its own counter.
  IntChannel ch(2);
  EXPECT_EQ(ch.TryPush(1), IntChannel::PushResult::kOk);
  EXPECT_EQ(ch.TryPush(2), IntChannel::PushResult::kOk);
  EXPECT_EQ(ch.TryPush(3), IntChannel::PushResult::kFull);
  EXPECT_EQ(ch.TryPush(4), IntChannel::PushResult::kFull);
  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  EXPECT_EQ(ch.TryPush(5), IntChannel::PushResult::kOk);
  ch.Close();
  EXPECT_EQ(ch.TryPush(6), IntChannel::PushResult::kClosed);
  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.pushes, 3u);  // only accepted items count as pushes
  EXPECT_EQ(stats.try_push_full, 2u);
  EXPECT_EQ(stats.try_push_closed, 1u);
  EXPECT_EQ(stats.blocked_pushes, 0u);  // TryPush never parks
}

TEST(ChannelTest, StatsAddSumsTryPushCounters) {
  ChannelStats a;
  a.pushes = 3;
  a.try_push_full = 2;
  a.try_push_closed = 1;
  a.peak_queued = 4;
  ChannelStats b;
  b.pushes = 5;
  b.try_push_full = 7;
  b.try_push_closed = 9;
  b.peak_queued = 2;
  a.Add(b);
  EXPECT_EQ(a.pushes, 8u);
  EXPECT_EQ(a.try_push_full, 9u);
  EXPECT_EQ(a.try_push_closed, 10u);
  EXPECT_EQ(a.peak_queued, 4u);  // max, not sum
}

TEST(ChannelTest, StatsCountTraffic) {
  IntChannel ch(8);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(ch.Push(i));
  int v = 0;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ch.Pop(&v));
  ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.pushes, 6u);
  EXPECT_EQ(stats.pops, 4u);
  EXPECT_EQ(stats.peak_queued, 6u);
  EXPECT_EQ(stats.blocked_pushes, 0u);
  EXPECT_EQ(stats.blocked_pops, 0u);
}

TEST(ChannelTest, ManyProducersOneConsumer) {
  IntChannel ch(3);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.Push(p * kPerProducer + i));
      }
    });
  }
  int64_t sum = 0;
  uint64_t count = 0;
  std::thread consumer([&] {
    int v = 0;
    while (ch.Pop(&v)) {
      sum += v;
      ++count;
    }
  });
  for (std::thread& t : producers) t.join();
  ch.Close();
  consumer.join();
  const int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(count, static_cast<uint64_t>(n));
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_EQ(ch.stats().pushes, static_cast<uint64_t>(n));
  EXPECT_LE(ch.stats().peak_queued, 3u);
}

TEST(ChannelTest, MpmcStressWithMidStreamPoison) {
  // Many producers and consumers hammer a tiny channel while a third
  // party poisons it mid-stream. The test must terminate (no deadlock:
  // every blocked producer and consumer is woken) and the books must
  // balance: every pop observed by a consumer corresponds to a push
  // acknowledged by a producer, and the channel's own counters agree.
  // Run under the tsan preset to verify race-freedom.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  IntChannel ch(2);
  std::atomic<uint64_t> pushed{0};
  std::atomic<uint64_t> popped{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (!ch.Push(i)) return;  // poisoned: stop producing
        pushed.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int v = 0;
      while (ch.Pop(&v)) popped.fetch_add(1);
    });
  }
  // Let traffic flow, then poison while producers and consumers are
  // mid-flight (some of them parked on the full/empty channel).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.Poison();
  for (std::thread& t : producers) t.join();
  for (std::thread& t : consumers) t.join();

  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.pushes, pushed.load());
  EXPECT_EQ(stats.pops, popped.load());
  // Poison discards queued items, so pops never exceed pushes, and the
  // gap is exactly what was queued at poison time (at most capacity).
  EXPECT_LE(popped.load(), pushed.load());
  EXPECT_LE(pushed.load() - popped.load(), ch.capacity());
  EXPECT_TRUE(ch.closed());
}

TEST(ChannelTest, BulkPopKeepsFifoAcrossBulkAndSinglePops) {
  IntChannel ch(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ch.Push(i));
  int v = -1;
  ASSERT_TRUE(ch.TryPop(&v));
  EXPECT_EQ(v, 0);
  std::vector<int> out = {-7};  // bulk pops append, never overwrite
  EXPECT_EQ(ch.TryPopMany(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{-7, 1, 2, 3}));
  ASSERT_TRUE(ch.Pop(&v));
  EXPECT_EQ(v, 4);
  out.clear();
  EXPECT_EQ(ch.TryPopMany(&out, 100), 5u);
  EXPECT_EQ(out, (std::vector<int>{5, 6, 7, 8, 9}));
  EXPECT_EQ(ch.size(), 0u);
}

TEST(ChannelTest, BulkPopHonorsItemAndWeightBudgets) {
  IntChannel ch(16);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(ch.Push(2));
  std::vector<int> out;
  // The default unit cost makes the budget a maximum item count.
  EXPECT_EQ(ch.TryPopMany(&out, 0), 0u);
  EXPECT_EQ(ch.TryPopMany(&out, 2), 2u);
  EXPECT_EQ(ch.size(), 4u);
  // A weight budget is checked before each pop: 2 + 2 < 5 admits a
  // third item, which overshoots to 6, and then the take stops.
  out.clear();
  auto weight = [](const int& item) { return static_cast<size_t>(item); };
  EXPECT_EQ(ch.TryPopMany(&out, 5, weight), 3u);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(ch.size(), 1u);
  EXPECT_EQ(ch.TryPopMany(&out, 0, weight), 0u);
  EXPECT_EQ(ch.size(), 1u);
}

TEST(ChannelTest, BulkPopCountsEveryItemInStats) {
  IntChannel ch(8);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(ch.Push(i));
  std::vector<int> out;
  EXPECT_EQ(ch.TryPopMany(&out, 4), 4u);
  EXPECT_EQ(ch.TryPopMany(&out, 4), 3u);
  EXPECT_EQ(ch.TryPopMany(&out, 4), 0u);
  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.pushes, 7u);
  EXPECT_EQ(stats.pops, 7u);
  EXPECT_EQ(stats.blocked_pops, 0u);  // TryPopMany never parks
}

TEST(ChannelTest, BulkPopWakesBlockedProducer) {
  IntChannel ch(2);
  EXPECT_TRUE(ch.Push(1));
  EXPECT_TRUE(ch.Push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.Push(3));  // blocks: channel full
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  std::vector<int> out;
  EXPECT_EQ(ch.TryPopMany(&out, 2), 2u);
  producer.join();  // would hang if the bulk pop did not notify
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(ch.TryPopMany(&out, 2), 1u);
  EXPECT_EQ(out.back(), 3);
}

TEST(ChannelTest, BulkPopReturnsZeroOnEmptyClosedOrPoisoned) {
  std::vector<int> out;
  IntChannel open(4);
  EXPECT_EQ(open.TryPopMany(&out, 4), 0u);

  IntChannel closed(4);
  EXPECT_TRUE(closed.Push(1));
  closed.Close();
  EXPECT_EQ(closed.TryPopMany(&out, 4), 1u);  // queued items drain first
  EXPECT_EQ(closed.TryPopMany(&out, 4), 0u);

  IntChannel poisoned(4);
  EXPECT_TRUE(poisoned.Push(1));
  poisoned.Poison();
  EXPECT_EQ(poisoned.TryPopMany(&out, 4), 0u);
  EXPECT_EQ(out, (std::vector<int>{1}));
  EXPECT_EQ(poisoned.stats().pops, 0u);
}

TEST(ChannelTest, BatchChannelMovesBatches) {
  BatchChannel ch(2);
  TupleVector batch;
  batch.resize(3);
  EXPECT_TRUE(ch.Push(std::move(batch)));
  TupleVector out;
  ASSERT_TRUE(ch.Pop(&out));
  EXPECT_EQ(out.size(), 3u);
}

}  // namespace
}  // namespace icewafl
