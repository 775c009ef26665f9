#include <gtest/gtest.h>
#include <poll.h>
#include <sys/ioctl.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "stream/channel.h"

namespace icewafl {
namespace net {
namespace {

/// Wake bytes currently sitting in the pipe.
int PendingBytes(const WakePipe& pipe) {
  int n = -1;
  EXPECT_EQ(::ioctl(pipe.read_end.get(), FIONREAD, &n), 0);
  return n;
}

// The reactor's wake protocol under contention: producers push then
// poke, the consumer polls the read end, drains, then scans the queue.
// Every item must be seen before the deadline without ever scanning on
// a poll timeout — a lost wake-up (e.g. a Drain that re-arms the flag
// before reading the pipe, leaving the flag set with no byte behind it)
// shows up as a poll that times out with items still queued.
TEST(WakePipeTest, ConcurrentPokesNeverLoseAWakeUp) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  constexpr uint64_t kTotal = uint64_t{kProducers} * kPerProducer;
  Result<WakePipe> made = WakePipe::Make();
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const WakePipe wake = std::move(made.ValueOrDie());
  BoundedChannel<int> queue(256);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (!queue.Push(i)) return;  // poisoned: the consumer gave up
        wake.Poke();
      }
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  uint64_t seen = 0;
  bool timed_out = false;
  std::vector<int> items;
  while (seen < kTotal) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{wake.read_end.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(
                                          left.count(), 0)));
    if (ready == 0) {
      timed_out = true;
      break;
    }
    ASSERT_GT(ready, 0);
    wake.Drain();
    items.clear();
    seen += queue.TryPopMany(&items, SIZE_MAX);
  }
  queue.Poison();  // unblock producers parked on a full queue
  for (std::thread& t : producers) t.join();
  EXPECT_FALSE(timed_out) << "lost wake-up: " << seen << " of " << kTotal
                          << " items seen before the deadline";
  EXPECT_EQ(seen, kTotal);
}

TEST(WakePipeTest, PokesCoalesceUntilDrained) {
  Result<WakePipe> made = WakePipe::Make();
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const WakePipe wake = std::move(made.ValueOrDie());
  EXPECT_EQ(PendingBytes(wake), 0);
  for (int i = 0; i < 100; ++i) wake.Poke();
  EXPECT_EQ(PendingBytes(wake), 1);
  wake.Drain();
  EXPECT_EQ(PendingBytes(wake), 0);
  // Drain re-armed the flag: the next poke writes again.
  wake.Poke();
  wake.Poke();
  EXPECT_EQ(PendingBytes(wake), 1);
  wake.Drain();
  EXPECT_EQ(PendingBytes(wake), 0);
}

TEST(WakePipeTest, DefaultConstructedPipeIsHarmless) {
  // A server destroyed before Start() still pokes its (fd-less) pipe.
  WakePipe wake;
  wake.Poke();
  wake.Poke();
  wake.Drain();
  wake.Poke();
  // Replacing it with a real pipe starts from a clean flag, so the
  // first poke on the new pipe is not swallowed by the earlier ones.
  Result<WakePipe> made = WakePipe::Make();
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  wake = std::move(made.ValueOrDie());
  wake.Poke();
  EXPECT_EQ(PendingBytes(wake), 1);
}

}  // namespace
}  // namespace net
}  // namespace icewafl
