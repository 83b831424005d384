// Wrap-around and occupancy-accounting tests for the SPSC ring's
// free-running sequence indices. The two-argument constructor is a test
// seam that starts both sequences just below an overflow point, so the
// unsigned wrap at 2^64 (and the 32-bit boundary a deployment could reach
// in hours at line rate) is exercised with a handful of pushes instead of
// 2^64 of them.
#include "collector/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace ipd::collector {
namespace {

TEST(SpscRingWrap, SequenceWrapAt2To64) {
  // Start 3 pushes before the 64-bit boundary: indices go
  // ...fffd, ...fffe, ...ffff, 0, 1, 2 while the ring stays FIFO-correct.
  SpscRing<int> ring(4, UINT64_MAX - 3);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full exactly at capacity
  EXPECT_EQ(ring.size(), 4u);

  int out = -1;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  // Head crosses 2^64 here; occupancy must remain exact.
  EXPECT_TRUE(ring.try_push(4));
  EXPECT_TRUE(ring.try_push(5));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size(), 4u);
  for (int i = 2; i < 6; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.pushed(), 6u);
  EXPECT_EQ(ring.popped(), 6u);
}

TEST(SpscRingWrap, SequenceCrosses2To32) {
  // A 32-bit index would alias here; the 64-bit sequences must not.
  SpscRing<std::uint64_t> ring(8, (1ull << 32) - 5);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(ring.pushed(), 100u);
  EXPECT_EQ(ring.popped(), 100u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRingWrap, FifoAcrossManyWraps) {
  SpscRing<int> ring(4, UINT64_MAX - 64);
  int next_push = 0;
  int next_pop = 0;
  int out = -1;
  // Irregular push/pop cadence drags the indices across the boundary
  // several slot-generations apart.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3 && ring.try_push(next_push); ++i) ++next_push;
    for (int i = 0; i < 2 && ring.try_pop(out); ++i) {
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  while (ring.try_pop(out)) {
    EXPECT_EQ(out, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(ring.pushed(), static_cast<std::uint64_t>(next_push));
}

TEST(SpscRingWrap, SizeNeverExceedsCapacityDuringConcurrentTraffic) {
  // size() is documented racy-but-clamped: concurrent push/pop while a
  // third thread polls must always observe a value in [0, capacity],
  // including while the sequences wrap 2^64.
  SpscRing<std::uint64_t> ring(64, UINT64_MAX - 1000);
  constexpr std::uint64_t kN = 100000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> max_seen{0};
  // Plain flags inside the hot loops (a gtest assertion per poll costs
  // more than the ring traffic itself); asserted once after the join.
  std::atomic<bool> size_violation{false};
  std::atomic<bool> order_violation{false};

  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t s = ring.size();
      if (s > ring.capacity()) size_violation.store(true);
      std::uint64_t prev = max_seen.load(std::memory_order_relaxed);
      while (s > prev &&
             !max_seen.compare_exchange_weak(prev, s,
                                             std::memory_order_relaxed)) {
      }
      // Hard-spinning on head/tail would contend with the traffic under
      // test on small machines; a yield keeps the poll honest but cheap.
      std::this_thread::yield();
    }
  });
  std::thread consumer([&] {
    // Pop only once the monitor has seen the ring non-empty. Until then
    // nothing drains it, so the monitor's sighting cannot depend on how
    // the three threads are scheduled.
    while (max_seen.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    std::uint64_t v = 0;
    std::uint64_t expect = 0;
    while (expect < kN) {
      if (ring.try_pop(v)) {
        if (v != expect) order_violation.store(true);
        ++expect;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kN; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_FALSE(size_violation.load()) << "size() exceeded capacity";
  EXPECT_FALSE(order_violation.load()) << "FIFO order broke under races";
  EXPECT_EQ(ring.pushed(), kN);
  EXPECT_EQ(ring.popped(), kN);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_GT(max_seen.load(), 0u);  // the monitor actually saw traffic
}

TEST(SpscRingWrap, PushedPoppedIgnoreStartOffset) {
  SpscRing<int> ring(8, 12345);
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_EQ(ring.popped(), 0u);
  EXPECT_TRUE(ring.try_push(7));
  EXPECT_EQ(ring.pushed(), 1u);
  int out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(ring.popped(), 1u);
}

}  // namespace
}  // namespace ipd::collector
