// Model-based and unit tests for the arena-era storage primitives:
// SmallVec (inline counter storage), IndexArena (node pool), and
// FlatIpTable (open-addressing per-IP detail table), checked against
// simple reference models under deterministic randomized op sequences.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_ip_table.hpp"
#include "net/ip_address.hpp"
#include "topology/ids.hpp"
#include "util/index_arena.hpp"
#include "util/small_vec.hpp"

namespace ipd {
namespace {

using core::FlatIpTable;
using core::IpEntry;
using net::IpAddress;
using topology::LinkId;

// ---------------------------------------------------------------- SmallVec

TEST(SmallVec, StaysInlineUpToN) {
  util::SmallVec<util::PodPair<LinkId, double>, 2> v;
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.heap_bytes(), 0u);
  v.push_back({LinkId{1, 0}, 1.0});
  v.push_back({LinkId{2, 0}, 2.0});
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.heap_bytes(), 0u);
  EXPECT_EQ(v.size(), 2u);
}

TEST(SmallVec, SpillsToHeapBeyondNAndClearsBack) {
  util::SmallVec<util::PodPair<LinkId, double>, 2> v;
  for (std::uint16_t i = 0; i < 8; ++i) v.push_back({LinkId{i, 0}, 1.0 * i});
  EXPECT_FALSE(v.is_inline());
  EXPECT_GT(v.heap_bytes(), 0u);
  EXPECT_EQ(v.size(), 8u);
  for (std::uint16_t i = 0; i < 8; ++i) {
    EXPECT_EQ(v[i].first, (LinkId{i, 0}));
    EXPECT_DOUBLE_EQ(v[i].second, 1.0 * i);
  }
  v.clear();
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.heap_bytes(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(SmallVec, InsertKeepsOrderAcrossSpill) {
  // Mirror of the canonical IngressCounts use: sorted insertion.
  util::SmallVec<util::PodPair<std::uint64_t, double>, 2> v;
  const std::vector<std::uint64_t> keys{5, 1, 9, 3, 7, 2, 8};
  for (const auto k : keys) {
    const auto pos =
        std::lower_bound(v.begin(), v.end(), k,
                         [](const auto& e, std::uint64_t key) {
                           return e.first < key;
                         });
    v.insert(pos, {k, 0.5 * static_cast<double>(k)});
  }
  ASSERT_EQ(v.size(), keys.size());
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_LT(v[i - 1].first, v[i].first);
  }
}

TEST(SmallVec, CopyAndMovePreserveContents) {
  util::SmallVec<util::PodPair<std::uint64_t, double>, 2> v;
  for (std::uint64_t i = 0; i < 5; ++i) v.push_back({i, 2.0 * i});

  auto copy = v;
  ASSERT_EQ(copy.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(copy[i].first, i);

  auto moved = std::move(v);
  ASSERT_EQ(moved.size(), 5u);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(moved[i].second, 2.0 * i);
  }
}

TEST(SmallVec, TruncateDropsTail) {
  util::SmallVec<util::PodPair<std::uint64_t, double>, 2> v;
  for (std::uint64_t i = 0; i < 6; ++i) v.push_back({i, 1.0});
  v.truncate(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1].first, 1u);
}

// -------------------------------------------------------------- IndexArena

TEST(IndexArena, AllocResolveFree) {
  util::IndexArena<std::uint64_t> arena;
  const auto a = arena.alloc(11u);
  const auto b = arena.alloc(22u);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena[a], 11u);
  EXPECT_EQ(arena[b], 22u);
  EXPECT_EQ(arena.live(), 2u);
  arena.free(a);
  arena.free(b);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(IndexArena, FreeListReusesSlotsBeforeGrowing) {
  util::IndexArena<std::uint64_t> arena;
  std::vector<std::uint32_t> indices;
  for (std::uint64_t i = 0; i < 100; ++i) indices.push_back(arena.alloc(i));
  const auto high = arena.high_water();
  const auto bytes = arena.bytes();
  for (const auto i : indices) arena.free(i);
  // Churn: the same number of live objects must never map new slots.
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint32_t> again;
    for (std::uint64_t i = 0; i < 100; ++i) again.push_back(arena.alloc(i));
    for (const auto i : again) arena.free(i);
  }
  EXPECT_EQ(arena.high_water(), high);
  EXPECT_EQ(arena.bytes(), bytes);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(IndexArena, AddressesStableAcrossGrowth) {
  util::IndexArena<std::uint64_t> arena;
  const auto first = arena.alloc(7u);
  const std::uint64_t* p = &arena[first];
  // Force multiple fresh blocks; the first object must not move.
  std::vector<std::uint32_t> more;
  for (std::uint64_t i = 0; i < 20000; ++i) more.push_back(arena.alloc(i));
  EXPECT_EQ(p, &arena[first]);
  EXPECT_EQ(*p, 7u);
  for (const auto i : more) arena.free(i);
  arena.free(first);
}

TEST(IndexArena, BytesGrowsInBlockSteps) {
  util::IndexArena<std::uint64_t> arena;
  const auto empty = arena.bytes();  // block-pointer table only
  const auto first = arena.alloc(1u);
  const auto one_block = arena.bytes();
  EXPECT_GT(one_block, empty);
  // Filling the rest of the block maps no further memory.
  std::vector<std::uint32_t> rest;
  for (std::uint64_t i = 1; i < 4096; ++i) rest.push_back(arena.alloc(i));
  EXPECT_EQ(arena.bytes(), one_block);
  for (const auto i : rest) arena.free(i);
  arena.free(first);
}

// ------------------------------------------------------------- FlatIpTable

IpAddress ip_of(std::uint32_t v) { return IpAddress::v4(v); }

TEST(FlatIpTable, EmptyOwnsNoHeap) {
  FlatIpTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.memory_bytes(), 0u);
  EXPECT_EQ(table.find(ip_of(1)), nullptr);
  EXPECT_TRUE(table.begin() == table.end());
}

TEST(FlatIpTable, InsertFindRoundTrip) {
  FlatIpTable table;
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.add(ip_of(i * 2654435761u), i, LinkId{1, 0}, i + 1);
  }
  EXPECT_EQ(table.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const IpEntry* entry = table.find(ip_of(i * 2654435761u));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->last_seen, static_cast<util::Timestamp>(i));
    EXPECT_EQ(entry->total, i + 1);
  }
  EXPECT_EQ(table.find(ip_of(12345)), nullptr);
}

/// reserve(n) allocates exactly the capacity n sequential inserts grow an
/// empty table to (not capacity_for's doubled headroom), and n inserts
/// into the reserved table then run without growing it.
TEST(FlatIpTable, ReserveMatchesSequentialInsertCapacity) {
  constexpr std::uint32_t kMax = 5000;
  std::vector<std::size_t> grown{0};  // capacity after n inserts
  FlatIpTable sequential;
  for (std::uint32_t i = 0; i < kMax; ++i) {
    sequential.add(ip_of(i * 2654435761u), 1, LinkId{1, 0}, 1);
    grown.push_back(sequential.capacity());
  }
  for (std::uint32_t n = 0; n <= kMax; ++n) {
    FlatIpTable reserved;
    reserved.reserve(n);
    ASSERT_EQ(reserved.capacity(), grown[n]) << "n = " << n;
    ASSERT_EQ(reserved.size(), 0u);
    if (n % 97 != 0 && n != kMax) continue;
    for (std::uint32_t i = 0; i < n; ++i) {
      reserved.add(ip_of(i * 2654435761u), 1, LinkId{1, 0}, 1);
    }
    ASSERT_EQ(reserved.capacity(), grown[n]) << "n = " << n;
    ASSERT_EQ(reserved.memory_bytes(), reserved.recounted_memory_bytes());
  }
}

TEST(FlatIpTable, CompactShrinksAfterMassErase) {
  FlatIpTable table;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    table.add(ip_of(i), i, LinkId{1, 0}, 1);
  }
  const auto grown_capacity = table.capacity();
  const auto grown_bytes = table.memory_bytes();
  // Expire all but 5 entries, as the cycle's expiry pass would.
  table.erase_if([](const IpAddress&, const IpEntry& entry) {
    return entry.last_seen >= 5;
  });
  EXPECT_EQ(table.size(), 5u);
  table.compact();
  EXPECT_LT(table.capacity(), grown_capacity);
  EXPECT_LT(table.memory_bytes(), grown_bytes / 8);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_NE(table.find(ip_of(i)), nullptr);
  }
  // Erasing the rest and compacting releases the whole slot array.
  table.erase_if([](const IpAddress&, const IpEntry&) { return true; });
  table.compact();
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.memory_bytes(), 0u);
}

/// Randomized differential test against std::unordered_map: the same op
/// sequence (insert/accumulate, erase_if, compact, clear) must leave both
/// containers with identical contents at every checkpoint.
TEST(FlatIpTable, ModelFuzzMatchesUnorderedMap) {
  std::mt19937 rng(0xfeedu);
  FlatIpTable table;
  std::unordered_map<std::uint32_t, std::uint64_t> model;  // ip -> total

  const auto check_equal = [&] {
    ASSERT_EQ(table.size(), model.size());
    std::size_t seen = 0;
    for (const auto& [ip, entry] : table) {
      const auto it = model.find(ip.v4_value());
      ASSERT_NE(it, model.end()) << "stray key " << ip.to_string();
      EXPECT_EQ(entry.total, it->second);
      ++seen;
    }
    EXPECT_EQ(seen, model.size());
    // Spot-check lookups for absent keys too.
    for (std::uint32_t probe = 0; probe < 64; ++probe) {
      const std::uint32_t key = rng() % 512;
      const IpEntry* entry = table.find(ip_of(key));
      const bool in_model = model.count(key) != 0;
      EXPECT_EQ(entry != nullptr, in_model) << "key " << key;
    }
  };

  for (int round = 0; round < 200; ++round) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 70) {
      // Insert-or-accumulate a small batch (keys collide often: % 512).
      const int batch = 1 + static_cast<int>(rng() % 32);
      for (int i = 0; i < batch; ++i) {
        const std::uint32_t key = rng() % 512;
        const std::uint64_t n = 1 + rng() % 5;
        table.add(ip_of(key), round,
                  LinkId{static_cast<std::uint16_t>(rng() % 4), 0}, n);
        model[key] += n;
      }
    } else if (op < 90) {
      // Erase a pseudo-random subset by key predicate.
      const std::uint32_t modulus = 2 + rng() % 7;
      const std::uint32_t residue = rng() % modulus;
      table.erase_if([&](const IpAddress& ip, const IpEntry&) {
        return ip.v4_value() % modulus == residue;
      });
      for (auto it = model.begin(); it != model.end();) {
        it = it->first % modulus == residue ? model.erase(it) : ++it;
      }
      table.compact();
    } else if (op < 97) {
      table.compact();
    } else {
      table.clear();
      model.clear();
    }
    if (round % 10 == 0) check_equal();
  }
  check_equal();
}

/// Backward-shift deletion must keep every surviving key reachable even
/// under adversarial clustering (many keys hashing near one another).
TEST(FlatIpTable, EraseKeepsProbeChainsIntact) {
  std::mt19937 rng(0x5eedu);
  for (int trial = 0; trial < 20; ++trial) {
    FlatIpTable table;
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 200; ++i) {
      const std::uint32_t key = rng() % 4096;
      if (table.find(ip_of(key)) == nullptr) keys.push_back(key);
      table.add(ip_of(key), 0, LinkId{1, 0}, 1);
    }
    // Erase every other key, then verify the rest are all still findable.
    std::vector<std::uint32_t> survivors;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i % 2 == 0) {
        survivors.push_back(keys[i]);
        continue;
      }
      const std::uint32_t doomed = keys[i];
      table.erase_if([doomed](const IpAddress& ip, const IpEntry&) {
        return ip.v4_value() == doomed;
      });
    }
    ASSERT_EQ(table.size(), survivors.size());
    for (const auto key : survivors) {
      EXPECT_NE(table.find(ip_of(key)), nullptr) << "lost key " << key;
    }
  }
}

/// apply_many is specified as byte-identical to the sequential
/// FlatIpTable::add loop — not just same entry values but same slot
/// placement and same growth points, both observable through capacity and
/// slot-order iteration. Fuzz it across hits, misses, in-batch duplicate
/// keys, growth triggers, initially-empty tables, and span sizes on both
/// sides of the interleave threshold.
TEST(FlatIpTable, ApplyManyMatchesSequentialLoop) {
  std::mt19937 rng(0xbadc0deu);
  for (int trial = 0; trial < 12; ++trial) {
    constexpr int kTables = 3;
    FlatIpTable batched[kTables];
    FlatIpTable reference[kTables];
    // Tables 0/1 pre-seeded (table 1 close to its growth trigger so the
    // batch pushes it over); table 2 starts at capacity 0.
    for (int t = 0; t < 2; ++t) {
      const int seeds = t == 0 ? 100 : 190;  // 190/256 is just under 75%
      for (int s = 0; s < seeds; ++s) {
        const std::uint32_t key = rng() % 2048;
        batched[t].add(ip_of(key), 0, LinkId{1, 0}, 1);
        reference[t].add(ip_of(key), 0, LinkId{1, 0}, 1);
      }
    }
    // Small trials exercise the sequential fallback, large ones the
    // interleaved walks (threshold is twice the walk count).
    const std::size_t n_ops = trial < 4 ? 1 + trial * 9 : 500;
    std::vector<std::uint32_t> table_of(n_ops);
    std::vector<IpAddress> keys(n_ops);
    std::vector<FlatIpTable::ApplyOp> ops(n_ops);
    for (std::size_t i = 0; i < n_ops; ++i) {
      table_of[i] = rng() % kTables;
      keys[i] = ip_of(rng() % 2048);  // small domain: in-batch duplicates
      ops[i] = {&batched[table_of[i]], &keys[i],
                static_cast<util::Timestamp>(rng() % 1000),
                LinkId{static_cast<std::uint16_t>(rng() % 4), 0},
                1 + rng() % 3};
    }
    FlatIpTable::apply_many(ops);
    for (std::size_t i = 0; i < n_ops; ++i) {
      reference[table_of[i]].add(keys[i], ops[i].ts, ops[i].link, ops[i].n);
    }
    for (int t = 0; t < kTables; ++t) {
      ASSERT_EQ(batched[t].capacity(), reference[t].capacity());
      ASSERT_EQ(batched[t].size(), reference[t].size());
      EXPECT_EQ(batched[t].memory_bytes(), reference[t].memory_bytes());
      auto it = reference[t].begin();
      for (const auto& [ip, entry] : batched[t]) {
        ASSERT_EQ(ip, it->first);  // identical slot order == placement
        EXPECT_EQ(entry.last_seen, it->second.last_seen);
        EXPECT_EQ(entry.total, it->second.total);
        ASSERT_EQ(entry.counts.size(), it->second.counts.size());
        for (std::size_t c = 0; c < entry.counts.size(); ++c) {
          EXPECT_EQ(entry.counts[c].first, it->second.counts[c].first);
          EXPECT_EQ(entry.counts[c].second, it->second.counts[c].second);
        }
        ++it;
      }
    }
  }
}

// add checks for growth before the lookup, so a hit on a table
// sitting at its 75% trigger grows it. A batch of pure hits must do the
// same through apply_many's interleaved walks.
TEST(FlatIpTable, ApplyManyHitAtGrowthTriggerGrows) {
  FlatIpTable batched;
  FlatIpTable reference;
  for (std::uint32_t key = 0; key < 6; ++key) {  // 6 of 8 slots: at trigger
    batched.add(ip_of(key), 0, LinkId{1, 0}, 1);
    reference.add(ip_of(key), 0, LinkId{1, 0}, 1);
  }
  ASSERT_EQ(batched.capacity(), 8u);
  std::vector<IpAddress> keys;
  for (std::uint32_t i = 0; i < 40; ++i) keys.push_back(ip_of(i % 6));
  std::vector<FlatIpTable::ApplyOp> ops;
  for (const IpAddress& key : keys) {
    ops.push_back({&batched, &key, 5, LinkId{1, 0}, 1});
    reference.add(key, 5, LinkId{1, 0}, 1);
  }
  FlatIpTable::apply_many(ops);
  EXPECT_EQ(reference.capacity(), 16u);
  EXPECT_EQ(batched.capacity(), reference.capacity());
  EXPECT_EQ(batched.memory_bytes(), reference.memory_bytes());
  auto it = reference.begin();
  for (const auto& [ip, entry] : batched) {
    ASSERT_EQ(ip, it->first);
    EXPECT_EQ(entry.total, it->second.total);
    ++it;
  }
}

TEST(FlatIpTable, InsertMovedCarriesSpilledCounters) {
  FlatIpTable src;
  for (std::uint16_t i = 0; i < 6; ++i) src.add(ip_of(42), 0, LinkId{i, 0}, 1);
  ASSERT_FALSE(src.find(ip_of(42))->counts.is_inline());

  FlatIpTable dst;
  // Split-style redistribution: move the entry wholesale.
  src.drain([&dst](const IpAddress& ip, IpEntry&& entry) {
    dst.insert_moved(ip, std::move(entry));
  });
  const IpEntry* moved = dst.find(ip_of(42));
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->total, 6u);
  EXPECT_EQ(moved->counts.size(), 6u);
  EXPECT_GT(dst.memory_bytes(), dst.capacity() * sizeof(void*));
}

/// memory_bytes() is a running sum; recounted_memory_bytes() walks every
/// slot. They must agree after every kind of table operation, with
/// per-IP counters spilling to the heap and being released again.
TEST(FlatIpTable, RunningMemoryMatchesRecountUnderChurn) {
  std::mt19937 rng(0x5111u);
  constexpr int kTables = 3;
  FlatIpTable tables[kTables];
  const auto check_all = [&](const char* op, int round) {
    for (int t = 0; t < kTables; ++t) {
      ASSERT_EQ(tables[t].memory_bytes(), tables[t].recounted_memory_bytes())
          << op << " round " << round << " table " << t;
    }
  };
  // Up to 6 links per key: entries spill past their two inline counters.
  const auto random_link = [&rng] {
    return LinkId{static_cast<std::uint16_t>(rng() % 6), 0};
  };
  bool spilled = false;
  for (int round = 0; round < 400; ++round) {
    FlatIpTable& table = tables[rng() % kTables];
    const int op = static_cast<int>(rng() % 100);
    if (op < 35) {
      for (int i = 0, n = 1 + static_cast<int>(rng() % 24); i < n; ++i) {
        table.add(ip_of(rng() % 256), round, random_link(), 1 + rng() % 3);
      }
      check_all("add", round);
    } else if (op < 55) {
      std::vector<IpAddress> keys(1 + rng() % 80);
      std::vector<FlatIpTable::ApplyOp> ops;
      for (IpAddress& key : keys) {
        key = ip_of(rng() % 256);
        ops.push_back({&tables[rng() % kTables], &key, round, random_link(),
                       1 + rng() % 3});
      }
      FlatIpTable::apply_many(ops);
      check_all("apply_many", round);
    } else if (op < 70) {
      const std::uint32_t modulus = 2 + rng() % 5;
      const std::uint32_t residue = rng() % modulus;
      table.erase_if([&](const IpAddress& ip, const IpEntry&) {
        return ip.v4_value() % modulus == residue;
      });
      check_all("erase_if", round);
      table.compact();
      check_all("compact", round);
    } else if (op < 80) {
      // Split-style redistribution into two fresh tables by one key bit.
      FlatIpTable low;
      FlatIpTable high;
      table.drain([&](const IpAddress& ip, IpEntry&& entry) {
        (ip.v4_value() & 1 ? high : low).insert_moved(ip, std::move(entry));
      });
      ASSERT_EQ(low.memory_bytes(), low.recounted_memory_bytes());
      ASSERT_EQ(high.memory_bytes(), high.recounted_memory_bytes());
      check_all("drain", round);
      table = std::move(rng() % 2 ? high : low);  // move assignment
      check_all("insert_moved + move", round);
    } else if (op < 90) {
      FlatIpTable moved(std::move(table));  // move construction
      ASSERT_EQ(moved.memory_bytes(), moved.recounted_memory_bytes());
      check_all("move-from", round);
      table = std::move(moved);
      check_all("move back", round);
    } else {
      table.clear();
      check_all("clear", round);
    }
    for (const FlatIpTable& t : tables) {
      for (const auto& [ip, entry] : t) {
        (void)ip;
        spilled = spilled || !entry.counts.is_inline();
      }
    }
  }
  EXPECT_TRUE(spilled) << "no entry ever spilled: the sum was never tested";
}

}  // namespace
}  // namespace ipd
