// Cross-shard restore property test + arena layout restoration.
//
// The snapshot format stores one physical trie per family with its exact
// arena layout, so a snapshot taken at K shards must restore into an
// engine of any L shards and continue byte-identically — the cut is
// derived state, rebuilt over the restored tries. This suite proves the
// full K -> L matrix over {1, 4, 16} shards against the sequential
// reference, checks the sharded engine's routing invariants on the
// restored partition, and covers the low-level layout machinery the
// byte-identity rests on: IndexArena::restore_layout/construct_at
// reproducing occupancy, the free-chain pop order, the future allocation
// index sequence, and exact bytes(); and post-restore FlatIpTable
// compaction behaving identically to the donor's.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "trie_probes.hpp"

#include "analysis/runner.hpp"
#include "core/engine.hpp"
#include "core/output.hpp"
#include "core/snapshot.hpp"
#include "util/index_arena.hpp"
#include "workload/generator.hpp"

namespace ipd {
namespace {

// ---------------------------------------------------------------------------
// IndexArena layout restoration (the foundation of trie restore).

TEST(ArenaRestore, ReproducesLayoutAndAllocationSequence) {
  using Arena = util::IndexArena<std::uint64_t>;
  Arena donor;
  std::vector<Arena::Index> live;
  // Span two blocks so the mapped-block math is exercised.
  for (std::uint64_t i = 0; i < Arena::kBlockSize + 700; ++i) {
    live.push_back(donor.alloc(i * 3 + 1));
  }
  // Free a scattered subset (every 7th) — builds a long free chain whose
  // *order* dictates every future allocation index.
  std::vector<Arena::Index> freed;
  std::vector<Arena::Index> survivors;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i % 7 == 3) {
      donor.free(live[i]);
      freed.push_back(live[i]);
    } else {
      survivors.push_back(live[i]);
    }
  }
  const std::vector<Arena::Index> chain = donor.free_chain();
  ASSERT_EQ(chain.size(), freed.size());

  Arena restored;
  restored.restore_layout(donor.high_water(), chain);
  EXPECT_EQ(restored.high_water(), donor.high_water());
  EXPECT_EQ(restored.live(), 0u);
  EXPECT_EQ(restored.bytes(), donor.bytes());  // same mapped blocks
  for (const Arena::Index index : survivors) {
    restored.construct_at(index, std::uint64_t{0});
  }
  EXPECT_EQ(restored.live(), donor.live());
  EXPECT_EQ(restored.free_chain(), donor.free_chain());

  // The decisive property: both arenas now hand out identical index
  // sequences forever (free-chain pops, then fresh slots).
  std::vector<Arena::Index> restored_new;
  std::vector<Arena::Index> donor_new;
  for (int i = 0; i < 1200; ++i) {
    restored_new.push_back(restored.alloc(std::uint64_t{1}));
    donor_new.push_back(donor.alloc(std::uint64_t{1}));
    EXPECT_EQ(restored_new.back(), donor_new.back())
        << "allocation " << i << " diverged";
  }
  EXPECT_EQ(restored.bytes(), donor.bytes());

  // An arena must be empty when it dies.
  for (const Arena::Index index : survivors) {
    donor.free(index);
    restored.free(index);
  }
  for (const Arena::Index index : donor_new) donor.free(index);
  for (const Arena::Index index : restored_new) restored.free(index);
}

TEST(ArenaRestore, RejectsBadLayouts) {
  using Arena = util::IndexArena<std::uint64_t>;
  {
    Arena arena;
    const Arena::Index live = arena.alloc(std::uint64_t{1});
    EXPECT_THROW(arena.restore_layout(4, {}), std::logic_error);
    arena.free(live);
  }
  {
    Arena arena;
    EXPECT_THROW(arena.restore_layout(4, {7}), std::out_of_range);
  }
  {
    Arena arena;
    EXPECT_THROW(arena.restore_layout(Arena::kMaxObjects + 1, {}),
                 std::length_error);
  }
  {
    Arena arena;
    arena.restore_layout(4, {1, 3});
    EXPECT_THROW(arena.construct_at(9, std::uint64_t{0}), std::out_of_range);
    arena.construct_at(0, std::uint64_t{5});
    arena.construct_at(2, std::uint64_t{6});
    EXPECT_EQ(arena.live(), 2u);
    EXPECT_EQ(arena.alloc(std::uint64_t{7}), 1u);  // free chain pop order
    EXPECT_EQ(arena.alloc(std::uint64_t{8}), 3u);
    EXPECT_EQ(arena.alloc(std::uint64_t{9}), 4u);  // then fresh
    for (const Arena::Index index : {0u, 1u, 2u, 3u, 4u}) arena.free(index);
  }
}

// ---------------------------------------------------------------------------
// K -> L restore matrix.

struct RunResult {
  std::vector<std::string> dumps;
  std::vector<core::CycleStats> cycles;
  std::vector<core::RangeTransition> transitions;
  core::EngineStats stats;
};

struct Capture {
  std::string bytes;
  core::SnapshotClock clock;
  std::size_t split = 0;
  std::size_t snapshot_index = 0;
};

std::string format_dump(const core::Snapshot& snap) {
  std::string dump;
  for (const auto& row : snap) {
    dump += core::format_row(row);
    dump += '\n';
  }
  return dump;
}

constexpr std::size_t kCaptureBin = 4;

RunResult run_workload(core::IpdEngine& engine,
                       const std::vector<netflow::FlowRecord>& records,
                       Capture* capture) {
  core::CycleDeltaLog deltas(std::size_t{1} << 20);
  engine.observe({.cycle_deltas = &deltas});
  analysis::BinnedRunner runner(engine, nullptr);
  RunResult result;
  std::size_t cursor = 0;
  runner.on_snapshot = [&](util::Timestamp ts, const core::Snapshot& snap,
                           const core::LpmTable&) {
    result.dumps.push_back(format_dump(snap));
    if (capture != nullptr && result.dumps.size() == kCaptureBin + 1) {
      capture->bytes = core::save_snapshot(engine, runner.snapshot_clock(ts));
      capture->clock = runner.snapshot_clock(ts);
      capture->split = cursor;
      capture->snapshot_index = kCaptureBin;
    }
  };
  for (; cursor < records.size(); ++cursor) runner.offer(records[cursor]);
  runner.finish();
  result.cycles = runner.cycles();
  result.transitions = deltas.drain();
  result.stats = engine.stats();
  return result;
}

RunResult run_restored(core::IpdEngine& engine, const Capture& capture,
                       const std::vector<netflow::FlowRecord>& records) {
  const core::SnapshotClock clock =
      core::restore_snapshot(engine, capture.bytes);
  EXPECT_EQ(clock, capture.clock);
  core::CycleDeltaLog deltas(std::size_t{1} << 20);
  engine.observe({.cycle_deltas = &deltas});
  analysis::BinnedRunner runner(engine, nullptr);
  runner.resume(clock);
  RunResult result;
  runner.on_snapshot = [&result](util::Timestamp, const core::Snapshot& snap,
                                 const core::LpmTable&) {
    result.dumps.push_back(format_dump(snap));
  };
  for (std::size_t i = capture.split; i < records.size(); ++i) {
    runner.offer(records[i]);
  }
  runner.finish();
  result.cycles = runner.cycles();
  result.transitions = deltas.drain();
  result.stats = engine.stats();
  return result;
}

void expect_equal_tail(const RunResult& reference, const Capture& capture,
                       const RunResult& restored, const std::string& label) {
  SCOPED_TRACE(label);
  const util::Timestamp cut = capture.clock.saved_at;
  ASSERT_GT(reference.dumps.size(), capture.snapshot_index + 1);
  ASSERT_EQ(restored.dumps.size(),
            reference.dumps.size() - capture.snapshot_index - 1);
  for (std::size_t i = 0; i < restored.dumps.size(); ++i) {
    EXPECT_EQ(reference.dumps[capture.snapshot_index + 1 + i],
              restored.dumps[i])
        << "post-restore snapshot " << i << " differs";
  }
  std::vector<core::RangeTransition> tail;
  for (const auto& t : reference.transitions) {
    if (t.ts > cut) tail.push_back(t);
  }
  ASSERT_EQ(tail.size(), restored.transitions.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].ts, restored.transitions[i].ts) << i;
    EXPECT_EQ(tail[i].kind, restored.transitions[i].kind) << i;
    EXPECT_TRUE(tail[i].prefix == restored.transitions[i].prefix) << i;
    EXPECT_EQ(tail[i].share, restored.transitions[i].share) << i;
  }
  EXPECT_EQ(reference.stats.flows_ingested, restored.stats.flows_ingested);
  EXPECT_EQ(reference.stats.cycles_run, restored.stats.cycles_run);
  EXPECT_EQ(reference.stats.total_classifications,
            restored.stats.total_classifications);
  EXPECT_EQ(reference.stats.total_splits, restored.stats.total_splits);
  EXPECT_EQ(reference.stats.total_joins, restored.stats.total_joins);
  EXPECT_EQ(reference.stats.total_drops, restored.stats.total_drops);
}

class CrossShardRestore : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::ScenarioConfig scenario = workload::small_test();
    scenario.flows_per_minute = 5000;
    scenario.bundle_as_rank = 0;
    workload::FlowGenerator gen(scenario);
    constexpr util::Timestamp kStart = 18 * util::kSecondsPerHour;
    records_ = new std::vector<netflow::FlowRecord>;
    gen.run(kStart, kStart + 50 * 60, [](const netflow::FlowRecord& r) {
      records_->push_back(r);
    });
    params_ = new core::IpdParams(workload::scaled_params(scenario));
    core::IpdEngine engine(*params_);
    reference_ = new RunResult(run_workload(engine, *records_, nullptr));
    ASSERT_GT(reference_->stats.total_splits, 0u);
  }

  static void TearDownTestSuite() {
    delete records_;
    delete params_;
    delete reference_;
    records_ = nullptr;
    params_ = nullptr;
    reference_ = nullptr;
  }

  static std::vector<netflow::FlowRecord>* records_;
  static core::IpdParams* params_;
  static RunResult* reference_;
};

std::vector<netflow::FlowRecord>* CrossShardRestore::records_ = nullptr;
core::IpdParams* CrossShardRestore::params_ = nullptr;
RunResult* CrossShardRestore::reference_ = nullptr;

/// Every donor shard count K restores into every target shard count L and
/// continues identically to the uninterrupted sequential reference.
TEST_F(CrossShardRestore, AllPairsContinueByteIdentically) {
  for (const int donor_bits : {0, 2, 4}) {
    core::EngineConfig donor_config;
    donor_config.shard_bits = donor_bits;
    donor_config.ingest_threads = donor_bits == 0 ? 1 : 4;
    core::IpdEngine donor(*params_, donor_config);
    Capture capture;
    run_workload(donor, *records_, &capture);
    ASSERT_FALSE(capture.bytes.empty())
        << "donor shards=" << (1 << donor_bits);
    const auto info = core::read_snapshot_info(capture.bytes);
    EXPECT_EQ(info.sharded, donor_bits > 0);
    EXPECT_EQ(info.shard_bits, donor_bits);

    for (const int target_bits : {0, 2, 4}) {
      core::EngineConfig config;
      config.shard_bits = target_bits;
      config.ingest_threads = target_bits == 0 ? 1 : 4;
      core::IpdEngine engine(*params_, config);
      const RunResult result = run_restored(engine, capture, *records_);
      expect_equal_tail(*reference_, capture, result,
                        "K=" + std::to_string(1 << donor_bits) +
                            " -> L=" + std::to_string(1 << target_bits));
    }
  }
}

/// Restoring a snapshot and finishing without replaying anything must
/// leave the engine exactly as the snapshot left it. The donor ran its
/// trailing cycle before the final snapshot was cut, so an idle resumed
/// runner's finish() must not synthesize another one (restore at
/// end-of-trace replays zero records — this regressed once).
TEST_F(CrossShardRestore, IdleResumeFinishIsANoOp) {
  core::IpdEngine donor(*params_);
  Capture capture;
  run_workload(donor, *records_, &capture);
  ASSERT_FALSE(capture.bytes.empty());

  core::IpdEngine engine(*params_);
  const core::SnapshotClock clock =
      core::restore_snapshot(engine, capture.bytes);
  const std::string before =
      format_dump(core::take_snapshot(engine, clock.saved_at));
  const auto stats_before = engine.stats();

  analysis::BinnedRunner runner(engine, nullptr);
  runner.resume(clock);
  std::size_t dumps = 0;
  runner.on_snapshot = [&dumps](util::Timestamp, const core::Snapshot&,
                                const core::LpmTable&) { ++dumps; };
  runner.finish();

  EXPECT_EQ(dumps, 0u);
  EXPECT_EQ(engine.stats().cycles_run, stats_before.cycles_run);
  EXPECT_EQ(format_dump(core::take_snapshot(engine, clock.saved_at)), before);

  // One offered record re-arms the trailing cycle: finish() then runs it.
  analysis::BinnedRunner armed(engine, nullptr);
  armed.resume(clock);
  std::size_t armed_dumps = 0;
  armed.on_snapshot = [&armed_dumps](util::Timestamp, const core::Snapshot&,
                                     const core::LpmTable&) { ++armed_dumps; };
  armed.offer((*records_)[capture.split]);
  armed.finish();
  EXPECT_GT(armed_dumps, 0u);
  EXPECT_GT(engine.stats().cycles_run, stats_before.cycles_run);
}

/// Routing invariants on a freshly restored sharded engine: the shard map
/// is total and stable, the locate() path resolves every ingested source
/// to a covering leaf, and the rebuilt cut admits parallel work.
TEST_F(CrossShardRestore, RoutingInvariantsAfterRestore) {
  core::EngineConfig donor_config;
  donor_config.shard_bits = 2;
  core::IpdEngine donor(*params_, donor_config);
  Capture capture;
  run_workload(donor, *records_, &capture);
  ASSERT_FALSE(capture.bytes.empty());

  core::EngineConfig config;
  config.shard_bits = 4;
  config.ingest_threads = 4;
  core::IpdEngine engine(*params_, config);
  core::restore_snapshot(engine, capture.bytes);

  EXPECT_EQ(engine.shard_count(), 16u);
  EXPECT_GE(engine.parallel_units(net::Family::V4), 1u);
  EXPECT_GE(engine.parallel_units(net::Family::V6), 1u);
  // Restored stats carry the donor's lifetime counters.
  const auto donor_info = core::read_snapshot_info(capture.bytes);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.flows_ingested, donor_info.stats.flows_ingested);
  EXPECT_EQ(stats.cycles_run, donor_info.stats.cycles_run);

  // Every observed source address routes to a shard in range and locates
  // a leaf whose prefix covers it.
  std::size_t checked = 0;
  for (std::size_t i = 0; i < records_->size() && checked < 2000; i += 97) {
    const net::IpAddress& ip = (*records_)[i].src_ip;
    EXPECT_LT(engine.shard_of(ip), engine.shard_count());
    const core::RangeNode& node = engine.locate(ip);
    EXPECT_TRUE(node.prefix().contains(ip))
        << node.prefix().to_string() << " !contains " << ip.to_string();
    ++checked;
  }
  ASSERT_GT(checked, 0u);

  // The LPM section agrees with the restored engine's classified leaves.
  const auto lpm = core::read_snapshot_lpm(capture.bytes);
  std::size_t classified = 0;
  for (const net::Family family : {net::Family::V4, net::Family::V6}) {
    engine.for_each_leaf(family, [&classified](const core::RangeNode& node) {
      if (node.state() == core::RangeNode::State::Classified) ++classified;
    });
  }
  EXPECT_EQ(lpm.size(), classified);
}

/// The restored trie's locate directory is filled from the decoded
/// structure: every probe (each donor leaf's edges and its directory
/// blocks' edges, both ends of the space, every source) locates to the
/// donor's prefix, and the directory's bytes match.
TEST_F(CrossShardRestore, RestoredTrieLocatesLikeItsDonor) {
  core::IpdEngine donor(*params_);
  run_workload(donor, *records_, nullptr);
  const std::string bytes =
      core::save_snapshot(donor, core::SnapshotClock{});
  core::EngineConfig config;
  config.shard_bits = 2;
  core::IpdEngine restored(*params_, config);
  core::restore_snapshot(restored, bytes);

  std::vector<net::IpAddress> probes{
      net::IpAddress::v4(0), net::IpAddress::v4(~0u),
      net::IpAddress::v6(0, 0), net::IpAddress::v6(~0ull, ~0ull)};
  std::size_t deep = 0;
  for (const net::Family family : {net::Family::V4, net::Family::V6}) {
    EXPECT_EQ(restored.trie(family).directory_bytes(),
              donor.trie(family).directory_bytes());
    EXPECT_EQ(restored.trie(family).memory_bytes(),
              donor.trie(family).memory_bytes());
    donor.for_each_leaf(family, [&](const core::RangeNode& leaf) {
      test::append_edge_probes(leaf.prefix(), probes);
      deep += leaf.prefix().length() > core::IpdTrie::kDirectoryBits;
    });
  }
  for (const auto& r : *records_) probes.push_back(r.src_ip);
  ASSERT_GT(deep, 0u);  // some descents continue past the directory
  for (const net::IpAddress& ip : probes) {
    ASSERT_EQ(restored.locate(ip).prefix(), donor.locate(ip).prefix())
        << ip.to_string();
  }
}

/// Post-restore stage-2 surgery (splits, joins, drops, FlatIpTable
/// compaction) must behave exactly as the donor's: the tail comparison in
/// the matrix test covers outputs; this asserts the tail actually
/// exercised the machinery, so the equality is not vacuous.
TEST_F(CrossShardRestore, TailExercisesCompactionAndFrees) {
  // Reference tail activity after the capture bin: recompute the donor's
  // post-cut cycle totals from the reference run.
  core::IpdEngine donor(*params_);
  Capture capture;
  run_workload(donor, *records_, &capture);
  std::uint64_t tail_joins = 0;
  std::uint64_t tail_drops = 0;
  std::uint64_t tail_splits = 0;
  std::uint64_t tail_compactions = 0;
  for (const auto& c : reference_->cycles) {
    if (c.now <= capture.clock.saved_at) continue;
    tail_joins += c.joins;
    tail_drops += c.drops;
    tail_splits += c.splits;
    tail_compactions += c.compactions;
  }
  // The workload is sized so the post-restore continuation performs real
  // trie surgery: allocations (splits) and frees (joins/drops) against
  // the restored arena and compactions against restored FlatIpTables.
  EXPECT_GT(tail_splits, 0u);
  EXPECT_GT(tail_joins + tail_drops, 0u);
  EXPECT_GT(tail_compactions, 0u);
}

/// A restored FlatIpTable rebuilds its running spill sum from the decoded
/// entries: memory_bytes() equals the slot-walk recount and the donor's.
TEST(SnapshotRestore, RestoredTablesKeepExactRunningMemory) {
  core::IpdParams params;
  core::IpdEngine donor(params);
  // One Monitoring leaf (nothing reaches n_cidr) whose sources each
  // arrive over up to five links, so many entries spill their counters.
  for (std::uint32_t i = 0; i < 400; ++i) {
    for (std::uint16_t link = 0; link <= i % 5; ++link) {
      donor.ingest(30, net::IpAddress::v4(0x0A000000u + (i << 8)),
                   topology::LinkId{1, link}, 1);
      donor.ingest(30, net::IpAddress::v6(0x2a00000000000000ull + (i << 16), 0),
                   topology::LinkId{2, link}, 1);
    }
  }
  const std::string bytes = core::save_snapshot(donor, core::SnapshotClock{});
  core::EngineConfig config;
  config.shard_bits = 2;
  config.ingest_threads = 2;
  core::IpdEngine restored(params, config);
  core::restore_snapshot(restored, bytes);
  std::size_t spilled = 0;
  for (const net::Family family : {net::Family::V4, net::Family::V6}) {
    std::vector<std::size_t> donor_bytes;
    donor.for_each_leaf(family, [&](const core::RangeNode& node) {
      donor_bytes.push_back(node.ips().memory_bytes());
    });
    std::size_t leaf = 0;
    restored.for_each_leaf(family, [&](const core::RangeNode& node) {
      const core::FlatIpTable& ips = node.ips();
      EXPECT_EQ(ips.memory_bytes(), ips.recounted_memory_bytes());
      ASSERT_LT(leaf, donor_bytes.size());
      EXPECT_EQ(ips.memory_bytes(), donor_bytes[leaf++]);
      for (const auto& [ip, entry] : ips) {
        (void)ip;
        if (!entry.counts.is_inline()) ++spilled;
      }
    });
    EXPECT_EQ(leaf, donor_bytes.size());
  }
  EXPECT_GT(spilled, 100u);
  EXPECT_EQ(restored.trie(net::Family::V4).memory_bytes(),
            donor.trie(net::Family::V4).memory_bytes());
}

}  // namespace
}  // namespace ipd
