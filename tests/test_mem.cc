// Unit tests for src/mem: storage levels, the core store, backing stores,
// channels, and the hierarchy.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/snapshot.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/mem/core_store.h"
#include "src/mem/hierarchy.h"
#include "src/mem/storage_level.h"

namespace dsa {
namespace {

// --- StorageLevel ---------------------------------------------------------------

TEST(StorageLevelTest, TransferTimeIsLatencyPlusWords) {
  const StorageLevel drum = MakeDrumLevel("drum", 1000, /*word_time=*/4,
                                          /*rotational_delay=*/6000);
  EXPECT_EQ(drum.TransferTime(0), 6000u);
  EXPECT_EQ(drum.TransferTime(512), 6000u + 4 * 512);
}

TEST(StorageLevelTest, CoreHasNoStartupLatency) {
  const StorageLevel core = MakeCoreLevel("core", 1000, 1);
  EXPECT_EQ(core.TransferTime(100), 100u);
  EXPECT_EQ(core.kind, StorageLevelKind::kCore);
}

TEST(StorageLevelTest, FactoriesSetKinds) {
  EXPECT_EQ(MakeDiskLevel("d", 1, 1, 1).kind, StorageLevelKind::kDisk);
  EXPECT_EQ(MakeTapeLevel("t", 1, 1, 1).kind, StorageLevelKind::kTape);
  EXPECT_STREQ(ToString(StorageLevelKind::kDrum), "drum");
}

// --- CoreStore ------------------------------------------------------------------

TEST(CoreStoreTest, ReadsBackWrites) {
  CoreStore store(64);
  store.Write(PhysicalAddress{10}, 0xdeadbeef);
  EXPECT_EQ(store.Read(PhysicalAddress{10}), 0xdeadbeefu);
  EXPECT_EQ(store.Read(PhysicalAddress{11}), 0u);  // zero-initialised
}

TEST(CoreStoreTest, MoveCopiesAndCharges) {
  CoreStore store(64);
  for (std::uint64_t i = 0; i < 8; ++i) {
    store.Write(PhysicalAddress{i}, i + 100);
  }
  const Cycles cost = store.Move(PhysicalAddress{0}, PhysicalAddress{32}, 8, 4);
  EXPECT_EQ(cost, 32u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(store.Read(PhysicalAddress{32 + i}), i + 100);
  }
}

TEST(CoreStoreTest, OverlappingSlideDownPreservesContents) {
  CoreStore store(64);
  for (std::uint64_t i = 0; i < 16; ++i) {
    store.Write(PhysicalAddress{8 + i}, i + 1);
  }
  // Slide a 16-word block down by 4: destination overlaps source.
  store.Move(PhysicalAddress{8}, PhysicalAddress{4}, 16, 1);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(store.Read(PhysicalAddress{4 + i}), i + 1);
  }
}

TEST(CoreStoreTest, RangeReadWriteRoundTrip) {
  CoreStore store(32);
  std::vector<Word> data{1, 2, 3, 4};
  store.WriteRange(PhysicalAddress{5}, data);
  std::vector<Word> out;
  store.ReadRange(PhysicalAddress{5}, 4, &out);
  EXPECT_EQ(out, data);
}

TEST(CoreStoreTest, FillSetsRange) {
  CoreStore store(16);
  store.Fill(PhysicalAddress{2}, 3, 9);
  EXPECT_EQ(store.Read(PhysicalAddress{2}), 9u);
  EXPECT_EQ(store.Read(PhysicalAddress{4}), 9u);
  EXPECT_EQ(store.Read(PhysicalAddress{5}), 0u);
}

TEST(CoreStoreDeathTest, OutOfBoundsAccessAborts) {
  CoreStore store(8);
  EXPECT_DEATH(store.Read(PhysicalAddress{8}), "out of bounds");
  EXPECT_DEATH(store.Write(PhysicalAddress{100}, 1), "out of bounds");
  EXPECT_DEATH(store.Move(PhysicalAddress{4}, PhysicalAddress{6}, 4, 1), "out of bounds");
}

// --- BackingStore ----------------------------------------------------------------

TEST(BackingStoreTest, FetchOfUnstoredSlotZeroFills) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  const Cycles cost = store.Fetch(7, 16);
  EXPECT_EQ(cost, 100u + 16 * 4);
  EXPECT_FALSE(store.Contains(7));
  EXPECT_EQ(store.OccupiedWords(), 0u);
}

TEST(BackingStoreTest, RestoreWithNewSizeAdjustsOccupiedWords) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(3, 16);
  store.Store(4, 8);
  EXPECT_EQ(store.OccupiedWords(), 24u);
  store.Store(3, 5);  // re-storing replaces the slot's size, not adds to it
  EXPECT_EQ(store.OccupiedWords(), 13u);
  store.Store(3, 40);
  EXPECT_EQ(store.OccupiedWords(), 48u);
  EXPECT_EQ(store.slot_count(), 2u);
}

TEST(BackingStoreTest, ContainsTracksStoreAndDiscard) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  EXPECT_FALSE(store.Contains(3));
  store.Store(3, 16);
  EXPECT_TRUE(store.Contains(3));
  EXPECT_FALSE(store.Contains(4));
  store.Discard(3);
  EXPECT_FALSE(store.Contains(3));
  store.Discard(3);  // discarding an absent slot is a no-op
  EXPECT_EQ(store.OccupiedWords(), 0u);
  store.Store(3, 2);
  EXPECT_TRUE(store.Contains(3));
}

TEST(BackingStoreTest, AbsentSlotFetchCostsTheSameAsPresent) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(1, 64);
  const Cycles present = store.Fetch(1, 64);
  const Cycles absent = store.Fetch(2, 64);
  EXPECT_EQ(present, absent);
  EXPECT_EQ(present, 100u + 64 * 4);
  EXPECT_EQ(store.fetches(), 2u);
  EXPECT_EQ(store.busy_cycles(), 3 * present);  // one store, two fetches
}

TEST(BackingStoreTest, DiscardRemovesSlot) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(1, 1);
  store.Discard(1);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_EQ(store.OccupiedWords(), 0u);
}

TEST(BackingStoreTest, AccountingCountersAdvance) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(1, 2);
  store.Fetch(1, 2);
  EXPECT_EQ(store.stores(), 1u);
  EXPECT_EQ(store.fetches(), 1u);
  EXPECT_EQ(store.busy_cycles(), (100u + 8) * 2);
  EXPECT_EQ(store.OccupiedWords(), 2u);
  EXPECT_EQ(store.slot_count(), 1u);
}

// The vm.backing section: (slot id, words) pairs sorted by id, the bad
// slots, the spare cursor, occupied words, then the transfer counters.
std::string SealBackingSection(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& slots,
                               std::uint64_t occupied) {
  SnapshotWriter w;
  w.U64(slots.size());
  for (const auto& [id, words] : slots) {
    w.U64(id);
    w.U64(words);
  }
  w.U64(0);  // no bad slots
  w.U64(BackingStore::kSpareSlotBase);
  w.U64(occupied);
  w.U64(3);    // stores
  w.U64(1);    // fetches
  w.U64(999);  // busy cycles
  return w.Seal();
}

TEST(BackingStoreTest, SaveLoadRoundTripsSlotSizesAndCounters) {
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  BackingStore store(drum);
  store.Store(9, 64);
  store.Store(2, 16);
  store.Fetch(9, 64);
  store.MarkBad(5);
  SnapshotWriter w;
  store.SaveState(&w);
  const std::string sealed = w.Seal();

  BackingStore loaded(drum);
  SnapshotReader r(sealed);
  loaded.LoadState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  EXPECT_TRUE(loaded.Contains(9));
  EXPECT_TRUE(loaded.Contains(2));
  EXPECT_TRUE(loaded.IsBad(5));
  EXPECT_EQ(loaded.OccupiedWords(), 80u);
  EXPECT_EQ(loaded.stores(), 2u);
  EXPECT_EQ(loaded.fetches(), 1u);
  EXPECT_EQ(loaded.busy_cycles(), store.busy_cycles());
  SnapshotWriter again;
  loaded.SaveState(&again);
  EXPECT_EQ(again.Seal(), sealed);
}

TEST(BackingStoreTest, LoadRejectsRepeatedSlotAndSizeMismatch) {
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  {
    const std::string ok = SealBackingSection({{1, 64}, {2, 16}}, 80);
    BackingStore store(drum);
    SnapshotReader r(ok);
    store.LoadState(&r);
    ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  }
  for (const std::string& bad : {SealBackingSection({{1, 64}, {1, 16}}, 80),
                                 SealBackingSection({{1, 64}, {2, 16}}, 81),
                                 SealBackingSection({{1, 64}, {2, 16}}, 64)}) {
    BackingStore store(drum);
    store.Store(7, 8);
    SnapshotReader r(bad);
    store.LoadState(&r);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue) << r.error().Describe();
    // A rejected load changes nothing.
    EXPECT_TRUE(store.Contains(7));
    EXPECT_FALSE(store.Contains(1));
    EXPECT_EQ(store.OccupiedWords(), 8u);
  }
}

// --- TransferChannel --------------------------------------------------------------

TEST(TransferChannelTest, IdleChannelStartsImmediately) {
  TransferChannel channel;
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  const auto done = channel.Schedule(drum, 10, /*now=*/50);
  EXPECT_EQ(done.start, 50u);
  EXPECT_EQ(done.finish, 50u + 100 + 40);
}

TEST(TransferChannelTest, BusyChannelQueues) {
  TransferChannel channel;
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  const auto first = channel.Schedule(drum, 10, 0);
  const auto second = channel.Schedule(drum, 10, 0);
  EXPECT_EQ(second.start, first.finish);
  EXPECT_EQ(channel.queueing_cycles(), first.finish);
  EXPECT_EQ(channel.transfers(), 2u);
}

TEST(TransferChannelTest, LaterRequestAfterDrainDoesNotQueue) {
  TransferChannel channel;
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  const auto first = channel.Schedule(drum, 10, 0);
  const auto second = channel.Schedule(drum, 10, first.finish + 5);
  EXPECT_EQ(second.start, first.finish + 5);
}

TEST(TransferChannelTest, ResetClearsState) {
  TransferChannel channel;
  channel.Schedule(MakeDrumLevel("drum", 4096, 4, 100), 10, 0);
  channel.Reset();
  EXPECT_EQ(channel.busy_until(), 0u);
  EXPECT_EQ(channel.transfers(), 0u);
}

// --- PackingChannel ----------------------------------------------------------------

TEST(PackingChannelTest, CpuCopyScalesPerWord) {
  const PackingChannel cpu = CpuPackingChannel();
  EXPECT_FALSE(cpu.autonomous);
  EXPECT_EQ(cpu.MoveCost(0), 0u);
  EXPECT_EQ(cpu.MoveCost(100), 400u);
}

TEST(PackingChannelTest, AutonomousChannelHasSetupButCheaperWords) {
  const PackingChannel channel = AutonomousPackingChannel();
  EXPECT_TRUE(channel.autonomous);
  EXPECT_EQ(channel.MoveCost(100), 64u + 100);
  // Crossover: for large moves the autonomous channel wins.
  EXPECT_LT(channel.MoveCost(1000), CpuPackingChannel().MoveCost(1000));
}

TEST(BackingStoreTest, MarkBadRetiresSlotAndDropsContent) {
  BackingStore store(MakeDrumLevel("drum", 1024, 2, 100));
  store.Store(3, 16);
  ASSERT_TRUE(store.Contains(3));
  ASSERT_EQ(store.OccupiedWords(), 16u);

  store.MarkBad(3);
  EXPECT_TRUE(store.IsBad(3));
  EXPECT_FALSE(store.Contains(3));   // the content went with the sector
  EXPECT_EQ(store.OccupiedWords(), 0u);
  EXPECT_EQ(store.bad_slot_count(), 1u);
  EXPECT_FALSE(store.IsBad(4));
}

TEST(BackingStoreTest, SpareSlotsAllocateAboveCallerRange) {
  BackingStore store(MakeDrumLevel("drum", 128, 2, 100));
  const auto first = store.AllocateSpareSlot(16);
  const auto second = store.AllocateSpareSlot(16);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_GE(*first, BackingStore::kSpareSlotBase);
  EXPECT_NE(*first, *second);
}

TEST(BackingStoreTest, SpareSlotAllocationRespectsCapacity) {
  BackingStore store(MakeDrumLevel("drum", 128, 2, 100));
  store.Store(0, 100);
  EXPECT_TRUE(store.HasRoomFor(28));
  EXPECT_FALSE(store.HasRoomFor(29));
  EXPECT_FALSE(store.AllocateSpareSlot(64).has_value());  // would overflow
  EXPECT_TRUE(store.AllocateSpareSlot(16).has_value());
}

// Transfers against a retired slot must remain hard aborts: the resilience
// layer is required to relocate first, never to retry a dead sector.
TEST(BackingStoreDeathTest, StoreToBadSlotAborts) {
  BackingStore store(MakeDrumLevel("drum", 1024, 2, 100));
  store.MarkBad(5);
  EXPECT_DEATH(store.Store(5, 4), "retired");
}

TEST(BackingStoreDeathTest, FetchFromBadSlotAborts) {
  BackingStore store(MakeDrumLevel("drum", 1024, 2, 100));
  store.MarkBad(5);
  EXPECT_DEATH(store.Fetch(5, 4), "retired");
}

// --- StorageHierarchy ----------------------------------------------------------------

TEST(StorageHierarchyTest, BuildsLevelsAndChannels) {
  StorageHierarchy hierarchy(MakeCoreLevel("core", 1024, 1));
  const std::size_t drum = hierarchy.AddBackingLevel(MakeDrumLevel("drum", 8192, 4, 100));
  const std::size_t disk = hierarchy.AddBackingLevel(MakeDiskLevel("disk", 65536, 8, 5000));
  EXPECT_EQ(hierarchy.backing_level_count(), 2u);
  EXPECT_EQ(hierarchy.backing(drum).level().kind, StorageLevelKind::kDrum);
  EXPECT_EQ(hierarchy.backing(disk).level().kind, StorageLevelKind::kDisk);
  hierarchy.channel(drum).Schedule(hierarchy.backing(drum).level(), 4, 0);
  EXPECT_EQ(hierarchy.channel(drum).transfers(), 1u);
}

// An out-of-range level index is a structural bug in the caller, not a
// runtime condition to degrade around: it must stay a hard abort.
TEST(StorageHierarchyDeathTest, OutOfRangeLevelIndexAborts) {
  StorageHierarchy hierarchy(MakeCoreLevel("core", 1024, 1));
  hierarchy.AddBackingLevel(MakeDrumLevel("drum", 8192, 4, 100));
  EXPECT_DEATH(hierarchy.backing(1), "out of range");
  EXPECT_DEATH(hierarchy.channel(1), "out of range");
}

TEST(StorageHierarchyTest, DescribeListsEveryLevel) {
  StorageHierarchy hierarchy(MakeCoreLevel("core", 1024, 1));
  hierarchy.AddBackingLevel(MakeDrumLevel("drum", 8192, 4, 100));
  const std::string text = hierarchy.Describe();
  EXPECT_NE(text.find("core"), std::string::npos);
  EXPECT_NE(text.find("drum"), std::string::npos);
  EXPECT_NE(text.find("8192"), std::string::npos);
}

}  // namespace
}  // namespace dsa
