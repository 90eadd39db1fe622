// Unit tests for src/map: every mapping mechanism in the paper's catalogue,
// plus the associative memory that makes them affordable.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/snapshot.h"
#include "src/map/associative_memory.h"
#include "src/map/block_table.h"
#include "src/map/mapper.h"
#include "src/map/page_table.h"
#include "src/map/relocation_limit.h"
#include "src/map/two_level.h"

namespace dsa {
namespace {

// --- IdentityMapper -------------------------------------------------------------

TEST(IdentityMapperTest, NamesAreAddresses) {
  IdentityMapper mapper(100);
  const auto t = mapper.Translate(Name{42}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{42});
  EXPECT_EQ(t->cost, 0u);
}

TEST(IdentityMapperTest, OutOfExtentFaults) {
  IdentityMapper mapper(100);
  const auto t = mapper.Translate(Name{100}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidName);
  EXPECT_EQ(mapper.faults(), 1u);
}

// --- RelocationLimitMapper --------------------------------------------------------

TEST(RelocationLimitTest, AddsRelocationAfterLimitCheck) {
  RelocationLimitMapper mapper(PhysicalAddress{5000}, 100);
  const auto t = mapper.Translate(Name{42}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{5042});
  EXPECT_EQ(t->cost, 2u);  // limit check + relocation add
}

TEST(RelocationLimitTest, LimitViolationTrapped) {
  RelocationLimitMapper mapper(PhysicalAddress{5000}, 100);
  const auto t = mapper.Translate(Name{100}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kBoundsViolation);
}

TEST(RelocationLimitTest, ReloadMovesTheProgram) {
  RelocationLimitMapper mapper(PhysicalAddress{0}, 100);
  mapper.Load(PhysicalAddress{900}, 50);
  const auto t = mapper.Translate(Name{10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{910});
  EXPECT_FALSE(mapper.Translate(Name{60}, AccessKind::kRead, 0).has_value());
}

TEST(RelocationLimitTest, MeanCostIsTwoRegisterOps) {
  RelocationLimitMapper mapper(PhysicalAddress{0}, 100);
  for (int i = 0; i < 10; ++i) {
    mapper.Translate(Name{static_cast<std::uint64_t>(i)}, AccessKind::kRead, 0);
  }
  EXPECT_DOUBLE_EQ(mapper.MeanTranslationCost(), 2.0);
}

// --- BlockTableMapper (Fig. 2) -----------------------------------------------------

TEST(BlockTableTest, HighBitsIndexTheTable) {
  BlockTableMapper mapper(/*block_words=*/256, /*blocks=*/8);
  mapper.SetBlock(0, PhysicalAddress{1024});
  mapper.SetBlock(1, PhysicalAddress{0});
  const auto t0 = mapper.Translate(Name{10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t0.has_value());
  EXPECT_EQ(t0->address, PhysicalAddress{1034});
  const auto t1 = mapper.Translate(Name{256 + 10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->address, PhysicalAddress{10});
}

TEST(BlockTableTest, ScatteredBlocksAppearContiguous) {
  // The Fig. 1 picture: name-contiguous blocks at scattered addresses.
  BlockTableMapper mapper(128, 4);
  mapper.SetBlock(0, PhysicalAddress{896});
  mapper.SetBlock(1, PhysicalAddress{128});
  mapper.SetBlock(2, PhysicalAddress{640});
  mapper.SetBlock(3, PhysicalAddress{0});
  // A sweep over names 0..511 never faults although no two blocks abut.
  for (std::uint64_t n = 0; n < 512; ++n) {
    EXPECT_TRUE(mapper.Translate(Name{n}, AccessKind::kRead, 0).has_value());
  }
}

TEST(BlockTableTest, UnmappedBlockFaults) {
  BlockTableMapper mapper(256, 8);
  const auto t = mapper.Translate(Name{300}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(t.error().page, PageId{1});
}

TEST(BlockTableTest, NameBeyondTableFaults) {
  BlockTableMapper mapper(256, 4);
  const auto t = mapper.Translate(Name{4 * 256}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidName);
}

TEST(BlockTableTest, CostIsTableReferencePlusAdd) {
  BlockTableMapper mapper(256, 8);
  mapper.SetBlock(0, PhysicalAddress{0});
  const auto t = mapper.Translate(Name{1}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->cost, 3u);  // core_reference(2) + register_op(1)
  EXPECT_EQ(mapper.TableWords(), 8u);
}

TEST(BlockTableTest, ClearBlockRevokesMapping) {
  BlockTableMapper mapper(256, 8);
  mapper.SetBlock(0, PhysicalAddress{0});
  mapper.ClearBlock(0);
  EXPECT_FALSE(mapper.Translate(Name{0}, AccessKind::kRead, 0).has_value());
}

// --- AssociativeMemory --------------------------------------------------------------

TEST(AssociativeMemoryTest, HitsAfterInsert) {
  AssociativeMemory memory(4);
  memory.Insert(7, 70, 0);
  EXPECT_EQ(memory.Lookup(7, 1), std::optional<std::uint64_t>{70});
  EXPECT_EQ(memory.hits(), 1u);
  EXPECT_EQ(memory.misses(), 0u);
}

TEST(AssociativeMemoryTest, MissesOnUnknownKey) {
  AssociativeMemory memory(4);
  EXPECT_FALSE(memory.Lookup(9, 0).has_value());
  EXPECT_EQ(memory.misses(), 1u);
}

TEST(AssociativeMemoryTest, LruEvictionOnOverflow) {
  AssociativeMemory memory(2);
  memory.Insert(1, 10, 0);
  memory.Insert(2, 20, 1);
  memory.Lookup(1, 2);       // refresh key 1
  memory.Insert(3, 30, 3);   // evicts key 2 (least recently used)
  EXPECT_TRUE(memory.Lookup(1, 4).has_value());
  EXPECT_FALSE(memory.Lookup(2, 5).has_value());
  EXPECT_TRUE(memory.Lookup(3, 6).has_value());
}

TEST(AssociativeMemoryTest, InsertRefreshesExistingKey) {
  AssociativeMemory memory(2);
  memory.Insert(1, 10, 0);
  memory.Insert(1, 11, 1);
  EXPECT_EQ(memory.size(), 1u);
  EXPECT_EQ(memory.Lookup(1, 2), std::optional<std::uint64_t>{11});
}

TEST(AssociativeMemoryTest, InvalidateRemovesOneKey) {
  AssociativeMemory memory(4);
  memory.Insert(1, 10, 0);
  memory.Insert(2, 20, 0);
  memory.Invalidate(1);
  EXPECT_FALSE(memory.Lookup(1, 1).has_value());
  EXPECT_TRUE(memory.Lookup(2, 1).has_value());
}

TEST(AssociativeMemoryTest, ZeroCapacityAlwaysMisses) {
  AssociativeMemory memory(0);
  memory.Insert(1, 10, 0);
  EXPECT_FALSE(memory.Lookup(1, 1).has_value());
  EXPECT_EQ(memory.HitRate(), 0.0);
}

// --- PageTableMapper ------------------------------------------------------------------

TEST(PageTableMapperTest, MissThenHitCostDifference) {
  PageTableMapper mapper(/*page_words=*/512, /*pages=*/16, /*tlb_entries=*/4);
  mapper.Map(PageId{0}, FrameId{3});
  // First access: TLB probe (1) + table reference (2).
  const auto miss = mapper.Translate(Name{100}, AccessKind::kRead, 0);
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->cost, 3u);
  EXPECT_FALSE(miss->associative_hit);
  // Second access: TLB hit (1).
  const auto hit = mapper.Translate(Name{101}, AccessKind::kRead, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cost, 1u);
  EXPECT_TRUE(hit->associative_hit);
  EXPECT_EQ(hit->address, PhysicalAddress{3 * 512 + 101});
}

TEST(PageTableMapperTest, NoTlbAlwaysPaysTableReference) {
  PageTableMapper mapper(512, 16, 0);
  mapper.Map(PageId{0}, FrameId{0});
  for (int i = 0; i < 3; ++i) {
    const auto t = mapper.Translate(Name{0}, AccessKind::kRead, 0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->cost, 2u);
  }
  // A repeat after the page is unmapped faults at the same cost, and a
  // repeat after it is mapped elsewhere reaches the new frame.
  mapper.Unmap(PageId{0});
  const auto gone = mapper.Translate(Name{0}, AccessKind::kRead, 1);
  ASSERT_FALSE(gone.has_value());
  EXPECT_EQ(gone.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(gone.error().detection_cost, 2u);
  mapper.Map(PageId{0}, FrameId{5});
  for (int i = 0; i < 2; ++i) {
    const auto t = mapper.Translate(Name{7}, AccessKind::kRead, 2);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->cost, 2u);
    EXPECT_EQ(t->address, PhysicalAddress{5 * 512 + 7});
  }
  // Six attempts, the fault included, each charged one table reference.
  EXPECT_EQ(mapper.translations(), 6u);
  EXPECT_EQ(mapper.faults(), 1u);
  EXPECT_EQ(mapper.translation_cycles(), 12u);
}

TEST(PageTableMapperTest, AbsentPageFaultsWithPageId) {
  PageTableMapper mapper(512, 16, 4);
  const auto t = mapper.Translate(Name{512 * 5 + 7}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(t.error().page, PageId{5});
}

TEST(PageTableMapperTest, UnmapShootsDownTlb) {
  PageTableMapper mapper(512, 16, 4);
  mapper.Map(PageId{0}, FrameId{1});
  mapper.Translate(Name{0}, AccessKind::kRead, 0);  // fills the TLB
  mapper.Unmap(PageId{0});
  const auto t = mapper.Translate(Name{0}, AccessKind::kRead, 1);
  ASSERT_FALSE(t.has_value()) << "stale TLB entry survived the unmap";
}

TEST(PageTableMapperTest, NameBeyondTableIsInvalid) {
  PageTableMapper mapper(512, 4, 0);
  const auto t = mapper.Translate(Name{512 * 4}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidName);
}

// --- AtlasPageRegisterMapper -------------------------------------------------------------

// --- PageTable sparse chunk encoding ---------------------------------------------

// A chunk body: u64 present count, then (u32 offset, u64 frame) per entry.
std::string ChunkBody(std::uint64_t count,
                      const std::vector<std::pair<std::uint32_t, std::uint64_t>>& entries) {
  SnapshotWriter w;
  w.U64(count);
  for (const auto& [offset, frame] : entries) {
    w.U32(offset);
    w.U64(frame);
  }
  return w.TakePayload();
}

TEST(PageTableTest, ChunkBodyHoldsOnlyPresentEntries) {
  PageTable table(5000);  // chunk 0 holds 4096 entries, chunk 1 the other 904
  ASSERT_EQ(table.ChunkCount(), 2u);
  table.Map(PageId{4097}, FrameId{3});
  table.Map(PageId{4999}, FrameId{1});
  table.Map(PageId{4100}, FrameId{2});
  table.Unmap(PageId{4100});
  EXPECT_EQ(table.present_count(), 2u);

  SnapshotWriter w0;
  table.SaveChunk(0, &w0);
  EXPECT_EQ(w0.TakePayload(), ChunkBody(0, {}));
  SnapshotWriter w1;
  table.SaveChunk(1, &w1);
  const std::string body = w1.TakePayload();
  EXPECT_EQ(body, ChunkBody(2, {{1, 3}, {903, 1}}));

  PageTable loaded(5000);
  loaded.Map(PageId{4098}, FrameId{7});  // overwritten by the load
  loaded.Map(PageId{5}, FrameId{6});     // another chunk: kept
  SnapshotReader r = SnapshotReader::ForPayload(body);
  loaded.LoadChunk(1, &r);
  ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  EXPECT_FALSE(loaded.entry(PageId{4098}).present);
  EXPECT_EQ(loaded.entry(PageId{4097}).frame, FrameId{3});
  EXPECT_EQ(loaded.entry(PageId{4999}).frame, FrameId{1});
  EXPECT_TRUE(loaded.entry(PageId{5}).present);
  EXPECT_EQ(loaded.present_count(), 3u);
}

TEST(PageTableTest, SparseChunkDecoderRejectsMalformedBodies) {
  const std::vector<std::string> bad = {
      ChunkBody(905, {}),                  // count above the 904-entry chunk
      ChunkBody(1, {{904, 0}}),            // offset out of range
      ChunkBody(2, {{3, 0}, {3, 1}}),      // repeated offset
      ChunkBody(2, {{5, 0}, {3, 1}}),      // offsets going backwards
  };
  for (const std::string& body : bad) {
    PageTable table(5000);
    table.Map(PageId{4100}, FrameId{2});
    SnapshotReader r = SnapshotReader::ForPayload(body);
    table.LoadChunk(1, &r);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue) << r.error().Describe();
    // A rejected chunk leaves the table as it was.
    EXPECT_EQ(table.present_count(), 1u);
    EXPECT_EQ(table.entry(PageId{4100}).frame, FrameId{2});
    EXPECT_FALSE(table.entry(PageId{4096 + 3}).present);
  }
}

TEST(AtlasMapperTest, AssociativeSearchMapsDirectly) {
  AtlasPageRegisterMapper mapper(512, /*frames=*/4);
  mapper.LoadFrame(FrameId{2}, PageId{7});
  const auto t = mapper.Translate(Name{7 * 512 + 9}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{2 * 512 + 9});
  EXPECT_EQ(t->cost, 1u);  // one parallel associative search
  EXPECT_TRUE(t->associative_hit);
}

TEST(AtlasMapperTest, MissIsThePageFault) {
  AtlasPageRegisterMapper mapper(512, 4);
  const auto t = mapper.Translate(Name{3 * 512}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(t.error().page, PageId{3});
}

TEST(AtlasMapperTest, ClearFrameRevokes) {
  AtlasPageRegisterMapper mapper(512, 4);
  mapper.LoadFrame(FrameId{0}, PageId{1});
  mapper.ClearFrame(FrameId{0});
  EXPECT_FALSE(mapper.Translate(Name{512}, AccessKind::kRead, 0).has_value());
}

// --- SegmentPageMapper (Fig. 4) -------------------------------------------------------------

class SegmentPageMapperTest : public ::testing::Test {
 protected:
  SegmentPageMapperTest() : mapper_(4, 12, 256, 4) {
    mapper_.DefineSegment(SegmentId{1}, 1000);
    mapper_.MapPage(SegmentId{1}, PageId{0}, FrameId{5});
  }
  SegmentPageMapper mapper_;
};

TEST_F(SegmentPageMapperTest, TwoLevelTranslationResolves) {
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{5 * 256 + 10});
  // TLB probe (1) + segment table (2) + page table (2).
  EXPECT_EQ(t->cost, 5u);

  // Without a TLB every repeat walks both tables (2 + 2), and a repeat past
  // the extent pays the segment-table reference that detects it; after an
  // unmap the page faults, and after a remap the walk reaches the new frame.
  SegmentPageMapper bare(4, 12, 256, /*tlb_entries=*/0);
  bare.DefineSegment(SegmentId{1}, 1000);
  bare.MapPage(SegmentId{1}, PageId{0}, FrameId{5});
  for (int i = 0; i < 3; ++i) {
    const auto repeat = bare.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, i);
    ASSERT_TRUE(repeat.has_value());
    EXPECT_EQ(repeat->cost, 4u);
    EXPECT_EQ(repeat->address, PhysicalAddress{5 * 256 + 10});
  }
  const auto beyond = bare.TranslateSegmented({SegmentId{1}, 1000}, AccessKind::kRead, 3);
  ASSERT_FALSE(beyond.has_value());
  EXPECT_EQ(beyond.error().kind, FaultKind::kBoundsViolation);
  EXPECT_EQ(beyond.error().detection_cost, 2u);
  bare.UnmapPage(SegmentId{1}, PageId{0});
  const auto gone = bare.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 4);
  ASSERT_FALSE(gone.has_value());
  EXPECT_EQ(gone.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(gone.error().detection_cost, 4u);
  bare.MapPage(SegmentId{1}, PageId{0}, FrameId{2});
  for (int i = 0; i < 2; ++i) {
    const auto moved = bare.TranslateSegmented({SegmentId{1}, 20}, AccessKind::kRead, 5 + i);
    ASSERT_TRUE(moved.has_value());
    EXPECT_EQ(moved->cost, 4u);
    EXPECT_EQ(moved->address, PhysicalAddress{2 * 256 + 20});
  }
}

TEST_F(SegmentPageMapperTest, TlbHitSkipsBothTables) {
  mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 20}, AccessKind::kRead, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->cost, 1u);
  EXPECT_TRUE(t->associative_hit);
}

TEST_F(SegmentPageMapperTest, BoundsViolationInterceptsBadSubscript) {
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 1000}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kBoundsViolation);
}

TEST_F(SegmentPageMapperTest, UndefinedSegmentIsInvalid) {
  const auto t = mapper_.TranslateSegmented({SegmentId{2}, 0}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidSegment);
}

TEST_F(SegmentPageMapperTest, AbsentPageFaults) {
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 300}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(t.error().page, PageId{1});
}

TEST_F(SegmentPageMapperTest, LinearViewUnpacksHighBits) {
  // Linear name = (segment << offset_bits) | offset.
  const auto t =
      mapper_.Translate(Name{(std::uint64_t{1} << 12) | 10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{5 * 256 + 10});
}

TEST_F(SegmentPageMapperTest, ResizeGrowKeepsMappings) {
  mapper_.ResizeSegment(SegmentId{1}, 2000);
  EXPECT_EQ(mapper_.SegmentExtent(SegmentId{1}), 2000u);
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{5 * 256 + 10});
  // The new tail pages exist but are absent.
  const auto tail = mapper_.TranslateSegmented({SegmentId{1}, 1500}, AccessKind::kRead, 0);
  ASSERT_FALSE(tail.has_value());
  EXPECT_EQ(tail.error().kind, FaultKind::kPageNotPresent);
}

TEST_F(SegmentPageMapperTest, ResizeShrinkInvalidatesTail) {
  mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);  // TLB fill
  mapper_.ResizeSegment(SegmentId{1}, 5);
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 1);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kBoundsViolation);
}

TEST_F(SegmentPageMapperTest, DestroySegmentInvalidatesEverything) {
  mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);  // TLB fill
  mapper_.DestroySegment(SegmentId{1});
  EXPECT_FALSE(mapper_.SegmentIsDefined(SegmentId{1}));
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 1);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidSegment);
}

TEST_F(SegmentPageMapperTest, TableWordsCountSegmentAndPageTables) {
  // 16 segment entries + ceil(1000/256)=4 page entries.
  EXPECT_EQ(mapper_.TableWords(), 16u + 4u);
  mapper_.DefineSegment(SegmentId{2}, 256);
  EXPECT_EQ(mapper_.TableWords(), 16u + 4u + 1u);
}

TEST_F(SegmentPageMapperTest, UnmapPageInvalidatesItsTlbEntryOnly) {
  mapper_.DefineSegment(SegmentId{2}, 512);
  mapper_.MapPage(SegmentId{2}, PageId{0}, FrameId{6});
  mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);
  mapper_.TranslateSegmented({SegmentId{2}, 10}, AccessKind::kRead, 1);
  mapper_.UnmapPage(SegmentId{1}, PageId{0});
  EXPECT_FALSE(mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 2).has_value());
  const auto still = mapper_.TranslateSegmented({SegmentId{2}, 10}, AccessKind::kRead, 3);
  EXPECT_TRUE(still.has_value());
  EXPECT_TRUE(still->associative_hit);
}

// --- Mapper accounting -----------------------------------------------------------------------

TEST(MapperAccountingTest, MeanCostAveragesOverTranslations) {
  PageTableMapper mapper(512, 4, 2);
  mapper.Map(PageId{0}, FrameId{0});
  mapper.Translate(Name{0}, AccessKind::kRead, 0);  // cost 3 (probe+table)
  mapper.Translate(Name{1}, AccessKind::kRead, 1);  // cost 1 (hit)
  EXPECT_EQ(mapper.translations(), 2u);
  EXPECT_DOUBLE_EQ(mapper.MeanTranslationCost(), 2.0);
}

}  // namespace
}  // namespace dsa
