// Unit tests for the frame table, its hardware usage sensors, and its
// page -> frame residency index.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/paging/frame_table.h"

namespace dsa {
namespace {

TEST(FrameTableTest, FreeFramesPopLowestFirst) {
  FrameTable table(4);
  EXPECT_EQ(table.free_count(), 4u);
  EXPECT_EQ(table.TakeFreeFrame(), FrameId{0});
  EXPECT_EQ(table.TakeFreeFrame(), FrameId{1});
  EXPECT_EQ(table.free_count(), 2u);
}

TEST(FrameTableTest, LoadRecordsPageAndTimes) {
  FrameTable table(2);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{9}, 100);
  const FrameInfo& info = table.info(frame);
  EXPECT_TRUE(info.occupied);
  EXPECT_EQ(info.page, PageId{9});
  EXPECT_EQ(info.load_time, 100u);
  EXPECT_EQ(info.last_use, 100u);
  EXPECT_FALSE(info.use);
  EXPECT_EQ(table.occupied_count(), 1u);
}

TEST(FrameTableTest, TouchSetsSensors) {
  FrameTable table(2);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  table.Touch(frame, 5, /*write=*/false, /*idle_threshold=*/100);
  EXPECT_TRUE(table.info(frame).use);
  EXPECT_FALSE(table.info(frame).modified);
  table.Touch(frame, 6, /*write=*/true, 100);
  EXPECT_TRUE(table.info(frame).modified);
  EXPECT_EQ(table.info(frame).last_use, 6u);
}

TEST(FrameTableTest, IdlePeriodsRecordedBeyondThreshold) {
  FrameTable table(2);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  table.Touch(frame, 10, false, /*idle_threshold=*/100);
  EXPECT_EQ(table.info(frame).previous_idle, 0u);  // short gap: same use period
  table.Touch(frame, 500, false, 100);
  EXPECT_EQ(table.info(frame).previous_idle, 490u);  // completed inactivity period
  table.Touch(frame, 505, false, 100);
  EXPECT_EQ(table.info(frame).previous_idle, 490u);  // short gap preserves the record
}

TEST(FrameTableTest, EvictReturnsFrameToFreePool) {
  FrameTable table(2);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  table.Evict(frame);
  EXPECT_FALSE(table.info(frame).occupied);
  EXPECT_EQ(table.free_count(), 2u);
}

TEST(FrameTableTest, PinnedFramesAreNotCandidates) {
  FrameTable table(3);
  const FrameId a = *table.TakeFreeFrame();
  const FrameId b = *table.TakeFreeFrame();
  table.Load(a, PageId{1}, 0);
  table.Load(b, PageId{2}, 0);
  table.Pin(a);
  const auto candidates = table.EvictionCandidates();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], b);
  table.Unpin(a);
  EXPECT_EQ(table.EvictionCandidates().size(), 2u);
}

TEST(FrameTableTest, ClearSensors) {
  FrameTable table(1);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  table.Touch(frame, 1, true, 10);
  table.ClearUse(frame);
  table.ClearModified(frame);
  EXPECT_FALSE(table.info(frame).use);
  EXPECT_FALSE(table.info(frame).modified);
}

TEST(FrameTableTest, ExhaustedFreePoolReturnsNullopt) {
  FrameTable table(1);
  EXPECT_TRUE(table.TakeFreeFrame().has_value());
  EXPECT_FALSE(table.TakeFreeFrame().has_value());
}

TEST(FrameTableTest, RetiredFrameLeavesFreePool) {
  FrameTable table(3);
  table.RetireFrame(FrameId{1});
  EXPECT_EQ(table.retired_count(), 1u);
  EXPECT_EQ(table.usable_frame_count(), 2u);
  EXPECT_TRUE(table.info(FrameId{1}).retired);
  // The free pool skips the retired frame entirely.
  EXPECT_EQ(table.free_count(), 2u);
  EXPECT_EQ(table.TakeFreeFrame(), FrameId{0});
  EXPECT_EQ(table.TakeFreeFrame(), FrameId{2});
  EXPECT_FALSE(table.TakeFreeFrame().has_value());
}

TEST(FrameTableTest, RetireAfterEvictRemovesFrameFromCirculation) {
  FrameTable table(2);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  table.Evict(frame);  // back in the free pool...
  table.RetireFrame(frame);  // ...and now gone for good
  EXPECT_EQ(table.usable_frame_count(), 1u);
  EXPECT_EQ(table.TakeFreeFrame(), FrameId{1});
  EXPECT_FALSE(table.TakeFreeFrame().has_value());
  EXPECT_TRUE(table.EvictionCandidates().empty());
}

// --- residency index ---------------------------------------------------------

// The inverse of an odd multiplier mod 2^64 (Newton's iteration doubles the
// correct low bits each step, from 3).
std::uint64_t InverseMod64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) {
    x *= 2 - a * x;
  }
  return x;
}

// `count` page ids whose home slot in `table`'s index is `slot`: the k-th
// id's product with the multiplier is slot<<shift plus k, so all of them
// share the product's top bits.  Most land far above 2^32.
std::vector<PageId> CollidingPages(const FrameTable& table, std::size_t slot,
                                   std::size_t count) {
  const std::size_t capacity = table.residency_index_capacity();
  const int shift = 64 - std::countr_zero(capacity);
  const std::uint64_t inverse = InverseMod64(FrameTable::kIndexMultiplier);
  std::vector<PageId> pages;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t product = (std::uint64_t{slot} << shift) + k;
    pages.push_back(PageId{product * inverse});
  }
  return pages;
}

TEST(FrameTableIndexTest, CapacityIsAtLeastTwiceTheFrameCount) {
  ASSERT_EQ(InverseMod64(FrameTable::kIndexMultiplier) * FrameTable::kIndexMultiplier, 1u);
  for (std::size_t frames : {1u, 2u, 3u, 12u, 16u, 4096u}) {
    const FrameTable table(frames);
    EXPECT_GE(table.residency_index_capacity(), 2 * frames);
    EXPECT_TRUE(std::has_single_bit(table.residency_index_capacity()));
  }
}

TEST(FrameTableIndexTest, FrameOfFollowsLoadAndEvict) {
  FrameTable table(4);
  const PageId packed{(std::uint64_t{3} << 32) | 17};  // segment 3, page 17
  EXPECT_FALSE(table.FrameOf(packed).has_value());
  const FrameId a = *table.TakeFreeFrame();
  const FrameId b = *table.TakeFreeFrame();
  table.Load(a, packed, 0);
  table.Load(b, PageId{17}, 0);
  EXPECT_EQ(table.FrameOf(packed), a);
  EXPECT_EQ(table.FrameOf(PageId{17}), b);
  table.Evict(a);
  EXPECT_FALSE(table.FrameOf(packed).has_value());
  EXPECT_EQ(table.FrameOf(PageId{17}), b);
}

TEST(FrameTableIndexTest, DeletionShiftsBackAcrossTheArrayEnd) {
  FrameTable table(8);
  const std::size_t last = table.residency_index_capacity() - 1;
  // Six pages homed on the last slot fill it and wrap into slots 0..4; a
  // page homed on slot 1 then probes past them.
  std::vector<PageId> pages = CollidingPages(table, last, 6);
  pages.push_back(CollidingPages(table, 1, 1).front());
  std::vector<FrameId> frames;
  for (PageId page : pages) {
    frames.push_back(*table.TakeFreeFrame());
    table.Load(frames.back(), page, 0);
  }
  // Evicting from the head of the chain must pull every wrapped entry back,
  // including the slot-1 page, without losing any of them.
  for (std::size_t gone = 0; gone < pages.size(); ++gone) {
    table.Evict(frames[gone]);
    EXPECT_FALSE(table.FrameOf(pages[gone]).has_value()) << "evicted " << gone;
    for (std::size_t i = gone + 1; i < pages.size(); ++i) {
      EXPECT_EQ(table.FrameOf(pages[i]), frames[i]) << "after evicting " << gone << ": " << i;
    }
  }
}

// Random Load / Evict / RetireFrame / SaveState->LoadState sequences, checked
// against a std::unordered_map model after every operation, over a page pool
// that mixes small ids, packed segment ids above 2^32, and two clusters of
// ids colliding in the hash's top bits (one homed on the last slot, so its
// probe chain wraps past the array's end).
TEST(FrameTableIndexTest, MatchesMapModelUnderRandomOperations) {
  constexpr std::size_t kFrames = 12;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FrameTable table(kFrames);
    std::vector<PageId> pool;
    for (std::uint64_t p = 0; p < 24; ++p) {
      pool.push_back(PageId{p});
    }
    for (std::uint64_t segment = 1; segment <= 3; ++segment) {
      for (std::uint64_t p = 0; p < 4; ++p) {
        pool.push_back(PageId{(segment << 32) | p});
      }
    }
    const std::size_t capacity = table.residency_index_capacity();
    for (PageId page : CollidingPages(table, capacity - 1, 9)) {
      pool.push_back(page);
    }
    for (PageId page : CollidingPages(table, capacity / 2, 6)) {
      pool.push_back(page);
    }

    std::unordered_map<std::uint64_t, FrameId> model;
    Cycles now = 0;
    const auto check = [&](std::size_t step) {
      ASSERT_EQ(table.occupied_count(), model.size()) << "step " << step;
      for (PageId page : pool) {
        const auto it = model.find(page.value);
        const std::optional<FrameId> want =
            it == model.end() ? std::nullopt : std::optional<FrameId>(it->second);
        ASSERT_EQ(table.FrameOf(page), want) << "step " << step << " page " << page.value;
        if (want.has_value()) {
          ASSERT_EQ(table.info(*want).page, page);
        }
      }
    };
    for (std::size_t step = 0; step < 4000; ++step) {
      ++now;
      const std::uint64_t op = rng.Below(100);
      if (op < 50) {
        const PageId page = pool[rng.Below(pool.size())];
        if (model.contains(page.value)) {
          continue;
        }
        const std::optional<FrameId> frame = table.TakeFreeFrame();
        if (!frame.has_value()) {
          continue;
        }
        table.Load(*frame, page, now);
        model.emplace(page.value, *frame);
      } else if (op < 93) {
        if (model.empty()) {
          continue;
        }
        auto it = model.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.Below(model.size())));
        table.Evict(it->second);
        model.erase(it);
      } else if (op < 95) {
        const FrameId frame{rng.Below(kFrames)};
        const FrameInfo& info = table.info(frame);
        if (info.occupied || info.retired || table.usable_frame_count() <= kFrames / 2) {
          continue;
        }
        table.RetireFrame(frame);
      } else {
        SnapshotWriter w;
        table.SaveState(&w);
        const std::string payload = w.TakePayload();
        SnapshotReader r = SnapshotReader::ForPayload(payload);
        FrameTable restored(kFrames);
        restored.LoadState(&r);
        ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
        table = std::move(restored);
      }
      check(step);
    }
  }
}

// Frame f's page field in a SaveState payload: the frame count, then per
// frame three flags, the page, two sensors and three times.
constexpr std::size_t kFrameRecordBytes = 3 + 8 + 2 + 3 * 8;
std::size_t PageOffset(std::size_t frame) { return 8 + frame * kFrameRecordBytes + 3; }

TEST(FrameTableIndexTest, PageInTwoFramesRestoresAsBadValue) {
  FrameTable table(4);
  for (std::uint64_t p : {5u, 6u, 7u}) {
    table.Load(*table.TakeFreeFrame(), PageId{p}, p);
  }
  SnapshotWriter w;
  table.SaveState(&w);
  std::string payload = w.TakePayload();
  // Frame 2 now claims frame 0's page.
  payload.replace(PageOffset(2), 8, payload.substr(PageOffset(0), 8));

  FrameTable restored(4);
  restored.Load(*restored.TakeFreeFrame(), PageId{9}, 0);
  SnapshotReader r = SnapshotReader::ForPayload(payload);
  restored.LoadState(&r);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue);
  EXPECT_NE(r.error().Describe().find("two frames"), std::string::npos)
      << r.error().Describe();
  // Nothing was committed: the table still holds only its own page.
  EXPECT_EQ(restored.occupied_count(), 1u);
  EXPECT_EQ(restored.FrameOf(PageId{9}), FrameId{0});
  EXPECT_FALSE(restored.FrameOf(PageId{5}).has_value());
}

TEST(FrameTableDeathTest, DoubleLoadAborts) {
  FrameTable table(1);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  EXPECT_DEATH(table.Load(frame, PageId{2}, 1), "occupied");
}

TEST(FrameTableDeathTest, LoadingAResidentPageAgainAborts) {
  FrameTable table(2);
  table.Load(*table.TakeFreeFrame(), PageId{1}, 0);
  EXPECT_DEATH(table.Load(*table.TakeFreeFrame(), PageId{1}, 1), "another frame");
}

TEST(FrameTableDeathTest, EvictingPinnedFrameAborts) {
  FrameTable table(1);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  table.Pin(frame);
  EXPECT_DEATH(table.Evict(frame), "pinned");
}

TEST(FrameTableDeathTest, TouchingEmptyFrameAborts) {
  FrameTable table(1);
  EXPECT_DEATH(table.Touch(FrameId{0}, 0, false, 1), "empty");
}

// Double-vacating a frame must remain a hard abort: a second Evict means the
// caller's residency bookkeeping has already diverged from the table's.
TEST(FrameTableDeathTest, DoubleEvictAborts) {
  FrameTable table(2);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  table.Evict(frame);
  EXPECT_DEATH(table.Evict(frame), "empty");
}

TEST(FrameTableDeathTest, RetiringOccupiedFrameAborts) {
  FrameTable table(2);
  const FrameId frame = *table.TakeFreeFrame();
  table.Load(frame, PageId{1}, 0);
  EXPECT_DEATH(table.RetireFrame(frame), "occupied");
}

TEST(FrameTableDeathTest, RetiringFrameTwiceAborts) {
  FrameTable table(2);
  table.RetireFrame(FrameId{0});
  EXPECT_DEATH(table.RetireFrame(FrameId{0}), "twice");
}

TEST(FrameTableDeathTest, ReturningRetiredFrameAborts) {
  FrameTable table(2);
  const FrameId frame = *table.TakeFreeFrame();
  table.RetireFrame(frame);
  EXPECT_DEATH(table.ReturnFreeFrame(frame), "retired");
}

TEST(FrameTableDeathTest, LoadingIntoRetiredFrameAborts) {
  FrameTable table(2);
  table.RetireFrame(FrameId{0});
  EXPECT_DEATH(table.Load(FrameId{0}, PageId{1}, 0), "retired");
}

}  // namespace
}  // namespace dsa
