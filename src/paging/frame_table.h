// The frame table: occupancy and the hardware usage sensors for every page
// frame of working storage.
//
// "Typical examples of special hardware for information gathering are
// sensors which record the fact of usage or of modifications of the
// information constituting a page ...  Such sensors can then be interrogated
// in order to guide the actions of a replacement strategy."  The `use` and
// `modified` bits here are those sensors; replacement policies may read and
// clear them.
//
// Besides the sensors, the table maintains two intrusive orderings over the
// occupied frames — a load-order (FIFO) list and a recency (LRU) list — so
// that the corresponding replacement policies choose victims in O(1) instead
// of scanning every frame.  Both lists are kept coherent by Load / Touch /
// Evict; ties that a full scan would break by frame index cannot arise as
// long as the simulated clock is monotone per reference (which the pager
// guarantees), so list order and scan order agree.
//
// The table is also the one owner of page -> frame residency.  A
// fixed-capacity open-addressed index over the occupied frames answers
// FrameOf without a node-based map: the index is sized once at construction,
// never rehashes and never allocates, and Load / Evict / LoadState keep it
// exact.  It is hashed rather than page-indexed because page ids are opaque
// 64-bit values (the segmented VM packs segment<<32 | page into one), so its
// size follows the frame count, not the name space.

#ifndef SRC_PAGING_FRAME_TABLE_H_
#define SRC_PAGING_FRAME_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/types.h"
#include "src/obs/event.h"

namespace dsa {

class EventTracer;
class SnapshotReader;
class SnapshotWriter;

struct FrameInfo {
  bool occupied{false};
  bool pinned{false};      // "kept permanently in working storage" (MULTICS directive)
  bool retired{false};     // parity failure took the frame out of service
  PageId page;             // meaningful when occupied
  bool use{false};         // set on every access; cleared by policies
  bool modified{false};    // set on write accesses; cleared on write-back
  Cycles load_time{0};     // when the page arrived (FIFO's ordering)
  Cycles last_use{0};      // refreshed on every access (LRU's ordering)
  Cycles previous_idle{0}; // length of the last completed inactivity period (ATLAS)
};

class FrameTable {
 public:
  explicit FrameTable(std::size_t frames);

  // Attaches the shared tracer; the table emits frame-load / frame-evict /
  // frame-retire events (stamped by the tracer's watermark clock, since the
  // table itself never sees the simulated time of Evict and RetireFrame).
  void SetTracer(EventTracer* tracer) { tracer_ = tracer; }

  std::size_t frame_count() const { return frames_.size(); }
  std::size_t occupied_count() const { return occupied_; }
  std::size_t pinned_count() const { return pinned_; }
  // Frames permanently out of service, and those still usable.  Retired
  // frames never appear in the free pool, the intrusive lists, or any
  // eviction candidate set, so every replacement engine (including the
  // retained scan references) skips them by construction.
  std::size_t retired_count() const { return retired_; }
  std::size_t usable_frame_count() const { return frames_.size() - retired_; }
  // Frames available to TakeFreeFrame (taken-but-not-yet-loaded frames count
  // as neither free nor occupied).
  std::size_t free_count() const { return free_.size(); }

  const FrameInfo& info(FrameId frame) const;

  // The frame holding `page`, or nullopt when the page is not resident.
  std::optional<FrameId> FrameOf(PageId page) const {
    const std::uint32_t frame = index_.at(index_.Probe(frames_, page.value));
    if (frame == kVacantSlot) {
      return std::nullopt;
    }
    return FrameId{frame};
  }

  // The residency index's slot count: the power of two at or above twice
  // the frame count, so it is never more than half full.  A page's home
  // slot is the top log2(capacity) bits of page * kIndexMultiplier.
  std::size_t residency_index_capacity() const { return index_.capacity(); }
  static constexpr std::uint64_t kIndexMultiplier = 0x9e3779b97f4a7c15ULL;

  // Pops a free frame, lowest index first.
  std::optional<FrameId> TakeFreeFrame();

  // Installs `page` in `frame` (which must be free; `page` must not be
  // resident elsewhere).
  void Load(FrameId frame, PageId page, Cycles now);

  // Vacates `frame` (which must be occupied and unpinned).
  void Evict(FrameId frame);

  // Returns a frame obtained from TakeFreeFrame but never loaded (a fetch
  // into it failed); it becomes the next frame TakeFreeFrame hands out.
  void ReturnFreeFrame(FrameId frame);

  // Takes `frame` permanently out of service (a core parity failure).  The
  // frame must be vacant: callers evict its page first.  Graceful capacity
  // degradation, not an assert — the table simply runs with one fewer
  // frame.
  void RetireFrame(FrameId frame);

  // Records an access: sets the use sensor, refreshes recency, and closes
  // the current inactivity period for the ATLAS learning policy.
  // `idle_threshold` is the gap, in cycles, beyond which the quiet spell
  // counts as a completed period of inactivity.
  void Touch(FrameId frame, Cycles now, bool write, Cycles idle_threshold);

  void Pin(FrameId frame);
  void Unpin(FrameId frame);

  // Clears the use sensor (clock hand sweep / periodic harvest).
  void ClearUse(FrameId frame);
  // Clears the modified sensor (page written back).
  void ClearModified(FrameId frame);

  // Occupied, unpinned frames — the candidate set for any replacement.
  std::vector<FrameId> EvictionCandidates() const;

  // Checkpoint serialization: every sensor and both intrusive list orders
  // (FIFO and LRU sequences head to tail), so a restored table selects the
  // identical victim sequence.  LoadState re-derives the occupancy counters
  // and rebuilds the links from the serialized orders, reporting structural
  // violations (a listed frame that is not occupied, a count mismatch)
  // through the reader — never an abort.  The table must be constructed
  // with the same frame count the snapshot was taken at.
  void SaveState(SnapshotWriter* w) const;
  void LoadState(SnapshotReader* r);

  // True iff EvictionCandidates() would be non-empty, in O(1).
  bool HasEvictionCandidates() const { return occupied_ > pinned_; }

  // O(1) victim queries over the intrusive lists (plus a skip per pinned
  // frame at the head).  Returns the occupied, unpinned frame with the
  // earliest load time / least recent use, or nullopt when none exists.
  std::optional<FrameId> OldestLoadedCandidate() const;
  std::optional<FrameId> LeastRecentlyUsedCandidate() const;

 private:
  // Intrusive doubly-linked list over frame indices with a sentinel node at
  // index frame_count(); head.next is the eviction end (oldest), tail is the
  // most recent.
  struct Link {
    std::size_t prev{0};
    std::size_t next{0};
  };

  static constexpr std::uint32_t kVacantSlot = ~std::uint32_t{0};

  // Page -> frame index over the occupied frames: linear probing from a
  // multiplicative hash, backward-shift deletion (no tombstones).  A slot
  // holds a frame index, and its key is the page that frame holds, so the
  // lookup's second read is the FrameInfo a hit touches next anyway.  The
  // frames vector is passed in so LoadState can build a scratch index over
  // scratch frames before committing either.
  class ResidencyIndex {
   public:
    explicit ResidencyIndex(std::size_t frames);

    std::size_t capacity() const { return slots_.size(); }
    std::uint32_t at(std::size_t slot) const { return slots_[slot]; }

    // The slot `page`'s probe chain starts from.
    std::size_t Home(std::uint64_t page) const { return (page * kIndexMultiplier) >> shift_; }

    // The slot holding `page`'s frame, or the vacant slot ending its chain.
    std::size_t Probe(const std::vector<FrameInfo>& frames, std::uint64_t page) const {
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t slot = Home(page);; slot = (slot + 1) & mask) {
        const std::uint32_t frame = slots_[slot];
        if (frame == kVacantSlot || frames[frame].page.value == page) {
          return slot;
        }
      }
    }

    // Indexes `frame` under the page it holds; false (and no change) when
    // that page is already indexed.
    bool Insert(const std::vector<FrameInfo>& frames, std::size_t frame);
    // Removes the indexed `page`, which must be present.  Reads the pages of
    // the frames it shifts back, so `frames` must still name them.
    void Erase(const std::vector<FrameInfo>& frames, std::uint64_t page);

   private:
    std::vector<std::uint32_t> slots_;
    int shift_;  // 64 - log2(capacity)
  };

  FrameInfo& MutableInfo(FrameId frame);

  void ListRemove(std::vector<Link>& list, std::size_t node);
  void ListPushBack(std::vector<Link>& list, std::size_t node);
  std::optional<FrameId> FirstUnpinned(const std::vector<Link>& list) const;

  EventTracer* tracer_{nullptr};
  std::vector<FrameInfo> frames_;
  std::vector<FrameId> free_;
  std::size_t occupied_{0};
  std::size_t pinned_{0};
  std::size_t retired_{0};
  std::vector<Link> fifo_;  // load order; size frame_count()+1, last is sentinel
  std::vector<Link> lru_;   // recency order; same layout
  ResidencyIndex index_;
};

}  // namespace dsa

#endif  // SRC_PAGING_FRAME_TABLE_H_
