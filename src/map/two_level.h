// Figure 4: the two-level mapping scheme.
//
// "Name contiguity within segments is provided by a mapping mechanism using
// two levels of indirect addressing, through a segment table and a set of
// page tables ...  A small associative memory is used to contain the
// locations of recently accessed pages in order to reduce the overhead
// caused by the mapping process."  (MULTICS, IBM 360/67.)

#ifndef SRC_MAP_TWO_LEVEL_H_
#define SRC_MAP_TWO_LEVEL_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/map/associative_memory.h"
#include "src/map/cost_model.h"
#include "src/map/mapper.h"
#include "src/map/page_table.h"
#include "src/naming/segmented_name.h"

namespace dsa {

class SegmentPageMapper : public AddressMapper {
 public:
  // The linear view of names splits into `segment_bits` + `offset_bits`;
  // segments are paged with `page_words`-word pages; `tlb_entries` sizes the
  // associative memory (0 disables it).
  // `dedicated_execute_register` models the 360/67's "ninth associative
  // register ... used to speed up the mapping of the instruction counter":
  // a one-entry cache consulted for execute accesses only.
  SegmentPageMapper(int segment_bits, int offset_bits, WordCount page_words,
                    std::size_t tlb_entries, MappingCostModel costs = {},
                    bool dedicated_execute_register = false);

  // --- segment lifecycle ---------------------------------------------------
  // Declares a segment of `extent` words (creates its page table).
  void DefineSegment(SegmentId segment, WordCount extent);
  // Dynamic segments: "the extent of each segment can be varied during
  // execution by special program directives."
  void ResizeSegment(SegmentId segment, WordCount extent);
  void DestroySegment(SegmentId segment);
  bool SegmentIsDefined(SegmentId segment) const;
  WordCount SegmentExtent(SegmentId segment) const;

  // --- page residency ------------------------------------------------------
  void MapPage(SegmentId segment, PageId page, FrameId frame);
  void UnmapPage(SegmentId segment, PageId page);

  // --- translation ---------------------------------------------------------
  TranslationResult Translate(Name name, AccessKind kind, Cycles now) override;
  TranslationResult TranslateSegmented(SegmentedName name, AccessKind kind, Cycles now);

  std::string name() const override { return "segment+page tables"; }

  WordCount page_words() const { return page_words_; }
  std::uint64_t max_segments() const { return std::uint64_t{1} << segment_bits_; }
  WordCount max_segment_extent() const { return WordCount{1} << offset_bits_; }
  const AssociativeMemory& tlb() const { return tlb_; }
  std::uint64_t execute_register_hits() const { return execute_register_hits_; }

  // Core occupied by all mapping tables (segment table + live page tables).
  WordCount TableWords() const;

  PageId PageOf(WordCount offset) const { return PageId{offset / page_words_}; }

 private:
  struct SegmentTableEntry {
    bool valid{false};
    WordCount extent{0};
    std::unique_ptr<PageTable> pages;
  };

  SegmentTableEntry& EntryFor(SegmentId segment);
  const SegmentTableEntry& EntryFor(SegmentId segment) const;
  static std::uint64_t TlbKey(SegmentId segment, PageId page) {
    return (segment.value << 32) | page.value;
  }

  int segment_bits_;
  int offset_bits_;
  WordCount page_words_;
  std::vector<SegmentTableEntry> table_;
  AssociativeMemory tlb_;
  MappingCostModel costs_;
  bool dedicated_execute_register_;
  // (key, frame) of the last execute-mapped page; key 0 is never valid
  // because a real key always has nonzero tag bits once loaded.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> execute_register_;
  std::uint64_t execute_register_hits_{0};
};

}  // namespace dsa

#endif  // SRC_MAP_TWO_LEVEL_H_
