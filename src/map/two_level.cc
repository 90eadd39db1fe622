#include "src/map/two_level.h"

#include <bit>

#include "src/core/assert.h"

namespace dsa {

SegmentPageMapper::SegmentPageMapper(int segment_bits, int offset_bits, WordCount page_words,
                                     std::size_t tlb_entries, MappingCostModel costs,
                                     bool dedicated_execute_register)
    : segment_bits_(segment_bits),
      offset_bits_(offset_bits),
      page_words_(page_words),
      table_(std::size_t{1} << segment_bits),
      tlb_(tlb_entries),
      costs_(costs),
      dedicated_execute_register_(dedicated_execute_register) {
  DSA_ASSERT(segment_bits_ > 0 && segment_bits_ <= 30, "segment bits out of range");
  DSA_ASSERT(offset_bits_ > 0 && offset_bits_ <= 32, "offset bits out of range");
  DSA_ASSERT(page_words_ > 0 && std::has_single_bit(page_words_),
             "page size must be a power of two");
  DSA_ASSERT(page_words_ <= max_segment_extent(), "page exceeds maximum segment extent");
}

SegmentPageMapper::SegmentTableEntry& SegmentPageMapper::EntryFor(SegmentId segment) {
  DSA_ASSERT(segment.value < table_.size(), "segment beyond the table");
  return table_[segment.value];
}

const SegmentPageMapper::SegmentTableEntry& SegmentPageMapper::EntryFor(
    SegmentId segment) const {
  DSA_ASSERT(segment.value < table_.size(), "segment beyond the table");
  return table_[segment.value];
}

void SegmentPageMapper::DefineSegment(SegmentId segment, WordCount extent) {
  DSA_ASSERT(extent <= max_segment_extent(), "segment extent exceeds the representation");
  SegmentTableEntry& entry = EntryFor(segment);
  DSA_ASSERT(!entry.valid, "segment already defined");
  entry.valid = true;
  entry.extent = extent;
  const std::size_t pages = static_cast<std::size_t>((extent + page_words_ - 1) / page_words_);
  entry.pages = std::make_unique<PageTable>(pages);
}

void SegmentPageMapper::ResizeSegment(SegmentId segment, WordCount extent) {
  DSA_ASSERT(extent <= max_segment_extent(), "segment extent exceeds the representation");
  SegmentTableEntry& entry = EntryFor(segment);
  DSA_ASSERT(entry.valid, "resize of undefined segment");
  const std::size_t pages = static_cast<std::size_t>((extent + page_words_ - 1) / page_words_);
  // Rebuild the page table preserving mappings that survive the resize.
  auto grown = std::make_unique<PageTable>(pages);
  const std::size_t keep = std::min(pages, entry.pages->page_count());
  for (std::size_t p = 0; p < keep; ++p) {
    const PageTableEntry& old_entry = entry.pages->entry(PageId{p});
    if (old_entry.present) {
      grown->Map(PageId{p}, old_entry.frame);
    }
  }
  // Shrinking invalidates TLB entries for truncated pages.
  for (std::size_t p = pages; p < entry.pages->page_count(); ++p) {
    tlb_.Invalidate(TlbKey(segment, PageId{p}));
  }
  entry.pages = std::move(grown);
  entry.extent = extent;
}

void SegmentPageMapper::DestroySegment(SegmentId segment) {
  SegmentTableEntry& entry = EntryFor(segment);
  DSA_ASSERT(entry.valid, "destroy of undefined segment");
  for (std::size_t p = 0; p < entry.pages->page_count(); ++p) {
    tlb_.Invalidate(TlbKey(segment, PageId{p}));
  }
  entry = SegmentTableEntry{};
}

bool SegmentPageMapper::SegmentIsDefined(SegmentId segment) const {
  return segment.value < table_.size() && table_[segment.value].valid;
}

WordCount SegmentPageMapper::SegmentExtent(SegmentId segment) const {
  const SegmentTableEntry& entry = EntryFor(segment);
  DSA_ASSERT(entry.valid, "extent of undefined segment");
  return entry.extent;
}

void SegmentPageMapper::MapPage(SegmentId segment, PageId page, FrameId frame) {
  SegmentTableEntry& entry = EntryFor(segment);
  DSA_ASSERT(entry.valid, "mapping a page of an undefined segment");
  entry.pages->Map(page, frame);
}

void SegmentPageMapper::UnmapPage(SegmentId segment, PageId page) {
  SegmentTableEntry& entry = EntryFor(segment);
  DSA_ASSERT(entry.valid, "unmapping a page of an undefined segment");
  entry.pages->Unmap(page);
  tlb_.Invalidate(TlbKey(segment, page));
  if (execute_register_.has_value() && execute_register_->first == TlbKey(segment, page)) {
    execute_register_.reset();
  }
}

TranslationResult SegmentPageMapper::Translate(Name name, AccessKind kind, Cycles now) {
  SegmentedName split;
  split.segment = SegmentId{name.value >> offset_bits_};
  split.offset = name.value & (max_segment_extent() - 1);
  if (split.segment.value >= table_.size()) {
    Fault fault{FaultKind::kInvalidName, name, split.segment, {}, 0};
    CountFault(0);
    return MakeUnexpected(fault);
  }
  return TranslateSegmented(split, kind, now);
}

TranslationResult SegmentPageMapper::TranslateSegmented(SegmentedName name, AccessKind kind,
                                                        Cycles now) {
  Cycles cost = 0;
  const Name linear{(name.segment.value << offset_bits_) | name.offset};

  if (name.segment.value >= table_.size()) {
    Fault fault{FaultKind::kInvalidSegment, linear, name.segment, {}, cost};
    CountFault(cost);
    return MakeUnexpected(fault);
  }
  const SegmentTableEntry& entry = table_[name.segment.value];
  const PageId page = PageOf(name.offset);
  const WordCount offset_in_page = name.offset & (page_words_ - 1);

  // The dedicated instruction-counter register is probed first for
  // instruction fetches (360/67's ninth register).
  if (dedicated_execute_register_ && kind == AccessKind::kExecute &&
      execute_register_.has_value() && execute_register_->first == TlbKey(name.segment, page)) {
    cost += costs_.associative_search;
    if (!entry.valid || name.offset >= entry.extent) {
      Fault fault{FaultKind::kBoundsViolation, linear, name.segment, page, cost};
      CountFault(cost);
      return MakeUnexpected(fault);
    }
    ++execute_register_hits_;
    CountTranslation(cost);
    return Translation{
        PhysicalAddress{execute_register_->second * page_words_ + offset_in_page}, cost, true};
  }

  // The associative memory short-circuits *both* table references.
  if (tlb_.capacity() > 0) {
    cost += costs_.associative_search;
    if (auto frame = tlb_.Lookup(TlbKey(name.segment, page), now)) {
      // Bound check still applies (the extent lives with the hardware path).
      if (!entry.valid || name.offset >= entry.extent) {
        Fault fault{FaultKind::kBoundsViolation, linear, name.segment, page, cost};
        CountFault(cost);
        return MakeUnexpected(fault);
      }
      CountTranslation(cost);
      return Translation{PhysicalAddress{*frame * page_words_ + offset_in_page}, cost, true};
    }
  }

  // Segment table reference.
  cost += costs_.core_reference;
  if (!entry.valid) {
    Fault fault{FaultKind::kInvalidSegment, linear, name.segment, page, cost};
    CountFault(cost);
    return MakeUnexpected(fault);
  }
  if (name.offset >= entry.extent) {
    // "Each array used by a program can be specified to be a separate
    // segment in order that attempted violations of the array bounds can be
    // intercepted."
    Fault fault{FaultKind::kBoundsViolation, linear, name.segment, page, cost};
    CountFault(cost);
    return MakeUnexpected(fault);
  }

  // Page table reference.
  cost += costs_.core_reference;
  const PageTableEntry& page_entry = entry.pages->entry(page);
  if (!page_entry.present) {
    Fault fault{FaultKind::kPageNotPresent, linear, name.segment, page, cost};
    CountFault(cost);
    return MakeUnexpected(fault);
  }
  if (tlb_.capacity() > 0) {
    tlb_.Insert(TlbKey(name.segment, page), page_entry.frame.value, now);
  }
  if (dedicated_execute_register_ && kind == AccessKind::kExecute) {
    execute_register_ = {TlbKey(name.segment, page), page_entry.frame.value};
  }
  CountTranslation(cost);
  return Translation{PhysicalAddress{page_entry.frame.value * page_words_ + offset_in_page},
                     cost, false};
}

WordCount SegmentPageMapper::TableWords() const {
  WordCount words = table_.size();  // one word per segment table entry
  for (const SegmentTableEntry& entry : table_) {
    if (entry.valid) {
      words += entry.pages->TableWords();
    }
  }
  return words;
}

}  // namespace dsa
