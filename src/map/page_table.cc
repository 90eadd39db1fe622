#include "src/map/page_table.h"

#include <algorithm>
#include <bit>
#include <string>

#include "src/core/assert.h"

namespace dsa {

const PageTableEntry& PageTable::entry(PageId page) const {
  DSA_ASSERT(page.value < entries_.size(), "page out of table range");
  return entries_[page.value];
}

void PageTable::Map(PageId page, FrameId frame) {
  DSA_ASSERT(page.value < entries_.size(), "page out of table range");
  present_count_ += entries_[page.value].present ? 0 : 1;
  entries_[page.value] = PageTableEntry{true, frame};
  ++chunk_versions_[page.value / kChunkEntries];
}

void PageTable::Unmap(PageId page) {
  DSA_ASSERT(page.value < entries_.size(), "page out of table range");
  present_count_ -= entries_[page.value].present ? 1 : 0;
  entries_[page.value] = PageTableEntry{};
  ++chunk_versions_[page.value / kChunkEntries];
}

PageTableMapper::PageTableMapper(WordCount page_words, std::size_t pages,
                                 std::size_t tlb_entries, MappingCostModel costs)
    : page_words_(page_words), table_(pages), tlb_(tlb_entries), costs_(costs) {
  DSA_ASSERT(page_words_ > 0 && std::has_single_bit(page_words_),
             "page size must be a power of two");
  offset_bits_ = std::bit_width(page_words_) - 1;
}

TranslationResult PageTableMapper::Translate(Name name, AccessKind kind, Cycles now) {
  (void)kind;
  const PageId page = PageOf(name);
  const WordCount offset = OffsetOf(name);
  Cycles cost = 0;

  if (page.value >= table_.page_count()) {
    Fault fault{FaultKind::kInvalidName, name, {}, page, cost};
    CountFault(cost);
    return MakeUnexpected(fault);
  }

  // Associative probe first, when the facility exists.
  if (tlb_.capacity() > 0) {
    cost += costs_.associative_search;
    if (auto frame = tlb_.Lookup(page.value, now)) {
      CountTranslation(cost);
      return Translation{PhysicalAddress{*frame * page_words_ + offset}, cost, true};
    }
  }

  // Slow path: read the page table entry from core.
  cost += costs_.core_reference;
  const PageTableEntry& entry = table_.entry(page);
  if (!entry.present) {
    Fault fault{FaultKind::kPageNotPresent, name, {}, page, cost};
    CountFault(cost);
    return MakeUnexpected(fault);
  }
  if (tlb_.capacity() > 0) {
    tlb_.Insert(page.value, entry.frame.value, now);
  }
  CountTranslation(cost);
  return Translation{PhysicalAddress{entry.frame.value * page_words_ + offset}, cost, false};
}

void PageTableMapper::Map(PageId page, FrameId frame) { table_.Map(page, frame); }

void PageTableMapper::Unmap(PageId page) {
  table_.Unmap(page);
  tlb_.Invalidate(page.value);
}

namespace {

// Writes one chunk body (see PageTable::SaveChunk) for `size` entries.
void EncodeChunk(const PageTableEntry* entries, std::size_t size, SnapshotWriter* w) {
  std::uint64_t present = 0;
  for (std::size_t i = 0; i < size; ++i) {
    present += entries[i].present ? 1 : 0;
  }
  w->U64(present);
  for (std::size_t i = 0; i < size; ++i) {
    if (entries[i].present) {
      w->U32(static_cast<std::uint32_t>(i));
      w->U64(entries[i].frame.value);
    }
  }
}

// Reads one chunk body into `out`, the chunk's `size` entries, all absent
// on entry.  Returns the number of present entries decoded.
std::size_t DecodeChunk(SnapshotReader* r, std::size_t size, PageTableEntry* out) {
  const std::uint64_t present = r->Count(size);
  std::uint64_t next = 0;  // the least offset the next entry may take
  for (std::uint64_t i = 0; i < present && r->ok(); ++i) {
    const std::uint32_t offset = r->U32();
    const FrameId frame{r->U64()};
    if (!r->ok()) {
      break;
    }
    if (offset >= size) {
      r->Fail(SnapshotErrorKind::kBadValue, "page-table chunk offset out of range");
    } else if (offset < next) {
      r->Fail(SnapshotErrorKind::kBadValue, "page-table chunk offsets not strictly increasing");
    } else {
      out[offset] = PageTableEntry{true, frame};
      next = std::uint64_t{offset} + 1;
    }
  }
  return static_cast<std::size_t>(present);
}

std::string ChunkSectionName(std::size_t chunk) {
  return "map.pt." + std::to_string(chunk);
}

}  // namespace

void PageTable::SaveChunk(std::size_t chunk, SnapshotWriter* w) const {
  DSA_ASSERT(chunk < ChunkCount(), "chunk out of range");
  const std::size_t begin = chunk * kChunkEntries;
  const std::size_t end = std::min(begin + kChunkEntries, entries_.size());
  EncodeChunk(entries_.data() + begin, end - begin, w);
}

void PageTable::LoadChunk(std::size_t chunk, SnapshotReader* r) {
  DSA_ASSERT(chunk < ChunkCount(), "chunk out of range");
  const std::size_t begin = chunk * kChunkEntries;
  const std::size_t end = std::min(begin + kChunkEntries, entries_.size());
  std::vector<PageTableEntry> entries(end - begin);
  const std::size_t present = DecodeChunk(r, entries.size(), entries.data());
  if (!r->ok()) {
    return;
  }
  for (std::size_t i = begin; i < end; ++i) {
    present_count_ -= entries_[i].present ? 1 : 0;
  }
  present_count_ += present;
  std::copy(entries.begin(), entries.end(), entries_.begin() + begin);
  ++chunk_versions_[chunk];
}

void PageTableMapper::SaveSections(SectionedSnapshotWriter* w) const {
  {
    SnapshotWriter* head = w->Begin("map.head");
    head->U64(table_.page_count());
    tlb_.SaveState(head);
    SaveAccounting(head);
  }
  if (chunk_cache_.size() != table_.ChunkCount()) {
    chunk_cache_.assign(table_.ChunkCount(), ChunkCache{});
  }
  for (std::size_t k = 0; k < table_.ChunkCount(); ++k) {
    ChunkCache& cache = chunk_cache_[k];
    if (cache.version != table_.chunk_version(k)) {
      SnapshotWriter cw;
      table_.SaveChunk(k, &cw);
      cache.body = cw.TakePayload();
      cache.version = table_.chunk_version(k);
    }
    w->Section(ChunkSectionName(k), cache.body);
  }
}

void PageTableMapper::LoadSections(SectionSource* src) {
  {
    SnapshotReader r = src->Open("map.head");
    const std::uint64_t pages = r.U64();
    if (r.ok() && pages != table_.page_count()) {
      r.Fail(SnapshotErrorKind::kBadValue, "page table size mismatch");
    }
    tlb_.LoadState(&r);
    LoadAccounting(&r);
    src->Close(&r, "map.head");
  }
  for (std::size_t k = 0; k < table_.ChunkCount() && src->ok(); ++k) {
    const std::string name = ChunkSectionName(k);
    SnapshotReader r = src->Open(name);
    table_.LoadChunk(k, &r);
    src->Close(&r, name);
  }
}

void AtlasPageRegisterMapper::SaveState(SnapshotWriter* w) const {
  w->U64(registers_.size());
  for (const std::optional<PageId>& reg : registers_) {
    w->Bool(reg.has_value());
    w->U64(reg.has_value() ? reg->value : 0);
  }
  SaveAccounting(w);
}

void AtlasPageRegisterMapper::LoadState(SnapshotReader* r) {
  const std::uint64_t count = r->U64();
  if (r->ok() && count != registers_.size()) {
    r->Fail(SnapshotErrorKind::kBadValue, "atlas register count mismatch");
  }
  std::vector<std::optional<PageId>> registers(registers_.size());
  std::unordered_map<std::uint64_t, std::size_t> frame_of_page;
  for (std::size_t f = 0; f < registers.size() && r->ok(); ++f) {
    const bool loaded = r->Bool();
    const std::uint64_t page = r->U64();
    if (loaded) {
      registers[f] = PageId{page};
      if (!frame_of_page.emplace(page, f).second) {
        r->Fail(SnapshotErrorKind::kBadValue, "one page in two atlas registers");
        return;
      }
    }
  }
  LoadAccounting(r);
  if (!r->ok()) {
    return;
  }
  registers_ = std::move(registers);
  frame_of_page_ = std::move(frame_of_page);
}

AtlasPageRegisterMapper::AtlasPageRegisterMapper(WordCount page_words, std::size_t frames,
                                                 MappingCostModel costs)
    : page_words_(page_words), registers_(frames), costs_(costs) {
  DSA_ASSERT(page_words_ > 0 && std::has_single_bit(page_words_),
             "page size must be a power of two");
  DSA_ASSERT(frames > 0, "need at least one page frame");
  offset_bits_ = std::bit_width(page_words_) - 1;
}

TranslationResult AtlasPageRegisterMapper::Translate(Name name, AccessKind kind, Cycles now) {
  (void)kind;
  (void)now;
  const PageId page = PageOf(name);
  const WordCount offset = name.value & (page_words_ - 1);
  // The associative search happens in parallel across all registers: one
  // fixed hardware cost whether it hits or traps.  The reverse index makes
  // simulating that parallel search O(1) instead of a sweep of every
  // register.
  const Cycles cost = costs_.associative_search;
  const auto it = frame_of_page_.find(page.value);
  if (it != frame_of_page_.end()) {
    CountTranslation(cost);
    return Translation{PhysicalAddress{it->second * page_words_ + offset}, cost, true};
  }
  Fault fault{FaultKind::kPageNotPresent, name, {}, page, cost};
  CountFault(cost);
  return MakeUnexpected(fault);
}

void AtlasPageRegisterMapper::LoadFrame(FrameId frame, PageId page) {
  DSA_ASSERT(frame.value < registers_.size(), "frame out of range");
  if (registers_[frame.value].has_value()) {
    frame_of_page_.erase(registers_[frame.value]->value);
  }
  registers_[frame.value] = page;
  frame_of_page_[page.value] = frame.value;
}

void AtlasPageRegisterMapper::ClearFrame(FrameId frame) {
  DSA_ASSERT(frame.value < registers_.size(), "frame out of range");
  if (registers_[frame.value].has_value()) {
    frame_of_page_.erase(registers_[frame.value]->value);
  }
  registers_[frame.value].reset();
}

}  // namespace dsa
