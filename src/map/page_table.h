// Single-level page mapping: a page table in core, optionally fronted by a
// small associative memory (the Fig. 4 fast path without the segment level),
// plus the ATLAS page-address-register scheme where the associative memory
// *is* the map.

#ifndef SRC_MAP_PAGE_TABLE_H_
#define SRC_MAP_PAGE_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/snapshot.h"
#include "src/core/types.h"
#include "src/map/associative_memory.h"
#include "src/map/cost_model.h"
#include "src/map/mapper.h"

namespace dsa {

struct PageTableEntry {
  bool present{false};
  FrameId frame;
};

// The in-core table of page locations.  Use/modified sensors live with the
// frame table (src/paging/frame_table.h), matching the paper's description
// of per-page-frame recording hardware.
class PageTable {
 public:
  explicit PageTable(std::size_t pages) : entries_(pages), chunk_versions_(ChunkCount(), 1) {}

  std::size_t page_count() const { return entries_.size(); }

  const PageTableEntry& entry(PageId page) const;
  void Map(PageId page, FrameId frame);
  void Unmap(PageId page);

  // Words of core the table occupies (one word per entry).
  WordCount TableWords() const { return entries_.size(); }

  // Entries currently marked present.
  std::size_t present_count() const { return present_count_; }

  // --- chunked view, the delta-checkpoint dirty-tracking granule ---
  // The table is split into fixed chunks of kChunkEntries entries; every
  // Map/Unmap bumps the touched chunk's version, so a serialization cache
  // keyed on versions knows exactly which chunk bodies are stale: a commit
  // re-encodes only the chunks the pager touched.
  static constexpr std::size_t kChunkEntries = 4096;

  std::size_t ChunkCount() const {
    return (entries_.size() + kChunkEntries - 1) / kChunkEntries;
  }
  std::uint64_t chunk_version(std::size_t chunk) const { return chunk_versions_[chunk]; }

  // Serializes/loads one chunk sparsely: a u64 count of present entries,
  // then per present entry a u32 in-chunk offset and a u64 frame, offsets
  // strictly increasing.  Absent entries cost nothing, so a chunk body
  // scales with the pages mapped, not with the name space.  LoadChunk
  // rejects a count above the chunk size, an offset out of range, and a
  // repeated or backward offset as kBadValue, leaving the chunk untouched.
  void SaveChunk(std::size_t chunk, SnapshotWriter* w) const;
  void LoadChunk(std::size_t chunk, SnapshotReader* r);

 private:
  std::vector<PageTableEntry> entries_;
  std::vector<std::uint64_t> chunk_versions_;
  std::size_t present_count_{0};
};

// Name -> (page, offset) -> frame via the page table, with an optional TLB.
class PageTableMapper : public AddressMapper {
 public:
  // `page_words` must be a power of two.  `tlb_entries == 0` disables the
  // associative memory (every translation pays the table reference).
  PageTableMapper(WordCount page_words, std::size_t pages, std::size_t tlb_entries,
                  MappingCostModel costs = {});

  TranslationResult Translate(Name name, AccessKind kind, Cycles now) override;

  std::string name() const override { return "page-table"; }

  // Page-load/unload hooks for the pager.  Unmap also shoots down the TLB.
  void Map(PageId page, FrameId frame);
  void Unmap(PageId page);

  WordCount page_words() const { return page_words_; }
  const PageTable& table() const { return table_; }
  const AssociativeMemory& tlb() const { return tlb_; }

  PageId PageOf(Name name) const { return PageId{name.value >> offset_bits_}; }
  WordCount OffsetOf(Name name) const { return name.value & (page_words_ - 1); }

  // Checkpoint serialization: a "map.head" section (the page count, the
  // TLB, the accounting block) followed by one "map.pt.<k>" section per
  // page-table chunk.  Chunk bodies are served from a version-keyed cache,
  // so a chunk untouched since the previous seal costs a hash lookup
  // instead of a re-encode — and an unchanged body then collapses to a
  // 17-byte ref in the delta seal.
  void SaveSections(SectionedSnapshotWriter* w) const;
  void LoadSections(SectionSource* src);

 private:
  struct ChunkCache {
    std::uint64_t version{0};  // 0 never matches a live chunk version
    std::string body;
  };

  WordCount page_words_;
  int offset_bits_;
  PageTable table_;
  AssociativeMemory tlb_;
  MappingCostModel costs_;
  // Serialization cache for SaveSections; mutable because caching chunk
  // bodies does not change observable mapper state.
  mutable std::vector<ChunkCache> chunk_cache_;
};

// The Ferranti ATLAS scheme: one page-address register per page frame; the
// mapping is performed directly by an associative search over the registers.
// A miss *is* the not-in-core trap — there is no in-core table behind it.
class AtlasPageRegisterMapper : public AddressMapper {
 public:
  AtlasPageRegisterMapper(WordCount page_words, std::size_t frames, MappingCostModel costs = {});

  TranslationResult Translate(Name name, AccessKind kind, Cycles now) override;

  std::string name() const override { return "atlas-page-registers"; }

  void LoadFrame(FrameId frame, PageId page);
  void ClearFrame(FrameId frame);

  WordCount page_words() const { return page_words_; }
  std::size_t frame_count() const { return registers_.size(); }

  PageId PageOf(Name name) const { return PageId{name.value >> offset_bits_}; }

  // The page `frame`'s register holds, or nullopt when it is clear.
  const std::optional<PageId>& RegisterOf(FrameId frame) const {
    return registers_.at(frame.value);
  }

  // Checkpoint serialization: the registers plus accounting; the reverse
  // index is rebuilt, not stored.
  void SaveState(SnapshotWriter* w) const;
  void LoadState(SnapshotReader* r);

 private:
  WordCount page_words_;
  int offset_bits_;
  std::vector<std::optional<PageId>> registers_;
  // Reverse index (page -> frame) kept coherent with the registers.  The
  // modeled hardware searches every register in parallel at one fixed cost;
  // the index only makes the *simulation* of that search O(1).
  std::unordered_map<std::uint64_t, std::size_t> frame_of_page_;
  MappingCostModel costs_;
};

}  // namespace dsa

#endif  // SRC_MAP_PAGE_TABLE_H_
