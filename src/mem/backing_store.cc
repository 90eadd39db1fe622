#include "src/mem/backing_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/assert.h"

namespace dsa {

Cycles BackingStore::Store(SlotId slot, WordCount words) {
  DSA_ASSERT(!IsBad(slot), "storing to a retired slot");
  const Cycles cost = level_.TransferTime(words);
  WordCount& held = slots_[slot];
  occupied_words_ = occupied_words_ - held + words;
  held = words;
  ++stores_;
  busy_cycles_ += cost;
  return cost;
}

Cycles BackingStore::Fetch(SlotId slot, WordCount words) const {
  DSA_ASSERT(!IsBad(slot), "fetching from a retired slot");
  const Cycles cost = level_.TransferTime(words);
  ++fetches_;
  busy_cycles_ += cost;
  return cost;
}

void BackingStore::Discard(SlotId slot) {
  auto it = slots_.find(slot);
  if (it != slots_.end()) {
    occupied_words_ -= it->second;
    slots_.erase(it);
  }
}

void BackingStore::MarkBad(SlotId slot) {
  Discard(slot);
  bad_slots_.insert(slot);
}

std::optional<BackingStore::SlotId> BackingStore::AllocateSpareSlot(WordCount words) {
  if (!HasRoomFor(words)) {
    return std::nullopt;
  }
  return next_spare_++;
}

void BackingStore::SaveState(SnapshotWriter* w) const {
  std::vector<std::pair<SlotId, WordCount>> slots(slots_.begin(), slots_.end());
  std::sort(slots.begin(), slots.end());
  w->U64(slots.size());
  for (const auto& [id, words] : slots) {
    w->U64(id);
    w->U64(words);
  }
  std::vector<SlotId> bad(bad_slots_.begin(), bad_slots_.end());
  std::sort(bad.begin(), bad.end());
  w->U64(bad.size());
  for (SlotId id : bad) {
    w->U64(id);
  }
  w->U64(next_spare_);
  w->U64(occupied_words_);
  w->U64(stores_);
  w->U64(fetches_);
  w->U64(busy_cycles_);
}

void BackingStore::LoadState(SnapshotReader* r) {
  const std::uint64_t slot_count = r->Count(level_.capacity_words + 1);
  std::unordered_map<SlotId, WordCount> slots;
  slots.reserve(slot_count);
  WordCount total_words = 0;
  for (std::uint64_t i = 0; i < slot_count && r->ok(); ++i) {
    const SlotId id = r->U64();
    const WordCount words = r->Count(level_.capacity_words);
    total_words += words;
    if (r->ok() && !slots.emplace(id, words).second) {
      r->Fail(SnapshotErrorKind::kBadValue, "duplicate backing-store slot id");
      return;
    }
  }
  const std::uint64_t bad_count = r->Count(level_.capacity_words + 1);
  std::unordered_set<SlotId> bad;
  bad.reserve(bad_count);
  for (std::uint64_t i = 0; i < bad_count && r->ok(); ++i) {
    bad.insert(r->U64());
  }
  const SlotId next_spare = r->U64();
  const WordCount occupied = r->U64();
  const std::uint64_t stores = r->U64();
  const std::uint64_t fetches = r->U64();
  const Cycles busy = r->U64();
  if (r->ok() && occupied != total_words) {
    r->Fail(SnapshotErrorKind::kBadValue, "occupied-words does not match the slot sizes");
  }
  if (r->ok() && next_spare < kSpareSlotBase) {
    r->Fail(SnapshotErrorKind::kBadValue, "spare-slot cursor below the spare base");
  }
  if (!r->ok()) {
    return;
  }
  slots_ = std::move(slots);
  bad_slots_ = std::move(bad);
  next_spare_ = next_spare;
  occupied_words_ = occupied;
  stores_ = stores;
  fetches_ = fetches;
  busy_cycles_ = busy;
}

}  // namespace dsa
