// Snapshot substrate tests: writer/reader primitive round-trips, the
// container's corruption taxonomy (truncated / flipped byte / bad magic /
// stale version -> typed errors, zero-value reads, no aborts), Rng
// State()/Restore() continuation purity over 2^17 draws, and the headline
// component guarantee — a PagedLinearVm checkpointed mid-run and reloaded
// into a fresh instance continues bit-identically to the uninterrupted run,
// across every replacement policy service mode can host.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/obs/metrics.h"
#include "src/obs/vm_metrics.h"
#include "src/sched/load_control.h"
#include "src/trace/synthetic.h"
#include "src/vm/paged_vm.h"
#include "src/vm/system_builder.h"

namespace dsa {
namespace {

TEST(SnapshotPrimitivesTest, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.U8(0xab);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefULL);
  w.F64(0.6180339887498949);
  w.F64(-0.0);
  w.Str("hello snapshot");
  w.Str("");
  const std::string sealed = w.Seal();

  SnapshotReader r(sealed);
  ASSERT_TRUE(r.ok()) << r.error().Describe();
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.F64(), 0.6180339887498949);
  const double neg_zero = r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero)) << "-0.0 must round-trip bit-exactly";
  EXPECT_EQ(r.Str(), "hello snapshot");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

TEST(SnapshotPrimitivesTest, SealIsDeterministic) {
  auto build = [] {
    SnapshotWriter w;
    w.U64(42);
    w.Str("tenant");
    return w.Seal();
  };
  EXPECT_EQ(build(), build());
}

TEST(SnapshotPrimitivesTest, CountEnforcesAllocationLimit) {
  SnapshotWriter w;
  w.U64(1u << 20);  // a "length" far beyond what the caller will accept
  const std::string sealed_bytes = w.Seal();
  SnapshotReader r(sealed_bytes);
  EXPECT_EQ(r.Count(1024), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue);
}

TEST(SnapshotPrimitivesTest, AtEndRejectsTrailingGarbage) {
  SnapshotWriter w;
  w.U64(1);
  w.U64(2);
  const std::string sealed_bytes = w.Seal();
  SnapshotReader r(sealed_bytes);
  (void)r.U64();
  EXPECT_FALSE(r.AtEnd()) << "one u64 of payload remains";
  (void)r.U64();
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotPrimitivesTest, ReadsPastEndLatchTruncatedAndReturnZero) {
  SnapshotWriter w;
  w.U32(7);
  const std::string sealed_bytes = w.Seal();
  SnapshotReader r(sealed_bytes);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u) << "read past end must return a zero value";
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kTruncated);
  // Every subsequent read stays zero; the first error is latched.
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kTruncated);
}

std::string SampleSealed() {
  SnapshotWriter w;
  w.U64(123456789);
  w.Str("payload under test");
  w.F64(3.5);
  return w.Seal();
}

TEST(SnapshotCorruptionTest, TruncatedFileIsTyped) {
  const std::string sealed = SampleSealed();
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{19},
                           sealed.size() - 1}) {
    const std::string cut = sealed.substr(0, keep);
    SnapshotReader r(cut);
    EXPECT_FALSE(r.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(r.error().kind, SnapshotErrorKind::kTruncated) << "kept " << keep;
    EXPECT_EQ(r.U64(), 0u);
  }
}

TEST(SnapshotCorruptionTest, EveryFlippedPayloadByteIsCaught) {
  const std::string sealed = SampleSealed();
  // Header: magic(8) + version(4) + length(8) + checksum(8).
  const std::size_t payload_start = 28;
  for (std::size_t i = payload_start; i < sealed.size(); ++i) {
    std::string bent = sealed;
    bent[i] = static_cast<char>(bent[i] ^ 0x40);
    SnapshotReader r(bent);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i;
    EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadChecksum) << "flip at " << i;
  }
}

TEST(SnapshotCorruptionTest, FlippedChecksumByteIsCaught) {
  std::string bent = SampleSealed();
  bent[20] = static_cast<char>(bent[20] ^ 0x01);  // first checksum byte
  SnapshotReader r(bent);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadChecksum);
}

TEST(SnapshotCorruptionTest, BadMagicIsTyped) {
  std::string bent = SampleSealed();
  bent[0] = 'X';
  SnapshotReader r(bent);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadMagic);

  SnapshotReader garbage("definitely not a snapshot, longer than a header");
  EXPECT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.error().kind, SnapshotErrorKind::kBadMagic);
}

TEST(SnapshotCorruptionTest, StaleVersionIsTypedNotGuessed) {
  std::string bent = SampleSealed();
  bent[8] = static_cast<char>(kSnapshotFormatVersion + 1);  // version LSB
  SnapshotReader r(bent);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kStaleVersion);
}

TEST(SnapshotCorruptionTest, LyingLengthFieldIsTruncated) {
  std::string bent = SampleSealed();
  bent[12] = static_cast<char>(bent[12] + 1);  // length LSB: promise more bytes
  SnapshotReader r(bent);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kTruncated);
}

// ---------------------------------------------------------------------------
// Rng State()/Restore() purity.

constexpr std::size_t kDrawHorizon = std::size_t{1} << 17;

TEST(RngSnapshotTest, RestoredStreamContinuesIdenticallyOverLongHorizon) {
  Rng original(0xfeedfaceULL);
  // Burn an odd prefix so the captured state is mid-stream, not post-seed.
  for (int i = 0; i < 12345; ++i) {
    (void)original.Next();
  }
  const RngState state = original.State();

  Rng restored(1);  // deliberately different seed; Restore must overwrite all
  restored.Restore(state);
  for (std::size_t i = 0; i < kDrawHorizon; ++i) {
    ASSERT_EQ(original.Next(), restored.Next()) << "diverged at draw " << i;
  }
}

TEST(RngSnapshotTest, RestoredGeneratorForksIdenticalChildren) {
  Rng original(0x5eedULL);
  for (int i = 0; i < 999; ++i) {
    (void)original.Next();
  }
  Rng restored(2);
  restored.Restore(original.State());

  for (std::uint64_t stream : {0ULL, 1ULL, 7ULL, 1000ULL}) {
    Rng a = original.Fork(stream);
    Rng b = restored.Fork(stream);
    for (std::size_t i = 0; i < kDrawHorizon / 8; ++i) {
      ASSERT_EQ(a.Next(), b.Next())
          << "fork stream " << stream << " diverged at draw " << i;
    }
  }
}

TEST(RngSnapshotTest, StateRoundTripsThroughSnapshotBytes) {
  Rng original(0xabcdefULL);
  for (int i = 0; i < 777; ++i) {
    (void)original.Next();
  }
  SnapshotWriter w;
  SaveRngState(&w, original.State());
  const std::string sealed_bytes = w.Seal();
  SnapshotReader r(sealed_bytes);
  const RngState loaded = LoadRngState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd());
  EXPECT_EQ(loaded, original.State());
}

// ---------------------------------------------------------------------------
// Component round-trips.

TEST(ComponentSnapshotTest, MetricsRegistryRoundTripsAndMerges) {
  MetricsRegistry reg;
  reg.GetCounter("vm/references")->Increment(100);
  reg.GetCounter("vm/faults")->Increment(7);
  SnapshotWriter w;
  reg.SaveState(&w);
  const std::string sealed = w.Seal();

  MetricsRegistry fresh;
  SnapshotReader r(sealed);
  fresh.LoadState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  EXPECT_EQ(fresh.CounterValue("vm/references"), 100u);
  EXPECT_EQ(fresh.CounterValue("vm/faults"), 7u);

  // LoadState merges by NAME (new names register, existing names must agree
  // on kind) but restores each metric's value verbatim — the snapshot is
  // authoritative, pre-existing counts are overwritten, not accumulated.
  MetricsRegistry merged;
  merged.GetCounter("vm/references")->Increment(11);
  merged.GetCounter("local/only")->Increment(5);
  SnapshotReader r2(sealed);
  merged.LoadState(&r2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(merged.CounterValue("vm/references"), 100u);
  EXPECT_EQ(merged.CounterValue("local/only"), 5u);
}

TEST(ComponentSnapshotTest, LoadControllerRoundTripsDecisionState) {
  LoadControlConfig config;
  config.policy = LoadControlPolicy::kAdaptiveFaultRate;
  LoadController a(config, /*core_words=*/4096, /*page_words=*/128);
  // Feed an arbitrary but deterministic signal history.
  for (Cycles now = 0; now < 50000; now += 1000) {
    a.detector().RecordReference(now);
    if (now % 3000 == 0) {
      a.detector().RecordFault(now, /*wait=*/400);
    }
    a.detector().RecordSpaceTime(now, /*active_wt=*/static_cast<double>(now) * 10.0,
                                 /*waiting_wt=*/static_cast<double>(now) * 2.0);
  }
  SnapshotWriter w;
  a.SaveState(&w);
  const std::string sealed = w.Seal();

  LoadController b(config, 4096, 128);
  SnapshotReader r(sealed);
  b.LoadState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();

  // The restored controller must make the same decisions the original
  // would: serialize both again and compare bytes.
  SnapshotWriter wa;
  a.SaveState(&wa);
  SnapshotWriter wb;
  b.SaveState(&wb);
  EXPECT_EQ(wa.Seal(), wb.Seal());
}

// ---------------------------------------------------------------------------
// PagedLinearVm mid-run checkpointing.

SystemSpec ServeSpec(ReplacementStrategyKind replacement) {
  SystemSpec spec;
  spec.label = "snapshot-vm";
  spec.core_words = 2048;
  spec.page_words = 128;  // 16 frames
  spec.tlb_entries = 4;
  spec.replacement = replacement;
  spec.backing_level = MakeDrumLevel("drum", 1u << 17, /*word_time=*/2,
                                     /*rotational_delay=*/500);
  return spec;
}

ReferenceTrace VmTrace() {
  WorkingSetTraceParams params;
  params.extent = 1 << 13;
  params.region_words = 128;
  params.regions_per_phase = 6;
  params.phase_length = 1500;
  params.phases = 3;
  params.seed = 97;
  return MakeWorkingSetTrace(params);
}

// Steps `vm` through trace.refs[from, to), asserting after every step that
// the address map (page table and TLB, or atlas registers) agrees with the
// frame table.
void StepRange(PagedLinearVm* vm, const ReferenceTrace& trace, std::size_t from,
               std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    vm->Step(trace.refs[i]);
    ASSERT_TRUE(vm->MapperMatchesResidency()) << "after step " << i;
  }
}

std::string StepAll(PagedLinearVm* vm, const ReferenceTrace& trace,
                    std::size_t from) {
  StepRange(vm, trace, from, trace.refs.size());
  VmReport report = vm->Snapshot();
  report.label = trace.label;
  return RenderVmReport(report, Describe(vm->characteristics()), trace.label);
}

// A full cut: the sectioned seal with every section inline.
std::string SealFullCut(const PagedLinearVm& vm) {
  SectionedSnapshotWriter w;
  vm.SaveSections(&w);
  return w.SealFull();
}

// Restores the one-link chain {cut} into `vm`, which must be freshly built;
// returns the restore's error, or nullopt when it restored cleanly.
std::optional<SnapshotError> RestoreFullCut(const std::string& cut, PagedLinearVm* vm) {
  auto resolved = ResolveSectionChain({cut});
  if (!resolved.has_value()) {
    return resolved.error();
  }
  SectionSource src = std::move(resolved.value());
  vm->LoadSections(&src);
  src.FailIfUnopened();
  if (!src.ok()) {
    return src.error();
  }
  return std::nullopt;
}

TEST(PagedVmSnapshotTest, MidRunSaveLoadContinuesBitIdenticallyAcrossPolicies) {
  const ReferenceTrace trace = VmTrace();
  for (ReplacementStrategyKind policy :
       {ReplacementStrategyKind::kLru, ReplacementStrategyKind::kFifo,
        ReplacementStrategyKind::kClock, ReplacementStrategyKind::kRandom,
        ReplacementStrategyKind::kM44Class, ReplacementStrategyKind::kWorkingSet}) {
    const SystemSpec spec = ServeSpec(policy);

    PagedLinearVm straight(PagedConfigFromSpec(spec));
    const std::string expected = StepAll(&straight, trace, 0);

    // Interrupt at several cut points, including mid-phase ones.
    for (std::size_t cut : {std::size_t{1}, trace.refs.size() / 3,
                            trace.refs.size() / 2,
                            trace.refs.size() - 1}) {
      PagedLinearVm first(PagedConfigFromSpec(spec));
      StepRange(&first, trace, 0, cut);
      PagedLinearVm resumed(PagedConfigFromSpec(spec));
      const auto error = RestoreFullCut(SealFullCut(first), &resumed);
      ASSERT_FALSE(error.has_value()) << ToString(policy) << " cut " << cut << ": "
                                      << error->Describe();
      EXPECT_EQ(StepAll(&resumed, trace, cut), expected)
          << ToString(policy) << " cut at " << cut;
    }
  }
}

TEST(PagedVmSnapshotTest, SaveStateIsDeterministicForIdenticalState) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  auto capture = [&] {
    PagedLinearVm vm(PagedConfigFromSpec(spec));
    for (std::size_t i = 0; i < trace.refs.size() / 2; ++i) {
      vm.Step(trace.refs[i]);
    }
    return SealFullCut(vm);
  };
  EXPECT_EQ(capture(), capture());
}

TEST(PagedVmSnapshotTest, CorruptVmSnapshotFailsTypedWithoutCrashing) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(PagedConfigFromSpec(spec));
  for (std::size_t i = 0; i < 1000; ++i) {
    vm.Step(trace.refs[i]);
  }
  const std::string sealed = SealFullCut(vm);

  // Truncation, payload flips at several depths, and a stale version must
  // all surface as typed errors — never an abort, never a partial load
  // that silently "works".
  std::vector<std::string> corrupt;
  corrupt.push_back(sealed.substr(0, sealed.size() / 2));
  for (std::size_t at : {std::size_t{28}, sealed.size() / 2, sealed.size() - 1}) {
    std::string bent = sealed;
    bent[at] = static_cast<char>(bent[at] ^ 0x10);
    corrupt.push_back(std::move(bent));
  }
  {
    std::string stale = sealed;
    stale[8] = static_cast<char>(kSnapshotFormatVersion + 3);
    corrupt.push_back(std::move(stale));
  }
  for (const std::string& bytes : corrupt) {
    PagedLinearVm fresh(PagedConfigFromSpec(spec));
    const auto error = RestoreFullCut(bytes, &fresh);
    ASSERT_TRUE(error.has_value());
    EXPECT_FALSE(error->Describe().empty());
  }
}

TEST(PagedVmSnapshotTest, FaultInjectedRunResumesIdentically) {
  // The injector's Rng stream is part of the checkpoint: a resumed run must
  // see the same fault schedule tail.  Frame failures retire frames, which
  // evicts their pages through the mapper's unmap, TLB included.
  SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  spec.fault_injection.rates.transient_transfer = 0.05;
  spec.fault_injection.rates.frame_failure = 0.1;
  spec.fault_injection.seed = 4242;
  const ReferenceTrace trace = VmTrace();

  PagedLinearVm straight(PagedConfigFromSpec(spec));
  const std::string expected = StepAll(&straight, trace, 0);
  ASSERT_GT(straight.pager().stats().reliability.retired_frames, 0u);

  const std::size_t cut = trace.refs.size() / 2;
  PagedLinearVm first(PagedConfigFromSpec(spec));
  StepRange(&first, trace, 0, cut);
  PagedLinearVm resumed(PagedConfigFromSpec(spec));
  const auto error = RestoreFullCut(SealFullCut(first), &resumed);
  ASSERT_FALSE(error.has_value()) << error->Describe();
  EXPECT_EQ(StepAll(&resumed, trace, cut), expected);
}

// --- Restore cross-checks over mutated, re-sealed sections.

using Sections = std::vector<std::pair<std::string, std::string>>;
using ChunkEntries = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

// The (name, body) sections of a full sectioned seal, in seal order.
Sections SplitFullSeal(const std::string& sealed) {
  SnapshotReader r(sealed);
  EXPECT_EQ(r.U8(), 0u);  // full
  Sections sections(r.U64());
  for (auto& [name, body] : sections) {
    name = r.Str();
    EXPECT_EQ(r.U8(), 0u);  // inline
    body = r.Str();
  }
  EXPECT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  return sections;
}

// Re-seals `sections` as a full cut, with a valid checksum, and restores it
// into a fresh VM built from `config`.
std::optional<SnapshotError> RestoreSections(const Sections& sections,
                                             const PagedVmConfig& config) {
  SectionedSnapshotWriter w;
  for (const auto& [name, body] : sections) {
    w.Section(name, body);
  }
  PagedLinearVm vm(config);
  return RestoreFullCut(w.SealFull(), &vm);
}

// Expects the restore to have rejected the cut as kBadValue (and to have
// returned, not aborted), with `detail` in the error when it is given.
void ExpectBadValue(const std::optional<SnapshotError>& error, const std::string& what,
                    const std::string& detail = "") {
  ASSERT_TRUE(error.has_value()) << what << ": restore succeeded";
  EXPECT_EQ(error->kind, SnapshotErrorKind::kBadValue) << what << ": " << error->Describe();
  EXPECT_NE(error->Describe().find(detail), std::string::npos)
      << what << ": " << error->Describe();
}

ChunkEntries DecodeChunkBody(const std::string& body) {
  SnapshotReader r = SnapshotReader::ForPayload(body);
  ChunkEntries entries(r.U64());
  for (auto& [offset, frame] : entries) {
    offset = r.U32();
    frame = r.U64();
  }
  EXPECT_TRUE(r.ok() && r.AtEnd());
  return entries;
}

std::string EncodeChunkBody(const ChunkEntries& entries) {
  SnapshotWriter w;
  w.U64(entries.size());
  for (const auto& [offset, frame] : entries) {
    w.U32(offset);
    w.U64(frame);
  }
  return w.TakePayload();
}

TEST(PagedVmSnapshotTest, MutatedPageTableChunkRestoresAsBadValue) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(PagedConfigFromSpec(spec));
  for (std::size_t i = 0; i < trace.refs.size() / 2; ++i) {
    vm.Step(trace.refs[i]);
  }
  const Sections sections = SplitFullSeal(SealFullCut(vm));

  std::size_t chunk = 0;
  while (chunk < sections.size() && sections[chunk].first != "map.pt.0") {
    ++chunk;
  }
  ASSERT_LT(chunk, sections.size());
  const ChunkEntries entries = DecodeChunkBody(sections[chunk].second);
  ASSERT_GE(entries.size(), 2u);
  const std::uint64_t frames = spec.core_words / spec.page_words;

  ChunkEntries moved = entries;
  moved[0].second = (moved[0].second + 1) % frames;
  ChunkEntries added = entries;
  std::uint32_t free_offset = 0;
  while (std::any_of(entries.begin(), entries.end(),
                     [&](const auto& e) { return e.first == free_offset; })) {
    ++free_offset;
  }
  added.insert(std::lower_bound(added.begin(), added.end(), std::make_pair(free_offset, 0ul)),
               {free_offset, entries[0].second});
  ChunkEntries dropped(entries.begin() + 1, entries.end());
  ChunkEntries swapped = entries;
  std::swap(swapped[0].first, swapped[1].first);

  auto restore = [&](const ChunkEntries& body) {
    Sections mutated = sections;
    mutated[chunk].second = EncodeChunkBody(body);
    return RestoreSections(mutated, PagedConfigFromSpec(spec));
  };

  // The untouched body, re-sealed the same way, restores cleanly.
  const auto clean = restore(entries);
  EXPECT_FALSE(clean.has_value()) << clean->Describe();

  const std::vector<std::pair<const char*, ChunkEntries>> mutations = {
      {"frame moved", moved}, {"entry added", added},
      {"entry dropped", dropped}, {"offsets swapped", swapped}};
  for (const auto& [what, body] : mutations) {
    ExpectBadValue(restore(body), what);
  }
}

// Little-endian u64 field access inside a section body.
std::uint64_t GetU64(const std::string& body, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(body[at + i])} << (8 * i);
  }
  return v;
}

void PutU64(std::string* body, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    (*body)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::size_t SectionIndex(const Sections& sections, const std::string& name) {
  std::size_t i = 0;
  while (i < sections.size() && sections[i].first != name) {
    ++i;
  }
  return i;
}

// A mid-run full cut of a VM built from `config`, split into sections.
Sections MidRunSections(const PagedVmConfig& config) {
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(config);
  for (std::size_t i = 0; i < trace.refs.size() / 2; ++i) {
    vm.Step(trace.refs[i]);
  }
  return SplitFullSeal(SealFullCut(vm));
}

// vm.pager opens with the frame table: the frame count, then per frame the
// occupied/pinned/retired flags, the page, two sensors and three times.
constexpr std::size_t kFrameRecordBytes = 3 + 8 + 2 + 3 * 8;
bool FrameOccupied(const std::string& pager, std::size_t f) {
  return pager[8 + f * kFrameRecordBytes] != 0;
}
std::size_t FramePageAt(std::size_t f) { return 8 + f * kFrameRecordBytes + 3; }

TEST(PagedVmSnapshotTest, PageInTwoOccupiedFramesRestoresAsBadValue) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const PagedVmConfig config = PagedConfigFromSpec(spec);
  const Sections sections = MidRunSections(config);
  const std::size_t pager = SectionIndex(sections, "vm.pager");
  ASSERT_LT(pager, sections.size());
  const std::string& body = sections[pager].second;
  std::vector<std::size_t> occupied;
  for (std::size_t f = 0; f < GetU64(body, 0); ++f) {
    if (FrameOccupied(body, f)) {
      occupied.push_back(f);
    }
  }
  ASSERT_GE(occupied.size(), 2u);

  const auto clean = RestoreSections(sections, config);
  EXPECT_FALSE(clean.has_value()) << clean->Describe();

  // The second occupied frame claims the first one's page; the frame
  // table's index build must catch it before the mapper cross-check runs.
  Sections mutated = sections;
  PutU64(&mutated[pager].second, FramePageAt(occupied[1]),
         GetU64(body, FramePageAt(occupied[0])));
  ExpectBadValue(RestoreSections(mutated, config), "page in two frames", "two frames");
}

TEST(PagedVmSnapshotTest, MutatedAtlasRegisterRestoresAsBadValue) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  PagedVmConfig config = PagedConfigFromSpec(spec);
  config.mapper = PagedMapperKind::kAtlasRegisters;
  const Sections sections = MidRunSections(config);
  const std::size_t pager = SectionIndex(sections, "vm.pager");
  const std::size_t head = SectionIndex(sections, "map.head");
  ASSERT_LT(pager, sections.size());
  ASSERT_LT(head, sections.size());
  const std::string& frames = sections[pager].second;
  std::optional<std::size_t> occupied;
  std::optional<std::size_t> vacant;
  for (std::size_t f = 0; f < GetU64(frames, 0); ++f) {
    (FrameOccupied(frames, f) ? occupied : vacant) = f;
  }
  ASSERT_TRUE(occupied.has_value());
  ASSERT_TRUE(vacant.has_value()) << "the mid-run cut should leave a frame vacant";

  const auto clean = RestoreSections(sections, config);
  EXPECT_FALSE(clean.has_value()) << clean->Describe();

  // map.head: the register count, then per frame a loaded flag and a page.
  const auto loaded_at = [](std::size_t f) { return 8 + f * 9; };
  const std::uint64_t unused_page = 0x7777;  // in no register, in no frame
  const auto mutate = [&](std::size_t f, bool loaded, std::uint64_t page) {
    Sections mutated = sections;
    mutated[head].second[loaded_at(f)] = static_cast<char>(loaded ? 1 : 0);
    PutU64(&mutated[head].second, loaded_at(f) + 1, page);
    return RestoreSections(mutated, config);
  };
  ExpectBadValue(mutate(*occupied, true, unused_page), "register names another page",
                 "address map");
  ExpectBadValue(mutate(*occupied, false, 0), "occupied frame's register cleared",
                 "address map");
  ExpectBadValue(mutate(*vacant, true, unused_page), "vacant frame holds a register",
                 "address map");
}

TEST(PagedVmSnapshotTest, MutatedTlbSlotRestoresAsBadValue) {
  // A TLB slot that disagrees with the frame table would turn a fault into a
  // hit (or send a hit to the wrong frame) and silently change the
  // continuation, so the restore must reject it.
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const PagedVmConfig config = PagedConfigFromSpec(spec);
  const Sections sections = MidRunSections(config);
  const std::size_t pager = SectionIndex(sections, "vm.pager");
  const std::size_t head = SectionIndex(sections, "map.head");
  ASSERT_LT(pager, sections.size());
  ASSERT_LT(head, sections.size());

  // map.head: the u64 page count, then the TLB's u64 slot count and per slot
  // a u64 key (page), value (frame) and last use.
  const auto key_at = [](std::size_t slot) { return 16 + slot * 24; };
  const auto value_at = [](std::size_t slot) { return 16 + slot * 24 + 8; };
  const std::string& tlb = sections[head].second;
  ASSERT_GE(GetU64(tlb, 8), 2u) << "the mid-run cut should hold two TLB slots";
  const std::string& frames = sections[pager].second;
  const std::uint64_t unused_page = 0x7777;  // in the table's range, in no frame
  for (std::size_t f = 0; f < GetU64(frames, 0); ++f) {
    ASSERT_FALSE(FrameOccupied(frames, f) && GetU64(frames, FramePageAt(f)) == unused_page);
  }

  const auto clean = RestoreSections(sections, config);
  EXPECT_FALSE(clean.has_value()) << clean->Describe();

  const auto restore = [&](const auto& mutate) {
    Sections mutated = sections;
    mutate(&mutated[head].second);
    return RestoreSections(mutated, config);
  };
  const std::uint64_t frame_count = GetU64(frames, 0);
  ExpectBadValue(restore([&](std::string* body) { PutU64(body, key_at(0), unused_page); }),
                 "slot names a non-resident page", "address map");
  ExpectBadValue(restore([&](std::string* body) {
                   PutU64(body, value_at(0), (GetU64(*body, value_at(0)) + 1) % frame_count);
                 }),
                 "slot gives its page another frame", "address map");
  ExpectBadValue(restore([&](std::string* body) {
                   PutU64(body, key_at(1), GetU64(*body, key_at(0)));
                   PutU64(body, value_at(1), GetU64(*body, value_at(0)));
                 }),
                 "two slots hold one page", "two associative slots");
}

TEST(PagedVmSnapshotTest, VersionThreeCutIsStale) {
  // Version 3 still carried the page-table mapper's last-translation line in
  // map.head, and earlier versions more; there is no decode path for any of
  // them, only a typed rejection.
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(PagedConfigFromSpec(spec));
  for (std::size_t i = 0; i < trace.refs.size() / 2; ++i) {
    vm.Step(trace.refs[i]);
  }
  for (std::uint32_t version = 1; version < kSnapshotFormatVersion; ++version) {
    std::string cut = SealFullCut(vm);
    cut[8] = static_cast<char>(version);  // LSB; the header checksum covers the payload only
    PagedLinearVm fresh(PagedConfigFromSpec(spec));
    const auto error = RestoreFullCut(cut, &fresh);
    ASSERT_TRUE(error.has_value()) << "version " << version;
    EXPECT_EQ(error->kind, SnapshotErrorKind::kStaleVersion) << error->Describe();
  }
}

TEST(PagedVmSnapshotTest, FullCutSizeDoesNotScaleWithNameSpace) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  struct Cut {
    std::size_t chunks{0};
    std::size_t bytes{0};
  };
  auto cut = [&](int address_bits) {
    PagedVmConfig config = PagedConfigFromSpec(spec);
    config.address_bits = address_bits;
    PagedLinearVm vm(config);
    for (const Reference& ref : trace.refs) {
      vm.Step(ref);
    }
    return Cut{static_cast<const PageTableMapper&>(vm.mapper()).table().ChunkCount(),
               SealFullCut(vm).size()};
  };
  const Cut small = cut(20);
  const Cut large = cut(24);
  ASSERT_GT(large.chunks, small.chunks);

  // Each extra chunk is empty: an 8-byte zero count, plus its section
  // framing: the name string, the inline tag and the body length.
  std::size_t extra = 0;
  for (std::size_t k = small.chunks; k < large.chunks; ++k) {
    extra += 8 + ("map.pt." + std::to_string(k)).size() + 1 + 8 + 8;
  }
  EXPECT_EQ(large.bytes - small.bytes, extra);
}

// --- Sectioned snapshots: the delta-checkpoint substrate.

std::string SealThreeSections(const std::string& b_body) {
  SectionedSnapshotWriter w;
  w.Begin("alpha")->U64(11);
  w.Section("beta", b_body);
  SnapshotWriter* c = w.Begin("gamma");
  c->Str("third");
  c->Bool(true);
  return w.SealFull();
}

TEST(SectionedSnapshotTest, FullSealRoundTripsInOrder) {
  auto resolved = ResolveSectionChain({SealThreeSections("bb")});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  SectionSource src = std::move(resolved.value());
  EXPECT_EQ(src.section_count(), 3u);
  EXPECT_TRUE(src.Has("beta"));
  EXPECT_FALSE(src.Has("delta"));

  SnapshotReader a = src.Open("alpha");
  EXPECT_EQ(a.U64(), 11u);
  EXPECT_TRUE(src.Close(&a, "alpha"));
  SnapshotReader b = src.Open("beta");
  // "beta" was added pre-serialized: its body is the raw bytes verbatim.
  EXPECT_EQ(b.U8(), 'b');
  EXPECT_EQ(b.U8(), 'b');
  EXPECT_TRUE(src.Close(&b, "beta"));
  SnapshotReader c = src.Open("gamma");
  EXPECT_EQ(c.Str(), "third");
  EXPECT_TRUE(c.Bool());
  EXPECT_TRUE(src.Close(&c, "gamma"));
  src.FailIfUnopened();
  EXPECT_TRUE(src.ok()) << src.error().Describe();
}

TEST(SectionedSnapshotTest, DeltaSealRefsUnchangedSectionsAndResolves) {
  SectionedSnapshotWriter base_w;
  base_w.Begin("stable")->U64(1);
  base_w.Begin("hot")->U64(2);
  const SectionBaseline baseline = base_w.Digest();
  const std::string full = base_w.SealFull();

  SectionedSnapshotWriter next_w;
  next_w.Begin("stable")->U64(1);  // unchanged -> becomes a hash ref
  next_w.Begin("hot")->U64(99);    // changed -> stays inline
  const std::string delta = next_w.SealDelta(baseline);
  EXPECT_LT(delta.size(), next_w.SealFull().size());

  auto resolved = ResolveSectionChain({full, delta});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  SectionSource src = std::move(resolved.value());
  SnapshotReader s = src.Open("stable");
  EXPECT_EQ(s.U64(), 1u);
  EXPECT_TRUE(src.Close(&s, "stable"));
  SnapshotReader h = src.Open("hot");
  EXPECT_EQ(h.U64(), 99u);
  EXPECT_TRUE(src.Close(&h, "hot"));
  src.FailIfUnopened();
  EXPECT_TRUE(src.ok()) << src.error().Describe();
}

TEST(SectionedSnapshotTest, MisChainedDeltaFailsChecksum) {
  // A delta sealed against base A resolved over base B: the ref's recorded
  // hash cannot match B's body, and the chain must fail typed rather than
  // restore mixed state.
  SectionedSnapshotWriter a;
  a.Begin("s")->U64(1);
  const SectionBaseline base_a = a.Digest();

  SectionedSnapshotWriter b;
  b.Begin("s")->U64(2);
  const std::string full_b = b.SealFull();

  SectionedSnapshotWriter d;
  d.Begin("s")->U64(1);  // unchanged vs A -> sealed as a ref to A's hash
  const std::string delta_over_a = d.SealDelta(base_a);

  auto resolved = ResolveSectionChain({full_b, delta_over_a});
  ASSERT_FALSE(resolved.has_value());
  EXPECT_EQ(resolved.error().kind, SnapshotErrorKind::kBadChecksum);
}

TEST(SectionedSnapshotTest, DeltaHeadAndRefToAbsentSectionAreTyped) {
  SectionedSnapshotWriter base_w;
  base_w.Begin("only")->U64(5);
  const SectionBaseline baseline = base_w.Digest();
  const std::string full = base_w.SealFull();

  SectionedSnapshotWriter d;
  d.Begin("only")->U64(5);
  const std::string delta = d.SealDelta(baseline);

  // A chain headed by a delta has no base to resolve against.
  auto headless = ResolveSectionChain({delta});
  ASSERT_FALSE(headless.has_value());
  EXPECT_EQ(headless.error().kind, SnapshotErrorKind::kBadValue);

  // A delta ref naming a section the base never had.
  SectionedSnapshotWriter other;
  other.Begin("elsewhere")->U64(7);
  const std::string full_other = other.SealFull();
  auto absent = ResolveSectionChain({full_other, delta});
  ASSERT_FALSE(absent.has_value());
  EXPECT_EQ(absent.error().kind, SnapshotErrorKind::kBadValue);
}

TEST(SectionedSnapshotTest, MissingSectionOpenAndUnopenedSectionsLatch) {
  {
    auto resolved = ResolveSectionChain({SealThreeSections("x")});
    ASSERT_TRUE(resolved.has_value());
    SectionSource src = std::move(resolved.value());
    SnapshotReader ghost = src.Open("no-such-section");
    EXPECT_FALSE(ghost.ok());
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, SnapshotErrorKind::kBadValue);
  }
  {
    auto resolved = ResolveSectionChain({SealThreeSections("x")});
    ASSERT_TRUE(resolved.has_value());
    SectionSource src = std::move(resolved.value());
    SnapshotReader a = src.Open("alpha");
    EXPECT_EQ(a.U64(), 11u);
    EXPECT_TRUE(src.Close(&a, "alpha"));
    src.FailIfUnopened();  // beta and gamma were trusted but never read
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, SnapshotErrorKind::kBadValue);
  }
}

TEST(SectionedSnapshotTest, PagedVmSectionedSaveMatchesChainRestore) {
  // The component-level delta property: step, full-cut, step more, delta-cut,
  // restore through the chain, and the restored VM both re-seals identically
  // and continues identically.
  SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(PagedConfigFromSpec(spec));
  const std::size_t cut = trace.refs.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) {
    vm.Step(trace.refs[i]);
  }
  SectionedSnapshotWriter full_w;
  vm.SaveSections(&full_w);
  const SectionBaseline baseline = full_w.Digest();
  const std::string full = full_w.SealFull();

  const std::size_t second = cut + (trace.refs.size() - cut) / 2;
  for (std::size_t i = cut; i < second; ++i) {
    vm.Step(trace.refs[i]);
  }
  SectionedSnapshotWriter delta_w;
  vm.SaveSections(&delta_w);
  const std::string delta = delta_w.SealDelta(baseline);
  EXPECT_LT(delta.size(), full.size());

  auto resolved = ResolveSectionChain({full, delta});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  SectionSource src = std::move(resolved.value());
  PagedLinearVm restored(PagedConfigFromSpec(spec));
  restored.LoadSections(&src);
  src.FailIfUnopened();
  ASSERT_TRUE(src.ok()) << src.error().Describe();

  SectionedSnapshotWriter lhs;
  vm.SaveSections(&lhs);
  SectionedSnapshotWriter rhs;
  restored.SaveSections(&rhs);
  EXPECT_EQ(lhs.SealFull(), rhs.SealFull());
  EXPECT_EQ(StepAll(&vm, trace, second), StepAll(&restored, trace, second));
}

}  // namespace
}  // namespace dsa
