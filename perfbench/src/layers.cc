// The traced run's layer passes: spans around PagedLinearVm::Step, around
// PageTableMapper::Translate and Pager::Access in a replay wired the way
// PagedLinearVm::Reset wires them, and around the snapshot, store and trace
// entry points.

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <sstream>

#include "perfbench.h"
#include "src/core/snapshot.h"
#include "src/map/page_table.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/mem/fault_injection.h"
#include "src/naming/linear.h"
#include "src/obs/tracer.h"
#include "src/paging/fetch.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_factory.h"
#include "src/serve/checkpoint.h"
#include "src/serve/checkpoint_store.h"
#include "src/trace/trace_io.h"

namespace perfbench {

namespace {

double NsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

double MsSince(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from).count();
}

constexpr std::size_t kLockstepRefs = 50'000;

bool SameCounts(const dsa::VmReport& a, const dsa::VmReport& b) {
  return a.references == b.references && a.faults == b.faults && a.writebacks == b.writebacks &&
         a.total_cycles == b.total_cycles && a.space_time.active == b.space_time.active &&
         a.space_time.waiting == b.space_time.waiting;
}

// Mapper + pager assembled from the VM's config exactly as
// PagedLinearVm::Reset assembles them (page-table mapper, demand fetch, no
// advice), with the reference loop of PagedLinearVm::Step around them.
class Replay {
 public:
  explicit Replay(const dsa::PagedVmConfig& config)
      : config_(config),
        names_(config.address_bits),
        backing_(config.backing_level),
        injector_(config.fault_injection) {
    const std::uint64_t page_count =
        (names_.MaxExtent() + config.page_words - 1) / config.page_words;
    dsa::PagerConfig pager_config;
    pager_config.page_words = config.page_words;
    pager_config.frames = static_cast<std::size_t>(config.core_words / config.page_words);
    pager_config.keep_one_frame_vacant = config.keep_one_frame_vacant;
    pager_ = std::make_unique<dsa::Pager>(
        pager_config, &backing_, &channel_,
        dsa::MakeReplacementPolicy(config.replacement, config.replacement_options),
        std::make_unique<dsa::DemandFetch>(), nullptr, &injector_);
    mapper_ = std::make_unique<dsa::PageTableMapper>(
        config.page_words, static_cast<std::size_t>(page_count), config.tlb_entries,
        config.mapping_costs);
    dsa::PageTableMapper* raw = mapper_.get();
    pager_->SetResidencyCallbacks(
        [raw](dsa::PageId page, dsa::FrameId frame) { raw->Map(page, frame); },
        [raw](dsa::PageId page, dsa::FrameId) { raw->Unmap(page); });
  }

  void Step(const dsa::Reference& ref, LayerFigures* out) {
    now_ += config_.cycles_per_reference;
    if (!names_.Contains(ref.name)) {
      return;
    }
    Clock::time_point t0 = Clock::now();
    dsa::TranslationResult first = mapper_->Translate(ref.name, ref.kind, now_);
    Clock::time_point t1 = Clock::now();
    translate_ns_ += NsBetween(t0, t1);
    ++out->translations;
    now_ += first.has_value() ? first->cost : first.error().detection_cost;
    if (!first.has_value() && first.error().kind != dsa::FaultKind::kPageNotPresent) {
      return;
    }
    const dsa::PageId page{ref.name.value / config_.page_words};
    t0 = Clock::now();
    const dsa::PageAccessResult result = pager_->Access(page, ref.kind, now_);
    t1 = Clock::now();
    if (!result.has_value()) {
      now_ += result.error().wait_cycles;
      return;
    }
    if (!result->faulted) {
      hit_ns_ += NsBetween(t0, t1);
      ++out->hits;
      return;
    }
    fault_ns_ += NsBetween(t0, t1);
    now_ += result->wait_cycles;
    t0 = Clock::now();
    dsa::TranslationResult retry = mapper_->Translate(ref.name, ref.kind, now_);
    t1 = Clock::now();
    translate_ns_ += NsBetween(t0, t1);
    ++out->translations;
    now_ += retry.has_value() ? retry->cost : 0;
  }

  dsa::Cycles now() const { return now_; }
  const dsa::Pager& pager() const { return *pager_; }
  const dsa::PageTableMapper& mapper() const { return *mapper_; }
  const dsa::BackingStore& backing() const { return backing_; }
  double translate_ns() const { return translate_ns_; }
  double hit_ns() const { return hit_ns_; }
  double fault_ns() const { return fault_ns_; }

 private:
  dsa::PagedVmConfig config_;
  dsa::LinearNameSpace names_;
  dsa::BackingStore backing_;
  dsa::TransferChannel channel_;
  dsa::FaultInjector injector_;
  std::unique_ptr<dsa::Pager> pager_;
  std::unique_ptr<dsa::PageTableMapper> mapper_;
  dsa::Cycles now_{0};
  double translate_ns_{0};
  double hit_ns_{0};
  double fault_ns_{0};
};

struct ManifestLink {
  std::string member;
  std::uint64_t gen{0};
  bool delta{false};
};

struct Manifest {
  std::uint64_t gen{0};
  std::uint64_t base{0};
  std::vector<ManifestLink> links;  // manifest order: by member, then generation
};

Manifest ParseManifest(const std::string& text) {
  Manifest manifest;
  std::istringstream in(text);
  std::string word;
  while (in >> word) {
    if (word == "gen") {
      in >> manifest.gen;
    } else if (word == "base") {
      in >> manifest.base;
    } else if (word == "member") {
      ManifestLink link;
      std::string kind, bytes, checksum;
      in >> link.member >> link.gen >> kind >> bytes >> checksum;
      link.delta = kind == "d";
      manifest.links.push_back(link);
    }
  }
  return manifest;
}

std::string MemberFile(const std::string& member, std::uint64_t gen) {
  return member + "." + std::to_string(gen) + ".ckpt";
}

std::string BaseName(const std::string& path) { return path.substr(path.rfind('/') + 1); }

}  // namespace

bool MeasureLayers(const dsa::PagedVmConfig& config,
                   const std::vector<std::vector<const dsa::ReferenceTrace*>>& jobs,
                   LayerFigures* out, std::string* why) {
  double bare_s = 0;
  double traced_s = 0;
  double step_ns = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_lookups = 0;
  std::uint64_t events = 0;
  double translate_ns = 0;
  double hit_ns = 0;
  double fault_ns = 0;
  for (const auto& job : jobs) {
    dsa::PagedVmConfig bare_config = config;
    bare_config.tracer = nullptr;
    dsa::PagedLinearVm bare(bare_config);
    dsa::PagedLinearVm spanned(bare_config);
    dsa::EventTracer tracer;
    dsa::PagedVmConfig traced_config = bare_config;
    traced_config.tracer = &tracer;
    dsa::PagedLinearVm traced(traced_config);
    Replay replay(bare_config);
    // The four systems step the job in lockstep, kLockstepRefs references
    // at a time, so a change in host speed hits all four alike and the
    // comparisons between them hold.
    for (const dsa::ReferenceTrace* trace : job) {
      const std::vector<dsa::Reference>& refs = trace->refs;
      for (std::size_t begin = 0; begin < refs.size(); begin += kLockstepRefs) {
        const std::size_t end = std::min(refs.size(), begin + kLockstepRefs);
        Clock::time_point start = Clock::now();
        for (std::size_t i = begin; i < end; ++i) {
          bare.Step(refs[i]);
        }
        bare_s += SecondsSince(start);
        for (std::size_t i = begin; i < end; ++i) {
          const Clock::time_point t0 = Clock::now();
          spanned.Step(refs[i]);
          step_ns += NsBetween(t0, Clock::now());
        }
        start = Clock::now();
        for (std::size_t i = begin; i < end; ++i) {
          traced.Step(refs[i]);
        }
        traced_s += SecondsSince(start);
        for (std::size_t i = begin; i < end; ++i) {
          replay.Step(refs[i], out);
        }
      }
    }
    const dsa::VmReport reference = bare.Snapshot();
    if (!SameCounts(spanned.Snapshot(), reference) || !SameCounts(traced.Snapshot(), reference)) {
      *why = "spanned or tracer-attached VM diverged from the bare VM";
      return false;
    }
    const dsa::PagerStats& stats = replay.pager().stats();
    if (stats.faults != reference.faults || stats.writebacks != reference.writebacks ||
        replay.now() != reference.total_cycles) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "replay diverged from the VM: faults %" PRIu64 "/%" PRIu64
                    ", write-backs %" PRIu64 "/%" PRIu64 ", cycles %" PRIu64 "/%" PRIu64,
                    stats.faults, reference.faults, stats.writebacks, reference.writebacks,
                    replay.now(), reference.total_cycles);
      *why = buf;
      return false;
    }
    events += tracer.emitted();
    out->refs += reference.references;
    out->faults += stats.faults;
    out->evictions += stats.evictions;
    out->writebacks += stats.writebacks;
    out->backing_slots += replay.backing().slot_count();
    out->backing_stores += replay.backing().stores();
    out->backing_fetches += replay.backing().fetches();
    tlb_hits += replay.mapper().tlb().hits();
    tlb_lookups += replay.mapper().tlb().hits() + replay.mapper().tlb().misses();
    translate_ns += replay.translate_ns();
    hit_ns += replay.hit_ns();
    fault_ns += replay.fault_ns();
  }
  const auto refs = static_cast<double>(out->refs);
  out->untraced_ns = bare_s * 1e9 / refs;
  out->step_ns = step_ns / refs;
  out->translate_ns = translate_ns / refs;
  out->access_hit_ns = out->hits == 0 ? 0 : hit_ns / static_cast<double>(out->hits);
  out->access_fault_ns = out->faults == 0 ? 0 : fault_ns / static_cast<double>(out->faults);
  out->access_ns = (hit_ns + fault_ns) / refs;
  out->tlb_hit_rate =
      tlb_lookups == 0 ? 0 : static_cast<double>(tlb_hits) / static_cast<double>(tlb_lookups);
  out->events_per_ref = static_cast<double>(events) / refs;
  out->trace_overhead = traced_s / bare_s - 1;
  return true;
}

bool MeasureSnapshots(const dsa::SystemSpec& spec, const std::vector<TimingFs::CapturedCut>& cuts,
                      const std::string& spool_dir, const std::string& store_dir,
                      SnapshotFigures* out, std::string* why) {
  struct Tenant {
    dsa::ReferenceTrace trace;
    std::uint64_t fingerprint{0};
    std::unique_ptr<dsa::PagedLinearVm> vm;  // at the last cut, cache warm
    dsa::SectionBaseline baseline;
    std::uint64_t next_ref{0};
  };
  std::map<std::string, Tenant> tenants;
  for (const auto& [name, bytes] : SlurpDir(spool_dir)) {
    Tenant& tenant = tenants["tenant." + name];
    std::istringstream in(bytes);
    const Clock::time_point start = Clock::now();
    auto parsed = dsa::ReadReferenceTrace(&in);
    out->parse_ms += MsSince(start);
    if (!parsed.has_value()) {
      *why = "spool file " + name + " does not parse";
      return false;
    }
    tenant.trace = std::move(parsed.value());
    tenant.fingerprint = dsa::Fnv64(bytes);
  }

  const std::uint64_t spec_fingerprint = dsa::SpecFingerprint(spec);
  const dsa::PagedVmConfig config = dsa::PagedConfigFromSpec(spec);
  std::map<std::string, std::string> files;  // member file name -> bytes
  for (const TimingFs::CapturedCut& cut : cuts) {
    for (const auto& [path, bytes] : cut.files) {
      files[BaseName(path)] = bytes;
    }
    const Manifest manifest = ParseManifest(cut.manifest);
    std::map<std::string, std::vector<ManifestLink>> chains;
    for (const ManifestLink& link : manifest.links) {
      auto& chain = chains[link.member];
      if (!link.delta) {
        chain.clear();  // a chain restarts at its last full link
      }
      chain.push_back(link);
    }
    for (const auto& [member, chain] : chains) {
      auto it = tenants.find(member);
      if (it == tenants.end() || chain.back().gen != manifest.gen) {
        continue;  // the svc member, or a fallback entry of a finished tenant
      }
      Tenant& tenant = it->second;
      std::vector<std::string> links;
      for (const ManifestLink& link : chain) {
        links.push_back(files[MemberFile(member, link.gen)]);
      }
      const std::string& captured = links.back();

      auto opened = std::make_unique<dsa::PagedLinearVm>(config);
      Clock::time_point start = Clock::now();
      auto meta = dsa::OpenTenantCheckpointChain(links, spec_fingerprint, tenant.fingerprint,
                                                 tenant.trace.size(), opened.get());
      out->open_ms.push_back(MsSince(start));
      if (!meta.has_value()) {
        *why = member + ": captured chain does not open: " + meta.error().Describe();
        return false;
      }

      dsa::SectionBaseline digest;
      start = Clock::now();
      const std::string full = dsa::SealTenantCheckpointSections(*meta, *opened, nullptr, &digest);
      out->seal_full_ms.push_back(MsSince(start));
      out->full_bytes += full.size();
      ++out->full_seals;
      if (!chain.back().delta) {
        if (full != captured) {
          *why = member + ": re-sealed full cut differs from the committed bytes";
          return false;
        }
        tenant.vm = std::move(opened);
        tenant.baseline = std::move(digest);
        tenant.next_ref = meta->next_ref;
        continue;
      }

      // The service cut a delta here: carry the previous cut's VM forward
      // to this cut and seal the delta against the previous cut's digest.
      if (tenant.vm == nullptr || tenant.next_ref > meta->next_ref) {
        *why = member + ": delta cut without a previous cut";
        return false;
      }
      for (std::uint64_t i = tenant.next_ref; i < meta->next_ref; ++i) {
        tenant.vm->Step(tenant.trace.refs[static_cast<std::size_t>(i)]);
      }
      dsa::SectionBaseline next;
      start = Clock::now();
      const std::string delta =
          dsa::SealTenantCheckpointSections(*meta, *tenant.vm, &tenant.baseline, &next);
      out->seal_delta_ms.push_back(MsSince(start));
      out->delta_bytes += delta.size();
      ++out->delta_seals;
      if (delta != captured) {
        *why = member + ": re-sealed delta cut differs from the committed bytes";
        return false;
      }
      tenant.baseline = std::move(next);
      tenant.next_ref = meta->next_ref;
    }
  }

  // Replay the service's store traffic into a fresh store.
  RemoveTree(store_dir);
  dsa::CheckpointStore store(store_dir);
  if (!store.Recover().has_value()) {
    *why = "fresh replay store does not recover";
    return false;
  }
  for (const TimingFs::CapturedCut& cut : cuts) {
    const Manifest manifest = ParseManifest(cut.manifest);
    for (const auto& [path, bytes] : cut.files) {
      const std::string file = BaseName(path);
      for (const ManifestLink& link : manifest.links) {
        if (link.gen == manifest.gen && MemberFile(link.member, link.gen) == file) {
          if (link.delta) {
            store.StageDelta(link.member, bytes);
          } else {
            store.Stage(link.member, bytes);
          }
        }
      }
    }
    Clock::time_point start = Clock::now();
    auto status = store.Commit(manifest.base == manifest.gen ? dsa::CutKind::kFull
                                                             : dsa::CutKind::kDelta);
    out->commit_ms.push_back(MsSince(start));
    auto manifest_text = dsa::SystemFs().ReadFile(store_dir + "/MANIFEST");
    if (!status.has_value() || !manifest_text.has_value() || *manifest_text != cut.manifest) {
      *why = "store replay did not reproduce the committed manifest";
      return false;
    }
    if (&cut != &cuts[cuts.size() / 2]) {
      continue;
    }
    // Recover the store as the kill-and-resume pairs find it: halfway, with
    // every tenant's chain live (the last cut holds only the svc member).
    dsa::CheckpointStore reopened(store_dir);
    start = Clock::now();
    auto recovered = reopened.Recover();
    out->recover_ms = MsSince(start);
    if (!recovered.has_value() || !recovered->quarantined.empty() ||
        recovered->generation != manifest.gen) {
      *why = "replayed store does not recover the cut it committed";
      return false;
    }
  }
  return true;
}

void ReportLayers(const LayerFigures& layers, const SnapshotFigures& snaps, const TimingFs& fs,
                  std::uint64_t fs_retries, double clock_ns, Result* result) {
  // A span's interval holds about one clock read besides the call it
  // times; the layer figures are net of it.
  const auto refs = static_cast<double>(layers.refs);
  const double accesses = static_cast<double>(layers.hits + layers.faults);
  const double step_ns = layers.step_ns - clock_ns;
  const double translate_ns =
      layers.translate_ns - clock_ns * static_cast<double>(layers.translations) / refs;
  const double access_ns = layers.access_ns - clock_ns * accesses / refs;
  const double self_ns = step_ns - translate_ns - access_ns;
  Say("layers (net of %.1f ns per clock read): Step %.1f ns/ref = vm self %.1f + map translate "
      "%.1f + paging access %.1f",
      clock_ns, step_ns, self_ns, translate_ns, access_ns);
  Say("layers: untraced Step %.1f ns/ref; traced Step %.1f ns/ref gross, %.1f net; "
      "tracing overhead %.1f ns/ref gross, %.1f net",
      layers.untraced_ns, layers.step_ns, step_ns, layers.step_ns - layers.untraced_ns,
      step_ns - layers.untraced_ns);
  Say("layers: replay reproduced %" PRIu64 " faults and %" PRIu64 " write-backs over %" PRIu64
      " refs",
      layers.faults, layers.writebacks, layers.refs);
  result->Metric("vm.step_ns", step_ns, "ns");
  result->Metric("vm.self_ns", self_ns, "ns");
  result->Metric("vm.untraced_step_ns", layers.untraced_ns, "ns");
  result->Metric("tracing.overhead_ns", layers.step_ns - layers.untraced_ns, "ns");
  result->Metric("tracing.clock_read_ns", clock_ns, "ns");
  result->Metric("map.translate_ns", translate_ns, "ns");
  result->Metric("map.tlb_hit_rate", layers.tlb_hit_rate, "ratio");
  result->Metric("paging.access_hit_ns", layers.access_hit_ns - clock_ns, "ns");
  result->Metric("paging.access_fault_ns", layers.access_fault_ns - clock_ns, "ns");
  result->Metric("paging.faults", static_cast<double>(layers.faults), "count");
  result->Metric("paging.evictions", static_cast<double>(layers.evictions), "count");
  result->Metric("paging.writebacks", static_cast<double>(layers.writebacks), "count");
  result->Metric("mem.backing_slots", static_cast<double>(layers.backing_slots), "count");
  result->Metric("mem.backing_stores", static_cast<double>(layers.backing_stores), "count");
  result->Metric("mem.backing_fetches", static_cast<double>(layers.backing_fetches), "count");
  result->Metric("obs.events_per_ref", layers.events_per_ref, "events/ref");
  result->Metric("obs.trace_overhead", layers.trace_overhead, "ratio");

  Say("snapshot: %zu full seals, %zu delta seals, %zu opens, %zu store commits re-sealed "
      "byte-identical",
      snaps.seal_full_ms.size(), snaps.seal_delta_ms.size(), snaps.open_ms.size(),
      snaps.commit_ms.size());
  result->Metric("snapshot.seal_full_ms", Median(snaps.seal_full_ms), "ms");
  result->Metric("snapshot.seal_delta_ms", Median(snaps.seal_delta_ms), "ms");
  result->Metric("snapshot.full_bytes",
                 static_cast<double>(snaps.full_bytes) / static_cast<double>(snaps.full_seals),
                 "bytes");
  result->Metric("snapshot.delta_bytes",
                 static_cast<double>(snaps.delta_bytes) / static_cast<double>(snaps.delta_seals),
                 "bytes");
  result->Metric("snapshot.open_ms", Median(snaps.open_ms), "ms");
  result->Metric("store.commit_ms", Median(snaps.commit_ms), "ms");
  result->Metric("store.recover_ms", snaps.recover_ms, "ms");
  result->Metric("trace.parse_ms", snaps.parse_ms, "ms");

  // Rename and SyncDir are left out: the service never issues them
  // through the seam (RealFs renames and syncs inside WriteFileAtomic).
  for (dsa::FsOpKind kind :
       {dsa::FsOpKind::kReadFile, dsa::FsOpKind::kAppend, dsa::FsOpKind::kWriteFileAtomic,
        dsa::FsOpKind::kRemove, dsa::FsOpKind::kListDir, dsa::FsOpKind::kTruncate,
        dsa::FsOpKind::kCreateDirs, dsa::FsOpKind::kFileSize}) {
    const TimingFs::KindStats& stats = fs.kinds()[static_cast<int>(kind)];
    const std::string name = dsa::ToString(kind);
    result->Metric("fs.ops." + name, static_cast<double>(stats.ops), "count");
    result->Metric("fs.ms." + name, stats.seconds * 1e3, "ms");
  }
  result->Metric("fs.bytes_written", static_cast<double>(fs.bytes_written()), "bytes");
  result->Metric("fs.retries", static_cast<double>(fs_retries), "count");
}

void RunTracedWorkload(const Options& options,
                       const std::vector<std::vector<const dsa::ReferenceTrace*>>& jobs,
                       const ServiceSetup& service, Result* result) {
  const double clock_ns = ClockReadNs();
  LayerFigures layers;
  std::string why;
  if (!MeasureLayers(dsa::PagedConfigFromSpec(service.spec), jobs, &layers, &why)) {
    result->Fail(why);
    return;
  }
  result->attempted += layers.refs;

  // One uninterrupted service run with its cuts captured, then one
  // kill-and-resume pair, all through the same timing Fs.
  const std::string root = options.work_dir + "/traced";
  TimingFs timing(&dsa::SystemFs());
  timing.SetCapture(true);
  const ServiceRun run = ServeUninterrupted(service, root, &timing);
  timing.SetCapture(false);
  const int kill_after = static_cast<int>(std::max<std::uint64_t>(1, run.commits / 2));
  const ServiceRun pair = ServeKilledAndResumed(service, root, kill_after, &timing);
  RemoveTree(root);
  if (!run.error.empty() || !pair.error.empty()) {
    result->Fail("service run: " + run.error + pair.error);
    return;
  }
  result->failed += run.failures + pair.failures;
  SnapshotFigures snaps;
  if (!MeasureSnapshots(service.spec, timing.cuts(), service.spool_dir,
                        options.work_dir + "/replay-store", &snaps, &why)) {
    result->Fail(why);
    return;
  }
  RemoveTree(options.work_dir + "/replay-store");
  const std::uint64_t retries =
      run.first.io_retries + pair.first.io_retries + pair.second.io_retries;
  ReportLayers(layers, snaps, timing, retries, clock_ns, result);
}

}  // namespace perfbench
