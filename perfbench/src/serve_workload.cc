// The serve-ckpt workload: an in-process ServiceLoop run as a closed batch
// of 8 working-set tenants of 200k references each, all spooled up front,
// stepped on 2 lanes, checkpointing about 60 times with every 4th cut full
// and the rest deltas.  Each kill-and-resume pair stops the service after
// half the reference run's commits and resumes it with a second
// ServiceLoop; the resumed output tree must equal an uninterrupted run's.
//
// Paging does little here (about 1 fault per 1000 refs).  The work is
// snapshot encode/decode, durable IO, the checkpoint store, the per-tenant
// event JSONL, spool parsing and the lanes.

#include <cinttypes>
#include <filesystem>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr int kTenants = 8;
constexpr std::size_t kPhases = 10;
constexpr std::size_t kPhaseRefs = 20'000;  // 200k refs per tenant
constexpr dsa::WordCount kRegionWords = 512;  // one page
constexpr std::uint64_t kRegions = 512;       // a 2^18-word name-space extent
constexpr std::size_t kRegionsPerPhase = 12;  // well inside the 32 frames
constexpr double kStayProbability = 0.9;
constexpr int kCommits = 60;
// The least number of kill-and-resume pairs, and the start-only samples
// (set-up and restore) of every run.
constexpr ServeSamples kSamples{.min_pairs = 2, .starts = 3, .restores = 3};

dsa::SystemSpec ServeSpec() {
  dsa::SystemSpec spec;
  spec.label = "serve-ckpt";
  spec.core_words = 16384;
  spec.page_words = 512;  // 32 frames per tenant
  spec.tlb_entries = 8;
  spec.backing_level = dsa::MakeDrumLevel("drum", 1u << 20, /*word_time=*/4,
                                          /*rotational_delay=*/6000);
  return spec;
}

// Working-set phase model: each phase picks kRegionsPerPhase page-sized
// regions; a reference stays on the current region with kStayProbability,
// else moves to another region of the phase; 25% are writes.
dsa::ReferenceTrace MakeTenantTrace(std::uint64_t seed, int tenant) {
  Rng rng(seed * 1000003 + static_cast<std::uint64_t>(tenant));
  dsa::ReferenceTrace trace;
  trace.label = "tenant-" + std::to_string(tenant);
  trace.refs.reserve(kPhases * kPhaseRefs);
  for (std::size_t phase = 0; phase < kPhases; ++phase) {
    std::vector<std::uint64_t> regions;
    for (std::size_t i = 0; i < kRegionsPerPhase; ++i) {
      regions.push_back(rng.Below(kRegions));
    }
    std::uint64_t current = regions[0];
    for (std::size_t i = 0; i < kPhaseRefs; ++i) {
      if (rng.Unit() >= kStayProbability) {
        current = regions[rng.Below(kRegionsPerPhase)];
      }
      const std::uint64_t word = current * kRegionWords + rng.Below(kRegionWords);
      trace.refs.push_back(dsa::Reference{
          dsa::Name{word}, rng.Unit() < 0.25 ? dsa::AccessKind::kWrite : dsa::AccessKind::kRead});
    }
  }
  return trace;
}

}  // namespace

void RunServeWorkload(const Options& options, Result* result) {
  const Clock::time_point start = Clock::now();
  ServiceSetup setup;
  setup.spec = ServeSpec();
  setup.spool_dir = options.work_dir + "/spool";
  RemoveTree(setup.spool_dir);
  std::filesystem::create_directories(setup.spool_dir);

  // The service clock advances by every tenant's simulated cycles, so the
  // tenants' bare cycle totals fix the cadence that cuts about kCommits
  // times.
  std::vector<dsa::ReferenceTrace> traces;
  std::uint64_t refs = 0;
  dsa::Cycles cycles = 0;
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    traces.push_back(MakeTenantTrace(options.seed, tenant));
    dsa::PagedLinearVm vm(dsa::PagedConfigFromSpec(setup.spec));
    for (const dsa::Reference& ref : traces.back().refs) {
      vm.Step(ref);
    }
    cycles += vm.clock().now();
    refs += traces.back().size();
    SpoolTrace(traces.back(), setup.spool_dir + "/tenant-" + std::to_string(tenant) + ".trace");
  }
  setup.checkpoint_every = cycles / kCommits;
  Say("serve-ckpt: seed %" PRIu64 ", %d tenants, %" PRIu64 " refs, %" PRIu64
      " service cycles, checkpoint every %" PRIu64 " cycles, every %dth cut full, %u lanes",
      options.seed, kTenants, refs, cycles, setup.checkpoint_every, kFullEvery, kServeLanes);

  if (options.trace) {
    std::vector<std::vector<const dsa::ReferenceTrace*>> jobs;
    for (const dsa::ReferenceTrace& trace : traces) {
      jobs.push_back({&trace});
    }
    RunTracedWorkload(options, jobs, setup, result);
    return;
  }

  TimingFs timing(&dsa::SystemFs());
  ServiceFigures service;
  const bool verified = ServeAndVerify(
      setup, options.work_dir + "/serve", refs, kSamples,
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds)),
      &timing, result, &service);
  result->attempted += service.attempted;
  result->failed += service.failures;
  if (!verified) {
    return;
  }

  const std::vector<double>& commits = timing.commit_ms();
  Say("serve-ckpt: %zu kill-and-resume pairs (kill after %d of %" PRIu64 " commits), %zu "
      "output files byte-identical after every resume; %zu commit samples",
      service.refs_per_s.size(), service.kill_after, service.reference_commits,
      service.output_files, commits.size());
  Say("serve-ckpt: %s refs/s per pair; restore %s ms; set-up %s s",
      Spread(service.refs_per_s).c_str(), Spread(service.restore_ms).c_str(),
      Spread(service.setup_s).c_str());
  result->Metric("refs_per_s", Median(service.refs_per_s), "1/s");
  result->Metric("setup_s", Median(service.setup_s), "s");
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");
  result->Metric("commit_ms_p50", Median(commits), "ms");
  result->Metric("commit_ms_p90", Quantile(commits, 0.9), "ms");
  result->Metric("restore_ms", Median(service.restore_ms), "ms");
  result->Metric("ckpt_bytes_per_commit", service.ckpt_bytes_per_commit, "bytes");
  Say("serve-ckpt: failed_frac %.6g (%" PRIu64 " of %" PRIu64 " tenants + commits)",
      static_cast<double>(result->failed) / static_cast<double>(result->attempted),
      result->failed, result->attempted);
}

}  // namespace perfbench
