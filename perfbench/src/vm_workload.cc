// The vm-hot and vm-thrash workloads: one PagedLinearVm with a 24-bit
// linear name space, 64-word pages, 4Ki frames, LRU replacement, demand
// fetch and an 8-entry TLB.  Core is kept small enough that the VM's hot
// state stays in the host's caches: on a shared host, a DRAM-bound Step
// times the host's memory system more than the simulator (see README.md).
//
//   vm-hot     Zipf(0.99) over 2^18 words — exactly the 4Ki pages core
//              holds — with 25% writes, after a warm-up pass that faults
//              every page in.  Only the hit path works: translate and TLB,
//              residency lookup and LRU touch, Step bookkeeping.
//   vm-thrash  uniform references over 2^20 words (4x overcommit) with 50%
//              writes, after the prefix of the same stream that fills core.
//              About 3 refs in 4 fault and over half the evictions write
//              back: replacement, backing-store payloads, transfer charge
//              and page-table map/unmap dominate.
//
// Each repetition builds and warms a fresh VM, then steps the timed
// references; every repetition must end with identical faults, write-backs,
// cycles and space-time.  kProbeRounds probe rounds are spread over the
// run.  Each samples set-up time (a fresh VM built and warmed, then
// destroyed) and serves a one-tenant service over the same VM geometry,
// which serves the start of the same reference stream from cold; the
// checkpoint metrics come from it.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <filesystem>
#include <unordered_set>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr dsa::WordCount kPageWords = 64;
constexpr std::uint64_t kFrames = 1u << 12;
constexpr int kAddressBits = 24;
constexpr std::uint64_t kHotPages = kFrames;       // 2^18 words
constexpr std::uint64_t kThrashPages = 4 * kFrames;  // 2^20 words
constexpr double kZipfTheta = 0.99;

// Timed references per repetition.  The hot trace is stepped kHotPasses
// times per repetition, so 10M Steps cost 16 MB of trace, not 160 MB.
constexpr std::size_t kHotRefs = 1'000'000;
constexpr int kHotPasses = 10;
constexpr std::size_t kThrashRefs = 1'500'000;
constexpr std::size_t kTracedThrashRefs = 300'000;
// The checkpoint probe serves this many references past the warm-up, and
// checkpoints about kProbeCommits times on the way.  Each of its rounds
// takes a fixed number of samples, whatever the host's speed.
constexpr std::size_t kProbeRefs = 6'000;
constexpr int kProbeCommits = 8;
constexpr int kProbeRounds = 8;
constexpr ServeSamples kProbeSamples{.min_pairs = 1, .starts = 0, .restores = 1};
constexpr int kSetupSamplesPerRound = 25;

// Throughput windows: about 0.05-0.15 s of stepping each.  refs_per_s is
// their lower quartile, the rate the VM sustains in three windows of four.
// A shared host can run in a base state with bursts up to ~1.6x faster
// that come and go within seconds; the share of windows caught in a burst
// varies from run to run and drags a median or mean with it, while the
// lower quartile stays on the base state.
constexpr std::size_t kHotWindowRefs = 500'000;
constexpr std::size_t kThrashWindowRefs = 100'000;
constexpr int kMinReps = 2;

dsa::SystemSpec VmSpec(const char* label) {
  dsa::SystemSpec spec;
  spec.label = label;
  spec.core_words = kFrames * kPageWords;
  spec.page_words = kPageWords;
  spec.tlb_entries = 8;
  spec.replacement = dsa::ReplacementStrategyKind::kLru;
  spec.fetch = dsa::FetchStrategyKind::kDemand;
  spec.backing_level = dsa::MakeDrumLevel("drum", dsa::WordCount{1} << kAddressBits,
                                          /*word_time=*/4, /*rotational_delay=*/6000);
  return spec;
}

dsa::Reference Ref(std::uint64_t word, bool write) {
  return dsa::Reference{dsa::Name{word}, write ? dsa::AccessKind::kWrite : dsa::AccessKind::kRead};
}

// vm-hot: the warm-up reads every page once in a seeded order; the timed
// trace draws page ranks from Zipf(theta) over a seeded permutation of the
// pages, and a uniform word within the page.
void MakeHotTraces(std::uint64_t seed, dsa::ReferenceTrace* warmup, dsa::ReferenceTrace* timed) {
  Rng rng(seed);
  std::vector<std::uint64_t> pages(kHotPages);
  for (std::uint64_t i = 0; i < kHotPages; ++i) {
    pages[i] = i;
  }
  for (std::uint64_t i = kHotPages - 1; i > 0; --i) {
    std::swap(pages[i], pages[rng.Below(i + 1)]);
  }
  warmup->label = "vm-hot warm-up";
  for (std::uint64_t page : pages) {
    warmup->refs.push_back(Ref(page * kPageWords, false));
  }
  std::vector<double> cdf(kHotPages);
  double sum = 0;
  for (std::uint64_t rank = 0; rank < kHotPages; ++rank) {
    sum += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfTheta);
    cdf[rank] = sum;
  }
  timed->label = "vm-hot zipf";
  timed->refs.reserve(kHotRefs);
  for (std::size_t i = 0; i < kHotRefs; ++i) {
    const double u = rng.Unit() * sum;
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(kHotPages - 1)));
    timed->refs.push_back(Ref(pages[rank] * kPageWords + rng.Below(kPageWords), rng.Unit() < 0.25));
  }
}

// vm-thrash: one uniform stream over kThrashPages pages with 50% writes;
// the warm-up is its prefix up to the reference that touches the 4Ki-th
// distinct page (core is then full), the timed trace what follows.
void MakeThrashTraces(std::uint64_t seed, dsa::ReferenceTrace* warmup,
                      dsa::ReferenceTrace* timed) {
  Rng rng(seed);
  auto next = [&] {
    const std::uint64_t word = rng.Below(kThrashPages * kPageWords);
    return Ref(word, rng.Unit() < 0.5);
  };
  warmup->label = "vm-thrash fill";
  std::unordered_set<std::uint64_t> touched;
  while (touched.size() < kFrames) {
    const dsa::Reference ref = next();
    touched.insert(ref.name.value / kPageWords);
    warmup->refs.push_back(ref);
  }
  timed->label = "vm-thrash uniform";
  timed->refs.reserve(kThrashRefs);
  for (std::size_t i = 0; i < kThrashRefs; ++i) {
    timed->refs.push_back(next());
  }
}

// The probe tenant: the warm-up plus the first kProbeRefs timed refs,
// served from cold, with a checkpoint cadence that cuts about
// kProbeCommits times.
struct Probe {
  ServiceSetup setup;
  dsa::ReferenceTrace trace;
};

Probe MakeProbe(const dsa::SystemSpec& spec, const dsa::ReferenceTrace& warmup,
                const dsa::ReferenceTrace& timed, const std::string& dir) {
  Probe probe;
  probe.trace.label = "probe";
  probe.trace.refs = warmup.refs;
  probe.trace.refs.insert(probe.trace.refs.end(), timed.refs.begin(),
                          timed.refs.begin() + static_cast<std::ptrdiff_t>(kProbeRefs));
  dsa::PagedLinearVm vm(dsa::PagedConfigFromSpec(spec));
  for (const dsa::Reference& ref : probe.trace.refs) {
    vm.Step(ref);
  }
  probe.setup.spec = spec;
  probe.setup.spool_dir = dir + "/probe-spool";
  probe.setup.checkpoint_every = std::max<dsa::Cycles>(1, vm.clock().now() / kProbeCommits);
  RemoveTree(probe.setup.spool_dir);
  std::filesystem::create_directories(probe.setup.spool_dir);
  SpoolTrace(probe.trace, probe.setup.spool_dir + "/probe.trace");
  return probe;
}

}  // namespace

void RunVmWorkload(const Options& options, bool hot, Result* result) {
  const Clock::time_point start = Clock::now();
  const dsa::SystemSpec spec = VmSpec(hot ? "vm-hot" : "vm-thrash");
  dsa::ReferenceTrace warmup;
  dsa::ReferenceTrace timed;
  if (hot) {
    MakeHotTraces(options.seed, &warmup, &timed);
  } else {
    MakeThrashTraces(options.seed, &warmup, &timed);
  }
  const int passes = hot ? kHotPasses : 1;
  const std::size_t window_refs = hot ? kHotWindowRefs : kThrashWindowRefs;
  Say("%s: seed %" PRIu64 ", %zu warm-up refs, %zu timed refs x %d passes per repetition",
      spec.label.c_str(), options.seed, warmup.size(), timed.size(), passes);
  const Probe probe = MakeProbe(spec, warmup, timed, options.work_dir);
  if (options.trace) {
    // The traced run steps four systems in lockstep, so on vm-thrash it
    // steps only a prefix of the timed trace, to stay well inside a run.
    dsa::ReferenceTrace prefix;
    prefix.refs.assign(timed.refs.begin(),
                       timed.refs.begin() + static_cast<std::ptrdiff_t>(kTracedThrashRefs));
    RunTracedWorkload(options, {{&warmup, hot ? &timed : &prefix}}, probe.setup, result);
    return;
  }

  const dsa::PagedVmConfig config = dsa::PagedConfigFromSpec(spec);
  auto build_and_warm = [&] {
    auto vm = std::make_unique<dsa::PagedLinearVm>(config);
    for (const dsa::Reference& ref : warmup.refs) {
      vm->Step(ref);
    }
    return vm;
  };

  // A probe round takes set-up samples and serves the probe tenant:
  // uninterrupted, killed and resumed, and resumed-only.  The rounds are
  // spread over the run, so a slow spell of the host's CPU or disk moves a
  // share of the set-up, commit and restore samples, not all of them.  A
  // failed round counts the probe's figures and ends the run.
  TimingFs timing(&dsa::SystemFs());
  ServiceFigures service;
  std::vector<double> setup_s;
  double probe_s = 0;
  int rounds = 0;
  auto probe_round = [&] {
    const Clock::time_point probing = Clock::now();
    for (int sample = 0; sample < kSetupSamplesPerRound; ++sample) {
      const Clock::time_point built = Clock::now();
      build_and_warm();
      setup_s.push_back(SecondsSince(built));
    }
    const double bytes_per_commit = service.ckpt_bytes_per_commit;
    // A deadline already passed: only the round's fixed samples.
    bool ok = ServeAndVerify(probe.setup, options.work_dir + "/probe", probe.trace.size(),
                             kProbeSamples, probing, &timing, result, &service);
    if (ok && rounds > 0 && service.ckpt_bytes_per_commit != bytes_per_commit) {
      result->Fail("checkpoint bytes per commit differ between probe rounds");
      ok = false;
    }
    if (!ok) {
      result->attempted += service.attempted;
      result->failed += service.failures;
      return false;
    }
    ++rounds;
    probe_s += SecondsSince(probing);
    return true;
  };
  auto round_due = [&] {
    return rounds < kProbeRounds && SecondsSince(start) >= options.seconds * rounds / kProbeRounds;
  };

  std::vector<double> refs_per_s;
  dsa::VmReport first;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  int reps = 0;
  for (; reps < kMinReps || SecondsSince(start) < options.seconds; ++reps) {
    while (round_due()) {
      if (!probe_round()) {
        return;
      }
    }
    auto vm = build_and_warm();
    // Each window of timed references is one throughput sample, so a short
    // stall on the host moves one sample, not the reported quartile.
    for (int pass = 0; pass < passes; ++pass) {
      for (std::size_t begin = 0; begin < timed.size(); begin += window_refs) {
        const std::size_t end = std::min(timed.size(), begin + window_refs);
        const Clock::time_point stepping = Clock::now();
        for (std::size_t i = begin; i < end; ++i) {
          vm->Step(timed.refs[i]);
        }
        refs_per_s.push_back(static_cast<double>(end - begin) / SecondsSince(stepping));
      }
    }
    const dsa::VmReport report = vm->Snapshot();
    attempted += report.references;
    failed += report.bounds_violations + report.reliability.failed_accesses;
    if (reps == 0) {
      first = report;
      Say("%s: %" PRIu64 " refs, %" PRIu64 " faults, %" PRIu64 " write-backs, %" PRIu64
          " cycles per repetition",
          spec.label.c_str(), report.references, report.faults, report.writebacks,
          report.total_cycles);
    } else if (report.faults != first.faults || report.writebacks != first.writebacks ||
               report.total_cycles != first.total_cycles ||
               report.space_time.active != first.space_time.active ||
               report.space_time.waiting != first.space_time.waiting) {
      result->Fail("repetition " + std::to_string(reps) + " diverged from repetition 0");
    }
  }
  while (rounds < kProbeRounds) {
    if (!probe_round()) {
      return;
    }
  }
  // Failures: abandoned refs and bounds violations out of all refs, plus
  // the probe's rejected tenants, IO give-ups and quarantined cuts out of
  // its tenants and commits.
  result->attempted += attempted + service.attempted;
  result->failed += failed + service.failures;

  const std::vector<double>& commits = timing.commit_ms();
  Say("%s: %d repetitions, %zu throughput windows: %s refs/s", spec.label.c_str(), reps,
      refs_per_s.size(), Spread(refs_per_s).c_str());
  Say("%s: set-up %s s", spec.label.c_str(), Spread(setup_s).c_str());
  Say("%s: probe (%d rounds, %.1f s): %zu kill-and-resume pairs (kill after %d of %" PRIu64
      " commits), %zu output files byte-identical after every resume; restore %s ms; %zu "
      "commit samples",
      spec.label.c_str(), rounds, probe_s, service.refs_per_s.size(), service.kill_after,
      service.reference_commits, service.output_files, Spread(service.restore_ms).c_str(),
      commits.size());
  result->Metric("refs_per_s", Quantile(refs_per_s, 0.25), "1/s");
  result->Metric("setup_s", Median(setup_s), "s");
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");
  result->Metric("commit_ms_p50", Median(commits), "ms");
  result->Metric("commit_ms_p90", Quantile(commits, 0.9), "ms");
  result->Metric("restore_ms", Median(service.restore_ms), "ms");
  result->Metric("ckpt_bytes_per_commit", service.ckpt_bytes_per_commit, "bytes");
  Say("%s: failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")", spec.label.c_str(),
      static_cast<double>(result->failed) / static_cast<double>(result->attempted),
      result->failed, result->attempted);
}

}  // namespace perfbench
