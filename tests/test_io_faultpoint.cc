// Fault-point sweep for the durable-IO seam (ctest label: faultpoint).
//
// The headline matrix: count the N filesystem operations a reference serve
// run performs, then for EVERY op index k <= N run the service again with
//
//   (a) a transient EIO window opening at op k — the service must retry,
//       degrade if the window outlasts the retry budget, keep stepping
//       tenants, recover when the window closes, and land an output tree
//       byte-identical to the undisturbed run (IO.txt/IO.events.jsonl
//       excepted: those exist precisely BECAUSE the run was disturbed); or
//   (b) a simulated crash at op k (optionally tearing the write at a byte
//       offset) — the run must die like SIGKILL would, and a clean restart
//       must finish with a byte-identical tree, at every possible crash
//       point, not just at commit boundaries like the resume matrix.
//
// Alongside: the persistent-ENOSPC endgame (every tenant completes, the
// daemon exits alive-but-degraded with honest giveup/degraded counters) and
// the degraded -> recovered round trip with its IO report and event stream.
//
// The sweeps shard over the SweepRunner; every cell owns its directories
// and its own Fs chain, so the op counters stay deterministic per cell.
// Every cell runs at checkpoint_full_every=3, so the checkpoints under
// fault are mixed full+delta chains — the sweep doubles as the delta
// path's crash/transient-fault certification at every op index.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/core/fsio.h"
#include "src/exec/sweep_runner.h"
#include "src/serve/service.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"
#include "src/vm/system_builder.h"

namespace dsa {
namespace {

namespace fs = std::filesystem;

SystemSpec ServeSpec() {
  SystemSpec spec;
  spec.label = "faultpoint-test";
  spec.core_words = 2048;
  spec.page_words = 128;  // 16 frames
  spec.tlb_entries = 4;
  spec.backing_level = MakeDrumLevel("drum", 1u << 17, /*word_time=*/2,
                                     /*rotational_delay=*/500);
  return spec;
}

struct Scratch {
  explicit Scratch(const std::string& tag)
      : root(fs::temp_directory_path() /
             ("dsa_faultpoint_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(root);
    fs::create_directories(root / "spool");
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(root, ec);
  }
  std::string Spool() const { return (root / "spool").string(); }
  std::string Out(const std::string& name) const { return (root / name).string(); }

  fs::path root;
};

void SpoolTenant(const Scratch& scratch, const std::string& name,
                 std::uint64_t seed, std::size_t phase_length) {
  WorkingSetTraceParams params;
  params.extent = 1 << 13;
  params.region_words = 128;
  params.regions_per_phase = 20;  // more regions than frames: steady faulting
  params.phase_length = phase_length;
  params.phases = 2;
  params.seed = seed;
  const ReferenceTrace trace = MakeWorkingSetTrace(params);
  std::ofstream out(fs::path(scratch.Spool()) / name);
  ASSERT_TRUE(out) << name;
  WriteReferenceTrace(trace, &out);
}

void SpoolTwoTenants(const Scratch& scratch) {
  SpoolTenant(scratch, "alpha.trace", 11, /*phase_length=*/600);
  SpoolTenant(scratch, "beta.trace", 22, /*phase_length=*/400);
}

ServeConfig ConfigFor(const Scratch& scratch, const std::string& tag) {
  ServeConfig config;
  config.spool_dir = scratch.Spool();
  config.out_dir = scratch.Out(tag + ".out");
  config.checkpoint_dir = scratch.Out(tag + ".ckpt");
  config.checkpoint_every = 12000;
  // Every third commit full, the rest deltas: both sweeps then inject their
  // faults into mixed full+delta chains at every op index, proving the
  // delta path restores byte-identically under exactly the same IO abuse
  // the full-cut-only path survives.
  config.checkpoint_full_every = 3;
  config.rescan_spool = false;
  return config;
}

std::map<std::string, std::string> SlurpDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

bool IsIoReportFile(const std::string& name) {
  return name == "IO.txt" || name == "IO.events.jsonl";
}

// Byte-compares `actual` against `expected`, tolerating (only) the IO
// report files on the actual side.  Returns "" on match.
std::string DiffIgnoringIoReport(const std::map<std::string, std::string>& expected,
                                 const std::map<std::string, std::string>& actual) {
  for (const auto& [name, bytes] : expected) {
    auto it = actual.find(name);
    if (it == actual.end()) {
      return "missing output " + name;
    }
    if (it->second != bytes) {
      return name + " differs from the undisturbed run";
    }
  }
  for (const auto& [name, bytes] : actual) {
    if (expected.find(name) == expected.end() && !IsIoReportFile(name)) {
      return "unexpected extra output " + name;
    }
  }
  return std::string();
}

// The reference run, instrumented only to COUNT ops: an empty fault
// schedule injects nothing, so this both measures N and proves the
// decorator is transparent (the tree must match an un-instrumented run).
struct Reference {
  std::map<std::string, std::string> tree;
  std::uint64_t ops{0};
};

Reference RunReference(const Scratch& scratch) {
  Reference ref;
  ServeConfig plain_config = ConfigFor(scratch, "plain");
  {
    ServiceLoop loop(ServeSpec(), plain_config);
    auto outcome = loop.Run();
    EXPECT_TRUE(outcome.has_value());
    if (outcome.has_value()) {
      EXPECT_TRUE(outcome->finished);
      EXPECT_FALSE(outcome->degraded);
      EXPECT_EQ(outcome->io_retries, 0u);
      EXPECT_EQ(outcome->io_giveups, 0u);
    }
  }
  ref.tree = SlurpDir(plain_config.out_dir);
  EXPECT_EQ(ref.tree.count("IO.txt"), 0u)
      << "a clean run must not grow an IO report";

  FaultInjectingFs counter(&SystemFs(), FsFaultConfig{});
  ServeConfig config = ConfigFor(scratch, "ref");
  config.fs = &counter;
  ServiceLoop loop(ServeSpec(), config);
  auto outcome = loop.Run();
  EXPECT_TRUE(outcome.has_value());
  if (outcome.has_value()) {
    EXPECT_TRUE(outcome->finished);
  }
  ref.ops = counter.ops_issued();
  EXPECT_EQ(counter.faults_injected(), 0u);
  const auto instrumented = SlurpDir(config.out_dir);
  EXPECT_EQ(ref.tree, instrumented)
      << "an empty fault schedule must be byte-transparent";
  return ref;
}

// Restarts the service with a clean filesystem until it finishes, the way
// the daemon supervisor would after a crash; returns "" or a failure.
std::string FinishCleanly(ServeConfig config,
                          const std::map<std::string, std::string>& expected,
                          const std::string& tag) {
  config.fs = nullptr;
  for (int attempt = 0; attempt < 4; ++attempt) {
    ServiceLoop loop(ServeSpec(), config);
    auto outcome = loop.Run();
    if (!outcome.has_value()) {
      return tag + ": clean restart errored: " + outcome.error().Describe();
    }
    if (outcome->finished) {
      if (outcome->degraded) {
        return tag + ": clean restart ended degraded";
      }
      const auto actual = SlurpDir(config.out_dir);
      if (actual != expected) {
        const std::string diff = DiffIgnoringIoReport(expected, actual);
        return tag + ": " + (diff.empty() ? "IO report left by a clean restart" : diff);
      }
      return std::string();
    }
  }
  return tag + ": service never finished after restarts";
}

TEST(IoFaultPointTest, TransientWindowAtEveryOpHealsByteIdentical) {
  Scratch scratch("eio");
  SpoolTwoTenants(scratch);
  const Reference ref = RunReference(scratch);
  ASSERT_GE(ref.ops, 20u) << "reference run too small for a meaningful sweep";

  // The window outlasts the per-op retry budget (4 tries) but not the
  // final-flush re-attempts (8 x 4), so every hit gives up at least once,
  // degrades, and still heals before the loop runs out of patience.
  SweepRunner runner(/*jobs=*/4);
  const std::vector<std::string> failures =
      runner.Run(ref.ops, [&](std::size_t cell) -> std::string {
        const std::uint64_t k = cell + 1;
        const std::string tag = "eio" + std::to_string(k);
        FsFaultConfig schedule;
        FsFaultWindow window;
        window.first_op = k;
        window.ops = 24;
        window.err = EIO;
        schedule.windows.push_back(window);
        FaultInjectingFs faulty(&SystemFs(), schedule);
        ServeConfig config = ConfigFor(scratch, tag);
        config.fs = &faulty;
        ServiceLoop loop(ServeSpec(), config);
        auto outcome = loop.Run();
        if (faulty.faults_injected() == 0) {
          return tag + ": the window never fired (op numbering drifted?)";
        }
        if (!outcome.has_value()) {
          // The window swallowed startup (spool admission / store recovery
          // have no committed state to limp along with): a typed
          // environment error, answered by a supervisor restart.
          return FinishCleanly(config, ref.tree, tag);
        }
        if (!outcome->finished) {
          return tag + ": loop stopped without a kill point";
        }
        if (outcome->degraded) {
          return tag + ": transient window must heal before exit";
        }
        if (outcome->io_retries == 0 && outcome->io_giveups == 0) {
          return tag + ": injected faults left no retry/giveup trace";
        }
        const std::string diff = DiffIgnoringIoReport(ref.tree, SlurpDir(config.out_dir));
        return diff.empty() ? std::string() : tag + ": " + diff;
      });
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST(IoFaultPointTest, CrashAtEveryOpRestartsByteIdentical) {
  Scratch scratch("crash");
  SpoolTwoTenants(scratch);
  const Reference ref = RunReference(scratch);
  ASSERT_GE(ref.ops, 20u);

  SweepRunner runner(/*jobs=*/4);
  const std::vector<std::string> failures =
      runner.Run(ref.ops, [&](std::size_t cell) -> std::string {
        const std::uint64_t k = cell + 1;
        const std::string tag = "crash" + std::to_string(k);
        FsFaultConfig schedule;
        FsFaultWindow window;
        window.first_op = k;
        window.crash = true;
        // Tear write ops at a rotating byte offset, so the sweep also
        // covers partially-persisted appends and half-written temp files.
        window.torn_bytes = k % 13;
        schedule.windows.push_back(window);
        FaultInjectingFs faulty(&SystemFs(), schedule);
        ServeConfig config = ConfigFor(scratch, tag);
        config.fs = &faulty;
        ServiceLoop loop(ServeSpec(), config);
        auto outcome = loop.Run();
        if (outcome.has_value()) {
          return tag + ": a crashed filesystem cannot serve to completion";
        }
        if (!faulty.halted()) {
          return tag + ": crash window fired without latching halted()";
        }
        return FinishCleanly(config, ref.tree, tag);
      });
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST(IoFaultPointTest, PersistentEnospcFinishesDegradedButAlive) {
  Scratch scratch("enospc");
  SpoolTwoTenants(scratch);
  const Reference ref = RunReference(scratch);
  ASSERT_GE(ref.ops, 20u);

  // The disk "fills" halfway through the run and never recovers.  The
  // daemon must still step every tenant to completion and exit finished —
  // degraded, with honest counters — never hang or abort.
  FsFaultConfig schedule;
  FsFaultWindow window;
  window.first_op = ref.ops / 2;
  window.ops = 0;  // persistent
  window.err = ENOSPC;
  schedule.windows.push_back(window);
  FaultInjectingFs faulty(&SystemFs(), schedule);
  ServeConfig config = ConfigFor(scratch, "enospc");
  config.fs = &faulty;
  ServiceLoop loop(ServeSpec(), config);
  auto outcome = loop.Run();
  ASSERT_TRUE(outcome.has_value()) << outcome.error().Describe();
  EXPECT_TRUE(outcome->finished) << "degraded is not dead";
  EXPECT_TRUE(outcome->degraded);
  EXPECT_EQ(outcome->tenants_completed, 2u)
      << "tenants must keep stepping while durable IO is down";
  EXPECT_GT(outcome->io_giveups, 0u);
  EXPECT_GT(outcome->degraded_cycles, 0u);
  EXPECT_GT(outcome->reports_unwritten, 0u);
}

TEST(IoFaultPointTest, DegradedRecoveredRoundTripReportsItself) {
  Scratch scratch("roundtrip");
  SpoolTwoTenants(scratch);
  const Reference ref = RunReference(scratch);
  ASSERT_GE(ref.ops, 20u);

  FsFaultConfig schedule;
  FsFaultWindow window;
  window.first_op = ref.ops / 2;
  window.ops = 24;
  window.err = EIO;
  schedule.windows.push_back(window);
  FaultInjectingFs faulty(&SystemFs(), schedule);
  ServeConfig config = ConfigFor(scratch, "roundtrip");
  config.fs = &faulty;
  ServiceLoop loop(ServeSpec(), config);
  auto outcome = loop.Run();
  ASSERT_TRUE(outcome.has_value()) << outcome.error().Describe();
  ASSERT_TRUE(outcome->finished);
  EXPECT_FALSE(outcome->degraded) << "the window closed; the service must re-arm";
  EXPECT_GT(outcome->io_giveups, 0u);
  EXPECT_GT(outcome->degraded_cycles, 0u);
  EXPECT_EQ(outcome->reports_unwritten, 0u);

  const auto actual = SlurpDir(config.out_dir);
  EXPECT_EQ(DiffIgnoringIoReport(ref.tree, actual), "");
  // The disturbance is the one thing that MAY differ from the clean tree,
  // and it must say what happened.
  ASSERT_EQ(actual.count("IO.txt"), 1u);
  const std::string& io = actual.at("IO.txt");
  EXPECT_NE(io.find("io_retries"), std::string::npos) << io;
  EXPECT_NE(io.find("io_giveups"), std::string::npos) << io;
  EXPECT_NE(io.find("degraded_cycles"), std::string::npos) << io;
  ASSERT_EQ(actual.count("IO.events.jsonl"), 1u);
  const std::string& events = actual.at("IO.events.jsonl");
  EXPECT_NE(events.find("service-degraded"), std::string::npos) << events;
  EXPECT_NE(events.find("service-recovered"), std::string::npos) << events;
}

}  // namespace
}  // namespace dsa
