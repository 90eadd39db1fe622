#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>

#include "perfbench.h"
#include "src/trace/trace_io.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

dsa::ServeConfig ConfigFor(const ServiceSetup& setup, const std::string& root, TimingFs* timing) {
  dsa::ServeConfig config;
  config.spool_dir = setup.spool_dir;
  config.out_dir = root + "/out";
  config.checkpoint_dir = root + "/ckpt";
  config.checkpoint_every = setup.checkpoint_every;
  config.checkpoint_full_every = kFullEvery;
  config.rescan_spool = false;  // a closed batch: everything is spooled up front
  config.lanes = kServeLanes;
  config.fs = timing;
  timing->SetCheckpointDir(config.checkpoint_dir);
  return config;
}

// Writes back the file system's pending data and metadata: spool files,
// trees removed or copied since the last run, the build's output.  An
// fsync commits the file system's journal, so without this the first
// fsyncs of the next run would pay for them.
void Settle(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

// Constructs a ServiceLoop and runs it; false on an environment error or
// a start the timing Fs did not see.  The first call of a run fills
// setup_s (construction plus start), a resumed call restore_ms (start).
bool ServeOnce(const ServiceSetup& setup, const dsa::ServeConfig& config, bool resumed,
               TimingFs* timing, ServiceRun* run, dsa::ServeOutcome* outcome) {
  Settle(setup.spool_dir);
  const Clock::time_point built = Clock::now();
  auto loop = std::make_unique<dsa::ServiceLoop>(setup.spec, config);
  const double construct_s = SecondsSince(built);
  timing->ArmStart();
  const Clock::time_point start = Clock::now();
  auto result = loop->Run();
  run->run_s += SecondsSince(start);
  if (!result.has_value()) {
    run->error = result.error().Describe();
    return false;
  }
  if (timing->start_ms() < 0) {
    run->error = "the start touched no tenant event log";
    return false;
  }
  if (resumed) {
    run->restore_ms = timing->start_ms();
  } else {
    run->setup_s = construct_s + timing->start_ms() / 1e3;
  }
  *outcome = *result;
  run->commits += outcome->commits;
  run->failures += outcome->tenants_rejected + outcome->io_giveups + outcome->quarantined.size();
  if (resumed && outcome->tenants_resumed == 0) {
    run->error = "the resumed run restored no tenant";
    return false;
  }
  return true;
}

}  // namespace

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::map<std::string, std::string> SlurpDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

void SpoolTrace(const dsa::ReferenceTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  dsa::WriteReferenceTrace(trace, &out);
}

ServiceRun ServeUninterrupted(const ServiceSetup& setup, const std::string& root,
                              TimingFs* timing) {
  RemoveTree(root);
  ServiceRun run;
  const dsa::ServeConfig config = ConfigFor(setup, root, timing);
  if (ServeOnce(setup, config, /*resumed=*/false, timing, &run, &run.first) &&
      !run.first.finished) {
    run.error = "uninterrupted run did not finish";
  }
  return run;
}

ServiceRun ServeKilledAndResumed(const ServiceSetup& setup, const std::string& root,
                                 int kill_after, TimingFs* timing, const std::string& keep_killed) {
  RemoveTree(root);
  ServiceRun run;
  dsa::ServeConfig config = ConfigFor(setup, root, timing);
  config.stop_after_commits = kill_after;
  if (!ServeOnce(setup, config, /*resumed=*/false, timing, &run, &run.first)) {
    return run;
  }
  if (run.first.finished) {
    run.error = "the killed run finished before its stop point";
    return run;
  }
  if (!keep_killed.empty()) {
    RemoveTree(keep_killed);
    fs::copy(root, keep_killed, fs::copy_options::recursive);
  }
  config.stop_after_commits = -1;
  if (ServeOnce(setup, config, /*resumed=*/true, timing, &run, &run.second) &&
      !run.second.finished) {
    run.error = "the resumed run did not finish";
  }
  return run;
}

ServiceRun StartOnly(const ServiceSetup& setup, const std::string& killed,
                     const std::string& root, TimingFs* timing) {
  RemoveTree(root);
  if (!killed.empty()) {
    fs::copy(killed, root, fs::copy_options::recursive);
  }
  dsa::ServeConfig config = ConfigFor(setup, root, timing);
  config.stop_after_commits = 1;
  ServiceRun run;
  const std::size_t commits_before = timing->commit_ms().size();
  ServeOnce(setup, config, /*resumed=*/!killed.empty(), timing, &run, &run.first);
  timing->DropCommitSamples(commits_before);
  RemoveTree(root);
  return run;
}

bool ServeAndVerify(const ServiceSetup& setup, const std::string& root, std::uint64_t refs,
                    const ServeSamples& samples, Clock::time_point deadline, TimingFs* timing,
                    Result* result, ServiceFigures* out) {
  const std::string reference_root = root + "/reference";
  ServiceRun reference = ServeUninterrupted(setup, reference_root, timing);
  if (!reference.error.empty()) {
    result->Fail("uninterrupted service run: " + reference.error);
    return false;
  }
  out->failures += reference.failures;
  out->attempted += reference.commits + reference.first.tenants_completed +
                    reference.first.tenants_rejected;
  out->setup_s.push_back(reference.setup_s);
  const std::map<std::string, std::string> expected = SlurpDir(reference_root + "/out");
  RemoveTree(reference_root);
  // Stop halfway through the reference run's commits.
  const int kill_after = static_cast<int>(std::max<std::uint64_t>(1, reference.commits / 2));
  out->kill_after = kill_after;
  out->reference_commits = reference.commits;

  const std::string killed = root + "/killed";
  std::uint64_t bytes_per_pair = 0;
  for (int pair_index = 0; pair_index < samples.min_pairs || Clock::now() < deadline;
       ++pair_index) {
    const std::uint64_t bytes_before = timing->checkpoint_bytes();
    ServiceRun pair = ServeKilledAndResumed(setup, root + "/pair", kill_after, timing,
                                            pair_index == 0 ? killed : std::string());
    if (!pair.error.empty()) {
      result->Fail("kill-and-resume service run: " + pair.error);
      return false;
    }
    const std::map<std::string, std::string> resumed = SlurpDir(root + "/pair/out");
    RemoveTree(root + "/pair");
    if (resumed != expected) {
      result->Fail("resumed output tree differs from the uninterrupted run's");
      return false;
    }
    const std::uint64_t bytes = timing->checkpoint_bytes() - bytes_before;
    if (bytes_per_pair != 0 && bytes != bytes_per_pair) {
      result->Fail("checkpoint bytes differ between identical kill-and-resume runs");
      return false;
    }
    bytes_per_pair = bytes;
    out->failures += pair.failures;
    out->attempted += pair.commits + pair.first.tenants_completed + pair.first.tenants_rejected +
                      pair.second.tenants_completed + pair.second.tenants_rejected;
    out->setup_s.push_back(pair.setup_s);
    out->restore_ms.push_back(pair.restore_ms);
    out->refs_per_s.push_back(static_cast<double>(refs) / pair.run_s);
    out->ckpt_bytes_per_commit =
        static_cast<double>(bytes) / static_cast<double>(pair.commits);
    if (pair_index != 0) {
      continue;
    }
    // Start-only samples: fresh starts, then resumes of the first pair's
    // killed state.
    for (int i = 0; i < samples.starts + samples.restores; ++i) {
      const bool fresh = i < samples.starts;
      const ServiceRun start =
          StartOnly(setup, fresh ? std::string() : killed, root + "/start", timing);
      if (!start.error.empty()) {
        result->Fail("start-only service run: " + start.error);
        return false;
      }
      out->failures += start.failures;
      out->attempted += start.commits;
      if (fresh) {
        out->setup_s.push_back(start.setup_s);
      } else {
        out->restore_ms.push_back(start.restore_ms);
      }
    }
    RemoveTree(killed);
  }
  out->output_files = expected.size();
  return true;
}

}  // namespace perfbench
