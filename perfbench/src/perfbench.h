// Shared pieces of the repository benchmark: the result record every
// workload fills, deterministic input generation, summary statistics, the
// timing Fs decorator, and the service runner and layer passes the three
// workloads are assembled from.
//
// The benchmark drives the dsa library through public entry points only.
// Every span it records sits in this directory, around a call into a
// module's public function; nothing inside src/ is instrumented.

#ifndef PERFBENCH_SRC_PERFBENCH_H_
#define PERFBENCH_SRC_PERFBENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/fsio.h"
#include "src/serve/service.h"
#include "src/trace/reference.h"
#include "src/vm/paged_vm.h"
#include "src/vm/system_builder.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string work_dir;  // working directory for spools and stores
};

// What one benchmark process reports: the correctness verdict, the
// attempted/failed operation counts, and the metrics in print order.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Records a failed correctness gate: printed at once, counted in
  // `failed`, and fatal to the run's exit code.
  void Fail(const std::string& why);
  bool correct() const { return correct_; }
  std::string Json() const;

  std::uint64_t attempted{0};
  std::uint64_t failed{0};

 private:
  bool correct_{true};
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// Prints one human-readable line to stdout (the final line is the JSON).
void Say(const char* format, ...) __attribute__((format(printf, 1, 2)));

// --- statistics ---
double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
// "median M (min A, max B, n N)", for the human-readable lines.
std::string Spread(const std::vector<double>& values);

// --- deterministic inputs ---
// splitmix64: the benchmark's own generator, so workload inputs do not move
// when the library's generators change.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Clock-read cost: ns per steady_clock::now(), the median of several
// batches.  Every span pays about two of these.
double ClockReadNs();

// --- the timing Fs decorator (timing_fs.cc) ---
// Forwards every op to `base` unchanged: no injection, no retries.  Records
// per-kind op counts and time, payload bytes written, and the two
// boundaries the end-to-end metrics use:
//   * a checkpoint CUT opens at its first tenant event-JSONL append (or its
//     first checkpoint-directory write, if no tenant had events) and closes
//     when the MANIFEST publish returns; its commit time is that interval
//     net of the time spent inside Fs ops, so a shared disk's fsync
//     latency, which can swing by more than the bound from one minute to
//     the next, does not set it (the fs.ms.* layer metrics report that
//     time);
//   * a START, armed by the caller just before Run(), ends at the last
//     tenant event-log size/truncate op before the first cut opens.  On a
//     fresh run that is the admission of the last tenant (spool read and
//     parse, VM build, event log emptied); on a resumed run, the restore.
// With capture on it also keeps every checkpoint-directory write, for the
// traced run's snapshot and store replay.
class TimingFs : public dsa::Fs {
 public:
  // One slot per dsa::FsOpKind, named by dsa::ToString.
  static constexpr int kKinds = 10;

  explicit TimingFs(dsa::Fs* base) : base_(base) {}

  void SetCheckpointDir(std::string dir) { checkpoint_dir_ = std::move(dir) + "/"; }
  void SetCapture(bool capture) { capture_ = capture; }
  void ArmStart();
  // Milliseconds from ArmStart to the start's last event-log op; -1 when
  // the start touched no event log.
  double start_ms() const { return start_ms_; }

  struct KindStats {
    std::uint64_t ops{0};
    double seconds{0};
  };
  const std::array<KindStats, kKinds>& kinds() const { return kinds_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }
  const std::vector<double>& commit_ms() const { return commit_ms_; }
  // Forgets the commit samples taken after the first `keep`.
  void DropCommitSamples(std::size_t keep) { commit_ms_.resize(keep); }

  // One committed cut as captured: its manifest text and the member files
  // written for it (path -> bytes).
  struct CapturedCut {
    std::string manifest;
    std::map<std::string, std::string> files;
  };
  const std::vector<CapturedCut>& cuts() const { return cuts_; }

  dsa::Expected<std::string, dsa::FsError> ReadFile(const std::string& path) override;
  dsa::Expected<std::uint64_t, dsa::FsError> Append(const std::string& path,
                                                    std::uint64_t offset,
                                                    std::string_view bytes) override;
  dsa::Status<dsa::FsError> WriteFileAtomic(const std::string& path,
                                            std::string_view bytes) override;
  dsa::Status<dsa::FsError> Rename(const std::string& from, const std::string& to) override;
  dsa::Status<dsa::FsError> Remove(const std::string& path) override;
  dsa::Expected<std::vector<std::string>, dsa::FsError> ListDir(const std::string& dir) override;
  dsa::Status<dsa::FsError> SyncDir(const std::string& dir) override;
  dsa::Status<dsa::FsError> Truncate(const std::string& path, std::uint64_t size) override;
  dsa::Status<dsa::FsError> CreateDirs(const std::string& dir) override;
  dsa::Expected<std::uint64_t, dsa::FsError> FileSize(const std::string& path) override;

 private:
  template <typename Op>
  auto Timed(dsa::FsOpKind kind, Op&& op);
  bool InCheckpointDir(const std::string& path) const;
  void OpenCut(Clock::time_point at);
  void NoteStartOp(const std::string& path);

  dsa::Fs* base_;
  std::string checkpoint_dir_;
  bool capture_{false};
  std::array<KindStats, kKinds> kinds_{};
  std::uint64_t bytes_written_{0};
  std::uint64_t checkpoint_bytes_{0};
  bool cut_open_{false};
  Clock::time_point cut_start_{};
  double cut_fs_ms_{0};  // time inside Fs ops since the cut opened
  std::vector<double> commit_ms_;
  bool start_armed_{false};
  Clock::time_point start_at_{};
  double start_ms_{-1};
  std::vector<CapturedCut> cuts_;
  std::map<std::string, std::string> pending_files_;
};

// --- the service runner (service_runner.cc) ---
// A spool of tenant traces served by ServiceLoop as a closed batch on
// kServeLanes lanes, every kFullEvery-th cut full, through a TimingFs over
// dsa::SystemFs().  Output and checkpoint directories live under `root`.
constexpr unsigned kServeLanes = 2;
constexpr int kFullEvery = 4;

struct ServiceSetup {
  dsa::SystemSpec spec;
  std::string spool_dir;
  dsa::Cycles checkpoint_every{0};
};

struct ServiceRun {
  std::string error;  // empty: both Run() calls succeeded
  double run_s{0};    // wall time inside Run(), summed over the calls
  dsa::ServeOutcome first;
  dsa::ServeOutcome second;  // the resumed run (kill-and-resume only)
  std::uint64_t commits{0};
  std::uint64_t failures{0};  // rejected tenants + IO give-ups + quarantined cuts
  double setup_s{-1};     // first ServiceLoop: construction + start (admission)
  double restore_ms{-1};  // resumed ServiceLoop: start (restore)
};

// Serves the spool to completion in one Run(); `root`/out then holds the
// reference output tree.
ServiceRun ServeUninterrupted(const ServiceSetup& setup, const std::string& root,
                              TimingFs* fs);
// Serves the spool with a stop after `kill_after` commits, then resumes it
// to completion with a second ServiceLoop over the same directories.  A
// non-empty `keep_killed` receives a copy of the directories as the stop
// left them.
ServiceRun ServeKilledAndResumed(const ServiceSetup& setup, const std::string& root,
                                 int kill_after, TimingFs* fs,
                                 const std::string& keep_killed = "");
// Starts a service under `root` and stops it at its first commit: a fresh
// start when `killed` is empty (fills setup_s), else a resume of a copy of
// that killed run's directories (fills restore_ms).  The stopping commit is
// left out of the commit samples.
ServiceRun StartOnly(const ServiceSetup& setup, const std::string& killed,
                     const std::string& root, TimingFs* fs);

// What a service workload reports: samples pooled over an uninterrupted
// reference run, every kill-and-resume pair and every StartOnly run.
// (The commit samples stay in the TimingFs.)
struct ServiceFigures {
  std::vector<double> restore_ms;  // one per pair and per restore-only start
  std::vector<double> setup_s;     // one per fresh start
  std::vector<double> refs_per_s;  // tenant refs / wall time of a pair's two Run() calls
  double ckpt_bytes_per_commit{0};
  std::uint64_t attempted{0};  // tenants + commits
  std::uint64_t failures{0};   // rejected tenants + IO give-ups + quarantined cuts
  int kill_after{0};
  std::uint64_t reference_commits{0};
  std::size_t output_files{0};
};

// How many samples ServeAndVerify takes, besides the pairs that fit
// before its deadline.
struct ServeSamples {
  int min_pairs{1};  // kill-and-resume pairs
  int starts{0};     // fresh StartOnly runs
  int restores{0};   // StartOnly resumes of the first pair's killed state
};

// Serves the spool once uninterrupted (the reference output tree), then
// runs kill-and-resume pairs stopped halfway through the reference's
// commits, `samples.min_pairs` and more until `deadline`; after the first
// pair it takes the StartOnly samples.  Every resumed output tree must
// equal the reference byte for byte, and every pair must write the same
// checkpoint bytes; a mismatch fails the result.  `refs` is the spool's
// total reference count.
bool ServeAndVerify(const ServiceSetup& setup, const std::string& root, std::uint64_t refs,
                    const ServeSamples& samples, Clock::time_point deadline, TimingFs* timing,
                    Result* result, ServiceFigures* out);

// Regular files of `dir` as name -> bytes.
std::map<std::string, std::string> SlurpDir(const std::string& dir);
void RemoveTree(const std::string& dir);

// Writes `trace` into the spool as a reference-trace text file.
void SpoolTrace(const dsa::ReferenceTrace& trace, const std::string& path);

// --- layer passes (layers.cc) ---
// The per-layer figures of one VM configuration over a set of jobs.
struct LayerFigures {
  std::uint64_t refs{0};
  double untraced_ns{0};   // ns per Step, no spans
  double step_ns{0};       // ns per Step with a span around each call
  double translate_ns{0};  // ns of Translate per reference (retries included)
  double access_ns{0};     // ns of Access per reference
  double access_hit_ns{0};
  double access_fault_ns{0};
  std::uint64_t translations{0};
  double tlb_hit_rate{0};
  std::uint64_t hits{0};
  std::uint64_t faults{0};
  std::uint64_t evictions{0};
  std::uint64_t writebacks{0};
  std::uint64_t backing_slots{0};
  std::uint64_t backing_stores{0};
  std::uint64_t backing_fetches{0};
  double events_per_ref{0};
  double trace_overhead{0};  // (tracer-attached time / bare time) - 1
};

// A job is a sequence of traces stepped in order on fresh systems: a bare
// VM, a VM with a span around every Step, a VM with an EventTracer
// attached, and a mapper and pager wired as PagedLinearVm::Reset wires them
// (spans around Translate and Access), all four in lockstep.  Returns false
// (with the reason) when any of them disagrees with the bare VM's faults,
// write-backs or cycles.
bool MeasureLayers(const dsa::PagedVmConfig& config,
                   const std::vector<std::vector<const dsa::ReferenceTrace*>>& jobs,
                   LayerFigures* out, std::string* why);

// Snapshot, store and trace-parse figures from the captured cuts of one
// service run.
struct SnapshotFigures {
  std::vector<double> seal_full_ms;
  std::vector<double> seal_delta_ms;
  std::vector<double> open_ms;
  std::vector<double> commit_ms;  // CheckpointStore::Commit spans
  double recover_ms{0};           // CheckpointStore::Recover span
  double parse_ms{0};             // ReadReferenceTrace over the whole spool
  std::uint64_t full_bytes{0};
  std::uint64_t full_seals{0};
  std::uint64_t delta_bytes{0};
  std::uint64_t delta_seals{0};
};

// Parses every spool file, re-opens every tenant chain of every captured
// cut and re-seals it (full, and where the service cut a delta, delta
// against the previous cut), checking the re-sealed bytes equal the
// committed ones; then replays the cuts' Stage/Commit sequence into a fresh
// store under `store_dir` and recovers it.
bool MeasureSnapshots(const dsa::SystemSpec& spec, const std::vector<TimingFs::CapturedCut>& cuts,
                      const std::string& spool_dir, const std::string& store_dir,
                      SnapshotFigures* out, std::string* why);

// The traced run shared by every workload: MeasureLayers over `jobs` on the
// service's VM configuration, then one captured uninterrupted service run
// and one kill-and-resume pair of `service`, then MeasureSnapshots over the
// captured cuts, then ReportLayers.
void RunTracedWorkload(const Options& options,
                       const std::vector<std::vector<const dsa::ReferenceTrace*>>& jobs,
                       const ServiceSetup& service, Result* result);

// Prints the per-layer metrics every traced run reports.
void ReportLayers(const LayerFigures& layers, const SnapshotFigures& snaps, const TimingFs& fs,
                  std::uint64_t fs_retries, double clock_ns, Result* result);

// --- workloads (vm_workload.cc, serve_workload.cc) ---
void RunVmWorkload(const Options& options, bool hot, Result* result);
void RunServeWorkload(const Options& options, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PERFBENCH_H_
