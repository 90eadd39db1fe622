#include <string>

#include "perfbench.h"

namespace perfbench {

namespace {

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool IsEventLog(const std::string& path) { return EndsWith(path, ".events.jsonl"); }

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

template <typename Op>
auto TimingFs::Timed(dsa::FsOpKind kind, Op&& op) {
  const Clock::time_point start = Clock::now();
  auto result = op();
  const double seconds = SecondsSince(start);
  KindStats& stats = kinds_[static_cast<int>(kind)];
  ++stats.ops;
  stats.seconds += seconds;
  if (cut_open_) {
    cut_fs_ms_ += seconds * 1e3;
  }
  return result;
}

bool TimingFs::InCheckpointDir(const std::string& path) const {
  return !checkpoint_dir_.empty() && path.compare(0, checkpoint_dir_.size(), checkpoint_dir_) == 0;
}

void TimingFs::OpenCut(Clock::time_point at) {
  if (!cut_open_) {
    cut_open_ = true;
    cut_start_ = at;
    cut_fs_ms_ = 0;
  }
  // The start ends before the first cut after it opens.
  start_armed_ = false;
}

void TimingFs::ArmStart() {
  start_armed_ = true;
  start_at_ = Clock::now();
  start_ms_ = -1;
}

void TimingFs::NoteStartOp(const std::string& path) {
  if (start_armed_ && IsEventLog(path)) {
    start_ms_ = MsBetween(start_at_, Clock::now());
  }
}

dsa::Expected<std::string, dsa::FsError> TimingFs::ReadFile(const std::string& path) {
  return Timed(dsa::FsOpKind::kReadFile, [&] { return base_->ReadFile(path); });
}

dsa::Expected<std::uint64_t, dsa::FsError> TimingFs::Append(const std::string& path,
                                                            std::uint64_t offset,
                                                            std::string_view bytes) {
  if (IsEventLog(path)) {
    OpenCut(Clock::now());
  }
  bytes_written_ += bytes.size();
  return Timed(dsa::FsOpKind::kAppend, [&] { return base_->Append(path, offset, bytes); });
}

dsa::Status<dsa::FsError> TimingFs::WriteFileAtomic(const std::string& path,
                                                    std::string_view bytes) {
  const bool checkpoint = InCheckpointDir(path);
  const bool manifest = checkpoint && EndsWith(path, "/MANIFEST");
  if (checkpoint) {
    OpenCut(Clock::now());
    checkpoint_bytes_ += bytes.size();
  }
  bytes_written_ += bytes.size();
  auto status = Timed(dsa::FsOpKind::kWriteFileAtomic,
                      [&] { return base_->WriteFileAtomic(path, bytes); });
  if (checkpoint && capture_) {
    if (manifest) {
      cuts_.push_back({std::string(bytes), std::move(pending_files_)});
      pending_files_.clear();
    } else {
      pending_files_[path] = std::string(bytes);
    }
  }
  if (manifest && cut_open_) {
    commit_ms_.push_back(MsBetween(cut_start_, Clock::now()) - cut_fs_ms_);
    cut_open_ = false;
  }
  return status;
}

dsa::Status<dsa::FsError> TimingFs::Rename(const std::string& from, const std::string& to) {
  return Timed(dsa::FsOpKind::kRename, [&] { return base_->Rename(from, to); });
}

dsa::Status<dsa::FsError> TimingFs::Remove(const std::string& path) {
  return Timed(dsa::FsOpKind::kRemove, [&] { return base_->Remove(path); });
}

dsa::Expected<std::vector<std::string>, dsa::FsError> TimingFs::ListDir(const std::string& dir) {
  return Timed(dsa::FsOpKind::kListDir, [&] { return base_->ListDir(dir); });
}

dsa::Status<dsa::FsError> TimingFs::SyncDir(const std::string& dir) {
  return Timed(dsa::FsOpKind::kSyncDir, [&] { return base_->SyncDir(dir); });
}

dsa::Status<dsa::FsError> TimingFs::Truncate(const std::string& path, std::uint64_t size) {
  auto status = Timed(dsa::FsOpKind::kTruncate, [&] { return base_->Truncate(path, size); });
  NoteStartOp(path);
  return status;
}

dsa::Status<dsa::FsError> TimingFs::CreateDirs(const std::string& dir) {
  return Timed(dsa::FsOpKind::kCreateDirs, [&] { return base_->CreateDirs(dir); });
}

dsa::Expected<std::uint64_t, dsa::FsError> TimingFs::FileSize(const std::string& path) {
  auto size = Timed(dsa::FsOpKind::kFileSize, [&] { return base_->FileSize(path); });
  NoteStartOp(path);
  return size;
}

}  // namespace perfbench
