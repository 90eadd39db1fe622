// perfbench: the repository benchmark.
//
//   perfbench --workload vm-hot|vm-thrash|serve-ckpt --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Prints human-readable lines, then as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 when a correctness gate fails, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench.h"

namespace perfbench {

void Result::Metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::Fail(const std::string& why) {
  correct_ = false;
  ++failed;
  std::printf("GATE FAILED: %s\n", why.c_str());
  std::fflush(stdout);
}

std::string Result::Json() const {
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  // A run stopped by a failed gate still attempted that check.
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>({attempted, failed, 1}));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.first);  // every digit
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.second + "\"}";
    first = false;
  }
  json += "}}";
  return json;
}

void Say(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::string Spread(const std::vector<double>& values) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "median %.4g (min %.4g, max %.4g, n %zu)", Median(values),
                Quantile(values, 0), Quantile(values, 1), values.size());
  return buf;
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double ClockReadNs() {
  constexpr int kReads = 1 << 16;
  std::vector<double> batches;
  for (int batch = 0; batch < 9; ++batch) {
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kReads; ++i) {
      last = Clock::now();
    }
    batches.push_back(std::chrono::duration<double, std::nano>(last - start).count() / kReads);
  }
  return Median(batches);
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload vm-hot|vm-thrash|serve-ckpt "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value after " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Usage("--seed takes an unsigned integer");
      }
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0) || options.seconds > 600) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (options.work_dir.empty()) {
    Usage("--work-dir is required");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    Usage(("cannot create --work-dir: " + ec.message()).c_str());
  }

  perfbench::Result result;
  if (options.workload == "vm-hot" || options.workload == "vm-thrash") {
    perfbench::RunVmWorkload(options, options.workload == "vm-hot", &result);
  } else if (options.workload == "serve-ckpt") {
    perfbench::RunServeWorkload(options, &result);
  } else {
    Usage("unknown --workload");
  }
  std::printf("%s\n", result.Json().c_str());
  return result.correct() ? 0 : 1;
}
