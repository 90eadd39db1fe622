// Shared machine-context stamp for bench JSON headers.
//
// Every bench output records the hardware it ran on (core count) and the
// run mode, so a committed full-run reference can be read for what it is —
// e.g. a speedup curve captured on a 1-core container is context, not a
// regression.  The stamp is machine-dependent by design; strip_timing.py
// removes the whole "host" line before any byte comparison, which also
// keeps the stripped quick references stable across machines.

#ifndef BENCH_BENCH_META_H_
#define BENCH_BENCH_META_H_

#include <cstdio>
#include <optional>
#include <thread>

namespace bench_meta {

// Writes `"host": {"nproc": N, "mode": "quick|full"` without the closing.
inline void OpenHostStamp(std::FILE* out, bool quick) {
  unsigned nproc = std::thread::hardware_concurrency();
  if (nproc == 0) {
    nproc = 1;
  }
  std::fprintf(out, "  \"host\": {\"nproc\": %u, \"mode\": \"%s\"", nproc,
               quick ? "quick" : "full");
}

// Writes `  "host": {"nproc": N, "mode": "quick|full"},` as one line, meant
// to sit directly after the "quick" field of a bench JSON header.
inline void WriteHostStamp(std::FILE* out, bool quick) {
  OpenHostStamp(out, quick);
  std::fprintf(out, "},\n");
}

// The same line with the host CPU steal share of the bench's timed interval
// appended: `"steal_share": S` (a fraction), or null when unreadable.
inline void WriteHostStamp(std::FILE* out, bool quick, std::optional<double> steal_share) {
  OpenHostStamp(out, quick);
  if (steal_share.has_value()) {
    std::fprintf(out, ", \"steal_share\": %.4f},\n", *steal_share);
  } else {
    std::fprintf(out, ", \"steal_share\": null},\n");
  }
}

}  // namespace bench_meta

#endif  // BENCH_BENCH_META_H_
