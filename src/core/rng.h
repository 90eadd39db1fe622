// Deterministic pseudo-random number generation for workload synthesis and
// randomised policies (e.g. the M44/44X replacement algorithm, which
// "selects at random from a set of equally acceptable candidates").
//
// splitmix64 seeds an xoshiro256** core: small, fast, and identical on every
// platform, so traces and experiments reproduce bit-for-bit.

#ifndef SRC_CORE_RNG_H_
#define SRC_CORE_RNG_H_

#include <array>
#include <cstdint>

#include "src/core/assert.h"
#include "src/core/snapshot.h"

namespace dsa {

// The complete externalized state of an Rng: the Seed() argument (retained
// for Fork() lineage, so a restored generator forks the same child streams)
// plus the four xoshiro256** state words.  A value type on purpose — the
// checkpoint layer serializes it, and Restore() is the only way back in.
struct RngState {
  std::uint64_t seed{0};
  std::array<std::uint64_t, 4> words{};

  friend bool operator==(const RngState&, const RngState&) = default;
};

// Snapshot helpers shared by everything that checkpoints a generator.
inline void SaveRngState(SnapshotWriter* w, const RngState& state) {
  w->U64(state.seed);
  for (std::uint64_t word : state.words) {
    w->U64(word);
  }
}

inline RngState LoadRngState(SnapshotReader* r) {
  RngState state;
  state.seed = r->U64();
  for (std::uint64_t& word : state.words) {
    word = r->U64();
  }
  return state;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  // A generator is a stream, not a value: implicit copies are deleted
  // because a copied generator silently decorrelates from a replayed run
  // the moment either copy draws — exactly the bug a parallel sweep makes
  // likely.  Hand a cell its own stream with Fork(); moving is fine (the
  // source is left reseeded, not aliased).
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  // Re-seeds the generator deterministically from a single value.
  void Seed(std::uint64_t seed) {
    seed_ = seed;
    std::uint64_t x = seed;
    for (auto& word : state_) {
      word = SplitMix64(&x);
    }
  }

  // Stream split: derives an independent child generator from this
  // generator's seed and a stream index, via a double splitmix64 mix.  The
  // derivation is a pure function of (seed, stream) — it neither draws from
  // nor perturbs the parent, so any completion order of forked cells leaves
  // every stream identical.  Child state is seeded through a different
  // splitmix64 trajectory than the parent's (the stream index is folded in
  // with a second Weyl constant), so parent and child sequences do not
  // overlap over any practical draw horizon; tests/test_core.cc pins this
  // over 2^17 draws.
  // Explicit stream capture and resumption for checkpoint/restore.  Copying
  // a generator stays deleted — State()/Restore() are deliberate acts with a
  // serialization boundary between them, not a way to alias a live stream.
  // A restored generator draws the identical continuation sequence and
  // forks identical children (tests/test_snapshot.cc pins both over 2^17
  // draws).
  RngState State() const { return RngState{seed_, state_}; }
  void Restore(const RngState& state) {
    seed_ = state.seed;
    state_ = state.words;
  }

  Rng Fork(std::uint64_t stream) const {
    std::uint64_t x = seed_;
    std::uint64_t mixed = SplitMix64(&x) ^ (0xd1b54a32d192ed03ULL * (stream + 1));
    return Rng(SplitMix64(&mixed));
  }

  // Uniform 64-bit value.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform value in [0, bound).  `bound` must be nonzero.
  std::uint64_t Below(std::uint64_t bound) {
    DSA_ASSERT(bound != 0, "Rng::Below(0)");
    // Debiased via rejection sampling on the top of the range.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = Next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform value in [lo, hi] inclusive.
  std::uint64_t Between(std::uint64_t lo, std::uint64_t hi) {
    DSA_ASSERT(lo <= hi, "Rng::Between: lo > hi");
    return lo + Below(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  // True with probability p.
  bool Chance(double p) { return NextDouble() < p; }

  // Geometric-ish positive size with the given mean, capped at `max`.
  // Used by allocation-trace generators for exponential request sizes.
  std::uint64_t ExponentialSize(double mean, std::uint64_t max) {
    DSA_ASSERT(mean > 0.0, "ExponentialSize: nonpositive mean");
    double u = NextDouble();
    if (u >= 1.0) {
      u = 0.9999999999;
    }
    // Inverse-CDF of the exponential distribution, shifted to be >= 1.
    const double x = 1.0 - mean * LogApprox(1.0 - u);
    auto size = static_cast<std::uint64_t>(x);
    if (size < 1) {
      size = 1;
    }
    if (size > max) {
      size = max;
    }
    return size;
  }

 private:
  static std::uint64_t SplitMix64(std::uint64_t* x) {
    std::uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static std::uint64_t Rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

  // Natural log via the standard library would be fine; a local wrapper keeps
  // <cmath> out of this header's interface.
  static double LogApprox(double v);

  std::uint64_t seed_{0};  // the Seed() argument, retained for Fork()
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dsa

#endif  // SRC_CORE_RNG_H_
