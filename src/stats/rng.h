// Deterministic, multi-stream random number generation.
//
// Everything stochastic in GreenCluster is seeded explicitly.  SplitMix64
// turns a (seed, stream) pair into independent xoshiro256** states, so a
// parallel sweep can give task i stream i and be bitwise reproducible no
// matter how many worker threads execute it.
//
// References: Blackman & Vigna, "Scrambled linear pseudorandom number
// generators" (xoshiro256**); Steele et al. (SplitMix64).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace gc {

// SplitMix64 step: used for seeding and stream derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** — fast, high-quality, 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Derives the full state from (seed, stream) via SplitMix64 so that any
  // two distinct pairs give statistically independent sequences.
  explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL,
               std::uint64_t stream = 0) noexcept {
    std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    for (auto& word : state_) word = splitmix64(sm);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in (0, 1] — safe as an argument to log().
  [[nodiscard]] double uniform01_open_left() noexcept {
    return 1.0 - uniform01();
  }

  // Uniform integer in [0, bound) without modulo bias (Lemire's method).
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  // The raw xoshiro256** state, for checkpoint/restore of deterministic
  // components (cp/snapshot.h).  A generator rebuilt via set_state()
  // continues the exact sequence the saved one would have produced.
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] const State& state() const noexcept { return state_; }
  void set_state(const State& s) noexcept { state_ = s; }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

inline std::uint64_t Rng::uniform_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Rejection loop has expected < 2 iterations for any bound.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace gc
