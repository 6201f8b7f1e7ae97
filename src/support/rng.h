/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic knob in the repo (workload generation, the stage-order
 * shuffle of Sec. 5.1) draws from this engine so runs are reproducible.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace assassyn {

/** SplitMix64-seeded xoshiro256**; small, fast and deterministic. */
class Rng {
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Reset the stream from a single 64-bit seed. */
    void
    reseed(uint64_t seed)
    {
        // SplitMix64 expansion of the seed into the xoshiro state.
        for (auto &word : state_) {
            seed += 0x9e3779b97f4a7c15ull;
            uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit draw. */
    uint64_t
    next()
    {
        auto rotl = [](uint64_t x, int k) {
            return (x << k) | (x >> (64 - k));
        };
        uint64_t result = rotl(state_[1] * 5, 7) * 9;
        uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform draw in [0, bound). @p bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform draw in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(uint64_t(hi - lo + 1)));
    }

    /** Fisher-Yates shuffle of @p items. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        shuffle(items.data(), items.size());
    }

    /** Fisher-Yates shuffle of the @p n items at @p items: the same
     *  draws as the vector overload. */
    template <typename T>
    void
    shuffle(T *items, size_t n)
    {
        for (size_t i = n; i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

    /** The raw xoshiro state, for checkpointing (sim/ckpt.h). */
    std::array<uint64_t, 4>
    state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

    /** Restore a stream position captured with state(). */
    void
    setState(const std::array<uint64_t, 4> &s)
    {
        for (size_t i = 0; i < 4; ++i)
            state_[i] = s[i];
    }

  private:
    uint64_t state_[4] = {};
};

} // namespace assassyn
