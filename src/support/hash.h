/**
 * @file
 * The fingerprint and byte check behind the compiled-evaluator
 * registries (docs/architecture.md "Compiled evaluators"): a
 * sim::Program or rtl::Netlist hashes the inputs its generated code was
 * specialized on, looks the hash up, and attaches an entry only after
 * its embedded copy of those inputs equals its own byte for byte.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace assassyn {

/** Fold @p n bytes at @p p into @p h, a word at a time. */
inline uint64_t
hashBytes(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const uint8_t *>(p);
    auto mix = [&h](uint64_t w) {
        h = (h ^ w) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    };
    mix(n);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, b + i, 8);
        mix(w);
    }
    uint64_t tail = 0;
    if (i < n)
        std::memcpy(&tail, b + i, n - i);
    mix(tail);
    return h;
}

/** True when @p mine holds exactly the @p n elements at @p theirs. */
template <typename T>
bool
sameBytes(const std::vector<T> &mine, const T *theirs, size_t n)
{
    return mine.size() == n &&
           (n == 0 || std::memcmp(mine.data(), theirs, n * sizeof(T)) == 0);
}

} // namespace assassyn
