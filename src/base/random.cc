#include "base/random.hh"

namespace mspdsm
{

namespace
{

/** splitmix64 step, used only to expand the seed into xoshiro state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // xoshiro state must not be all-zero; splitmix64 guarantees a
    // well-mixed non-degenerate state for any seed.
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::bounded(std::uint64_t n)
{
    panic_if(n == 0, "Rng::bounded: empty range");
    // Rejection sampling over the bottom of the range to remove
    // modulo bias: a draw below the threshold 2^64 mod n is redrawn,
    // and the rejection region is < 1/2 of the space for any n. The
    // threshold is below n, so a draw of at least n is accepted
    // without it and only a draw below n pays its divide; such a
    // draw is its own remainder. Either way, one divide per draw.
    for (;;) {
        const std::uint64_t r = next();
        if (r >= n) [[likely]]
            return r % n;
        if (r >= (0 - n) % n)
            return r;
    }
}

} // namespace mspdsm
