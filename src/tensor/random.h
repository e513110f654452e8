/**
 * @file
 * Deterministic random number generation for the whole suite.
 *
 * The paper's run-to-run variation study (Table 5) depends on seeds:
 * each repeat of a benchmark uses a different random seed (except
 * speech recognition, which fixes it). All randomness in this library
 * flows through @c Rng instances so experiments are reproducible and
 * seed-controlled.
 */

#ifndef AIB_TENSOR_RANDOM_H
#define AIB_TENSOR_RANDOM_H

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>

namespace aib {

/**
 * 64-bit Mersenne Twister with std::mt19937_64's parameters.
 *
 * Seeding, output sequence and stream text are those of the standard
 * engine (the default seed's 10000th output is 9981545732273789042),
 * so states written by either load into the other. The twist selects
 * the matrix term with a mask instead of a branch, and the block of
 * untempered words is exposed (@c block / @c consume) so that a
 * caller can examine many draws before deciding how many to take.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;
    static constexpr std::size_t kStateSize = 312;
    static constexpr result_type kDefaultSeed = 5489u;

    explicit Mt19937_64(result_type seed = kDefaultSeed) { this->seed(seed); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    void
    seed(result_type s)
    {
        state_[0] = s;
        for (std::size_t i = 1; i < kStateSize; ++i) {
            const result_type x = state_[i - 1];
            state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
        }
        pos_ = kStateSize;
    }

    result_type
    operator()()
    {
        if (pos_ >= kStateSize)
            twist();
        return temper(state_[pos_++]);
    }

    /** The output function applied to one state word. */
    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /**
     * The untempered words the next draws read, after refilling an
     * exhausted block: draw i returns temper(block()[i]). Reading them
     * consumes nothing; @c consume(k) then skips k.
     */
    std::span<const result_type>
    block()
    {
        if (pos_ >= kStateSize)
            twist();
        return {state_ + pos_, kStateSize - pos_};
    }

    /** Skip @p k words of the current block (k <= its size). */
    void consume(std::size_t k) { pos_ += k; }

    /** The 312 state words, then the position, space-separated. */
    friend std::ostream &
    operator<<(std::ostream &out, const Mt19937_64 &e)
    {
        const auto flags = out.flags();
        const char fill = out.fill();
        out.flags(std::ios_base::dec | std::ios_base::fixed |
                  std::ios_base::left);
        out.fill(' ');
        for (const result_type w : e.state_)
            out << w << ' ';
        out << e.pos_;
        out.flags(flags);
        out.fill(fill);
        return out;
    }

    /**
     * Read the text @c operator<< writes. A position outside
     * [0, 312] fails the stream; @p e changes only on success.
     */
    friend std::istream &
    operator>>(std::istream &in, Mt19937_64 &e)
    {
        const auto flags = in.flags();
        in.flags(std::ios_base::dec | std::ios_base::skipws);
        Mt19937_64 read;
        for (result_type &w : read.state_)
            in >> w;
        in >> read.pos_;
        if (in && read.pos_ > kStateSize)
            in.setstate(std::ios_base::failbit);
        in.flags(flags);
        if (in)
            e = read;
        return in;
    }

  private:
    void
    twist()
    {
        constexpr std::size_t n = kStateSize, m = 156;
        constexpr result_type upper = ~result_type{0} << 31;
        constexpr result_type a = 0xb5026f5aa96619e9ULL;
        auto mix = [&](std::size_t k, std::size_t next, std::size_t far) {
            const result_type y =
                (state_[k] & upper) | (state_[next] & ~upper);
            state_[k] = state_[far] ^ (y >> 1) ^ (-(y & 1) & a);
        };
        for (std::size_t k = 0; k < n - m; ++k)
            mix(k, k + 1, k + m);
        for (std::size_t k = n - m; k < n - 1; ++k)
            mix(k, k + 1, k + m - n);
        mix(n - 1, 0, m - 1);
        pos_ = 0;
    }

    result_type state_[kStateSize];
    std::size_t pos_;
};

/**
 * std::generate_canonical<float, 24> of one 64-bit engine word, with
 * no branch: float(w) rounded to nearest, times 2^-64, and a result
 * that rounds to 1 replaced by the largest float below 1.
 */
inline float
canonicalFloat(std::uint64_t w)
{
    // A word below 2^63 converts exactly-rounded as a signed integer.
    // Above it, half the word with its lowest bit kept as a sticky
    // bit rounds to the same 24 bits, and doubling is exact.
    const float low =
        static_cast<float>(static_cast<std::int64_t>(w & (~0ULL >> 1)));
    const float high =
        2.0f * static_cast<float>(static_cast<std::int64_t>(
                   (w >> 1) | (w & 1)));
    const std::uint32_t top = 0u - static_cast<std::uint32_t>(w >> 63);
    const float f = std::bit_cast<float>(
        (std::bit_cast<std::uint32_t>(low) & ~top) |
        (std::bit_cast<std::uint32_t>(high) & top));
    // Exact scaling. Only 1.0f (from 2^64) is out of range, and the
    // float below it has the bit pattern one less.
    const auto u = std::bit_cast<std::uint32_t>(f * 0x1p-64f);
    return std::bit_cast<float>(u - (u == 0x3f800000u));
}

/** Seeded pseudo-random generator used across the suite. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedULL) : engine_(seed) {}

    /** Reseed the generator. */
    void seed(std::uint64_t s) { engine_.seed(s); }

    /** Uniform float in [0, 1). */
    float
    uniform()
    {
        return std::uniform_real_distribution<float>(0.0f, 1.0f)(engine_);
    }

    /** Uniform float in [lo, hi). */
    float
    uniform(float lo, float hi)
    {
        return std::uniform_real_distribution<float>(lo, hi)(engine_);
    }

    /** Standard normal sample. */
    float normal() { return normal(0.0f, 1.0f); }

    /**
     * Normal sample with given mean and stddev: the value and the
     * engine words of one draw of a freshly built
     * std::normal_distribution<float> in libstdc++ (the Marsaglia
     * polar method; the pair's second value is discarded).
     */
    float
    normal(float mean, float stddev)
    {
        float x, y, r2;
        do {
            x = static_cast<float>(2.0f * canonicalFloat(engine_()) - 1.0);
            y = static_cast<float>(2.0f * canonicalFloat(engine_()) - 1.0);
            r2 = x * x + y * y;
        } while (r2 > 1.0f || r2 == 0.0f);
        return polarValue(y, r2, mean, stddev);
    }

    /**
     * Fill @p out with @p n normal samples: the same values, and the
     * same engine words consumed, as @p n calls of
     * normal(mean, stddev), computed a block of engine words at a
     * time without a data-dependent branch.
     */
    void normal(float *out, std::int64_t n, float mean, float stddev);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

    /** Underlying engine, for std::shuffle and distributions. */
    Mt19937_64 &engine() { return engine_; }

    /**
     * Complete engine state as text (std::mt19937_64 stream format).
     * All distributions are constructed fresh per draw, so the engine
     * state is the entire state of this generator; restoring it with
     * @c setState reproduces the subsequent draw sequence bitwise.
     */
    std::string
    state() const
    {
        std::ostringstream out;
        out << engine_;
        return out.str();
    }

    /** Restore a state captured by @c state(). */
    void
    setState(const std::string &s)
    {
        std::istringstream in(s);
        in >> engine_;
        if (!in)
            throw std::runtime_error("Rng::setState: malformed engine state");
    }

  private:
    /** The value of an accepted pair (y, r2), in libstdc++'s steps. */
    static float
    polarValue(float y, float r2, float mean, float stddev)
    {
        const float mult = std::sqrt(-2 * std::log(r2) / r2);
        const float ret = y * mult;
        return ret * stddev + mean;
    }

    Mt19937_64 engine_;
};

/**
 * Process-global generator used by default tensor initializers.
 *
 * Benchmarks reseed it per run via @c seedGlobalRng to model the
 * paper's seed policy.
 */
Rng &globalRng();

/** Reseed the global generator. */
void seedGlobalRng(std::uint64_t seed);

} // namespace aib

#endif // AIB_TENSOR_RANDOM_H
