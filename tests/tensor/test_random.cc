/**
 * @file
 * The in-tree sampler against the standard library it replaced.
 *
 * Rng used std::mt19937_64 and a std::normal_distribution<float> built
 * fresh per draw. Its own engine (aib::Mt19937_64), branch-free
 * canonical conversion and block normal fill must reproduce them bit
 * for bit: every value, every consumed engine word, and the stream
 * text that checkpoints store. Under libstdc++ each check runs against
 * the library itself; elsewhere the normal draws are checked against
 * a digest recorded with libstdc++.
 */

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/random.h"

namespace aib {
namespace {

template <class Engine>
std::string
text(const Engine &e)
{
    std::ostringstream out;
    out << e;
    return out.str();
}

TEST(Mt19937_64, MatchesTheStandardEngine)
{
    for (const std::uint64_t seed :
         {0ULL, 1ULL, 42ULL, 5489ULL, ~0ULL}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 theirs(seed);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(ours(), theirs()) << "seed " << seed << " draw " << i;
    }
    // The standard's check value: the 10000th output of a
    // default-constructed engine.
    Mt19937_64 e;
    for (int i = 1; i < 10000; ++i)
        e();
    EXPECT_EQ(e(), 9981545732273789042ULL);
}

TEST(Mt19937_64, StreamTextIsTheStandardEngines)
{
    Rng rng(42);
    std::mt19937_64 theirs(42);
    int drawn = 0;
    for (const int target : {0, 1, 311, 312, 313, 1000}) {
        for (; drawn < target; ++drawn) {
            rng.engine()();
            theirs();
        }
        EXPECT_EQ(rng.state(), text(theirs)) << "after " << target;
    }
}

TEST(Mt19937_64, StandardTextLoadsAndContinuesIdentically)
{
    std::mt19937_64 theirs(7);
    for (int i = 0; i < 500; ++i)
        theirs();
    Rng rng;
    rng.setState(text(theirs));
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(rng.engine()(), theirs()) << "draw " << i;
}

TEST(Mt19937_64, PositionOutsideTheStateIsRejected)
{
    std::mt19937_64 theirs(3);
    const std::string good = text(theirs);
    const std::string words = good.substr(0, good.rfind(' ') + 1);
    Rng rng(11);
    const std::string before = rng.state();
    for (const char *pos : {"313", "-1", "18446744073709551615"}) {
        EXPECT_THROW(rng.setState(words + pos), std::runtime_error) << pos;
        EXPECT_EQ(rng.state(), before) << "a failed load changed the state";
    }
    EXPECT_THROW(rng.setState(words), std::runtime_error);
    EXPECT_THROW(rng.setState("1 2 3"), std::runtime_error);
    rng.setState(words + "312");
    rng.setState(words + "0");
    EXPECT_EQ(rng.state(), words + "0");
}

/** Hands out the words it was given, as a UniformRandomBitGenerator. */
struct StubEngine {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    std::uint64_t word;
    result_type operator()() { return word; }
};

std::uint32_t
bitsOf(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, sizeof b);
    return b;
}

TEST(CanonicalFloat, MatchesGenerateCanonicalOnEdgeWords)
{
    std::vector<std::uint64_t> words = {
        0,
        1,
        (1ULL << 63) - 1,
        1ULL << 63,
        ~0ULL,
        // Round to 2^64, so the result is clamped below 1.
        ~0ULL - (1ULL << 39) + 1,
        ~0ULL - (1ULL << 39),
        ~0ULL - (1ULL << 40),
        // Exact ties and near-ties at 24 bits, around both halves.
        (1ULL << 63) | (1ULL << 39),
        (1ULL << 63) | (1ULL << 39) | 1,
        (1ULL << 63) | (1ULL << 40) | (1ULL << 39),
        (1ULL << 62) | (1ULL << 38),
        (1ULL << 62) | (1ULL << 38) | 1,
    };
    // Every bit length around the 24-bit mantissa, where the halving
    // path's sticky bit would differ from a direct conversion.
    for (int bits = 1; bits <= 64; ++bits) {
        const std::uint64_t top = 1ULL << (bits - 1);
        for (const std::uint64_t low : {0ULL, 1ULL, 2ULL, 3ULL, 5ULL})
            words.push_back(top | (low & (top - 1)));
        words.push_back(top | (top - 1));
        if (bits > 25)
            words.push_back(top | (1ULL << (bits - 25)) | 1);
    }
    std::mt19937_64 source(99);
    for (int i = 0; i < 100000; ++i)
        words.push_back(source() >> (i % 64));
    for (const std::uint64_t w : words) {
        StubEngine stub{w};
        const float want = std::generate_canonical<float, 24>(stub);
        ASSERT_EQ(bitsOf(canonicalFloat(w)), bitsOf(want)) << "word " << w;
    }
}

/** One libstdc++ draw of a freshly built normal_distribution<float>. */
float
freshNormal(std::mt19937_64 &e, float mean, float stddev)
{
    return std::normal_distribution<float>(mean, stddev)(e);
}

/**
 * Block fills of every size, at every parameter set, with single
 * draws between them that move the block position. Checks each fill
 * against the library's draws and returns a digest of all values.
 */
std::uint64_t
fillSweep(bool against_library)
{
    const std::int64_t sizes[] = {0, 1, 2, 155, 156, 311, 312, 313, 1000, 4096};
    const float params[][2] = {{0.0f, 1.0f}, {0.5f, 0.1f}, {-3.0f, 2.0f}};
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    auto mix = [&digest](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            digest = (digest ^ b[i]) * 0x100000001b3ULL;
    };
    Rng rng(2024);
    std::mt19937_64 theirs(2024);
    int step = 0;
    for (const auto &p : params) {
        for (const std::int64_t n : sizes) {
            // Single draws in between: a scalar normal, then 0-2
            // uniforms, so fills start at many block positions.
            const float single = rng.normal();
            mix(&single, sizeof single);
            if (against_library) {
                EXPECT_EQ(bitsOf(single), bitsOf(freshNormal(theirs, 0, 1)));
            }
            for (int u = 0; u < step % 3; ++u) {
                const float x = rng.uniform();
                mix(&x, sizeof x);
                if (against_library) {
                    EXPECT_EQ(bitsOf(x),
                              bitsOf(std::uniform_real_distribution<float>(
                                  0.0f, 1.0f)(theirs)));
                }
            }
            ++step;

            std::vector<float> got(static_cast<std::size_t>(n) + 1, 7.0f);
            rng.normal(got.data(), n, p[0], p[1]);
            EXPECT_EQ(got.back(), 7.0f) << "wrote past n = " << n;
            got.pop_back();
            mix(got.data(), got.size() * sizeof(float));
            if (!against_library)
                continue;
            std::vector<float> want(got.size());
            for (float &v : want)
                v = freshNormal(theirs, p[0], p[1]);
            // memcmp must not see the null data() of an empty vector.
            EXPECT_TRUE(got.empty() ||
                        std::memcmp(got.data(), want.data(),
                                    got.size() * sizeof(float)) == 0)
                << "n = " << n << ", mean " << p[0] << ", stddev " << p[1];
            EXPECT_EQ(rng.state(), text(theirs))
                << "engine words consumed differ after n = " << n;
        }
    }
    return digest;
}

/** fillSweep's digest, recorded with libstdc++ (GCC 12). */
constexpr std::uint64_t kFillSweepDigest = 0x3b3ab2789cb5f22eULL;

TEST(NormalFill, EqualsFreshPerDrawNormalDistribution)
{
#if defined(__GLIBCXX__)
    const std::uint64_t digest = fillSweep(true);
#else
    const std::uint64_t digest = fillSweep(false);
#endif
    EXPECT_EQ(digest, kFillSweepDigest);
}

TEST(NormalFill, ScalarDrawsEqualTheLibrarys)
{
#if !defined(__GLIBCXX__)
    GTEST_SKIP() << "compares against libstdc++'s normal_distribution";
#endif
    for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
        Rng rng(seed);
        std::mt19937_64 theirs(seed);
        for (int i = 0; i < 5000; ++i) {
            ASSERT_EQ(bitsOf(rng.normal(0.25f, 3.0f)),
                      bitsOf(freshNormal(theirs, 0.25f, 3.0f)))
                << "seed " << seed << " draw " << i;
        }
        EXPECT_EQ(rng.state(), text(theirs));
    }
}

} // namespace
} // namespace aib
