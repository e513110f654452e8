/**
 * @file
 * LatencyHistogram vs. the exact sorted-vector reference
 * (testing::percentile) on adversarial latency distributions, plus the
 * algebra the serving engine relies on: merge associativity, merge ==
 * record-all, and exactness of min/max/mean/single-sample queries.
 */

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "serve/histogram.h"
#include "testing/percentile.h"

using aib::serve::LatencyHistogram;
using aib::testing::percentile;

namespace {

/**
 * Every interior percentile must sit within one bucket width of the
 * exact reference; with 8 sub-buckets per octave and geometric
 * midpoints, 10% relative slack is comfortably above the worst case.
 */
void
expectMatchesReference(const LatencyHistogram &h,
                       std::vector<double> samples)
{
    ASSERT_EQ(h.count(), samples.size());
    for (const double pct : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
        const double exact = percentile(samples, pct);
        const double approx = h.percentileUs(pct);
        EXPECT_NEAR(approx, exact, 0.10 * exact + 1e-9)
            << "p" << pct;
    }
    // The extremes are tracked exactly, not via buckets.
    const double exact_min = percentile(samples, 0.0);
    const double exact_max = percentile(samples, 100.0);
    EXPECT_DOUBLE_EQ(h.minUs(), exact_min);
    EXPECT_DOUBLE_EQ(h.maxUs(), exact_max);
    EXPECT_DOUBLE_EQ(h.percentileUs(0.0), exact_min);
    EXPECT_DOUBLE_EQ(h.percentileUs(100.0), exact_max);
}

LatencyHistogram
histogramOf(const std::vector<double> &samples)
{
    LatencyHistogram h;
    for (const double s : samples)
        h.record(s);
    return h;
}

} // namespace

TEST(Percentile, InterpolatesAndValidates)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(LatencyHistogram, EmptyReportsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentileUs(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.meanUs(), 0.0);
    EXPECT_DOUBLE_EQ(h.minUs(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxUs(), 0.0);
}

TEST(LatencyHistogram, SingleSampleIsExactEverywhere)
{
    LatencyHistogram h;
    h.record(777.25);
    for (const double pct : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentileUs(pct), 777.25) << "p" << pct;
    EXPECT_DOUBLE_EQ(h.meanUs(), 777.25);
}

TEST(LatencyHistogram, SubMicrosecondSamplesClampToObservedValue)
{
    LatencyHistogram h;
    h.record(0.3);
    h.record(0.3);
    // Both land in the underflow bucket; the representative clamps
    // to the exact observed extreme.
    EXPECT_DOUBLE_EQ(h.percentileUs(50.0), 0.3);
    EXPECT_EQ(LatencyHistogram::bucketOf(0.3), 0);
}

TEST(LatencyHistogram, NegativeAndNanRecordAsZero)
{
    LatencyHistogram h;
    h.record(-5.0);
    h.record(std::nan(""));
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.minUs(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxUs(), 0.0);
}

TEST(LatencyHistogram, BucketEdgesAreConsistent)
{
    std::mt19937_64 rng(99);
    std::uniform_real_distribution<double> expo(0.0, 40.0);
    for (int i = 0; i < 2000; ++i) {
        const double us = std::exp2(expo(rng));
        const int b = LatencyHistogram::bucketOf(us);
        ASSERT_GE(b, 1);
        ASSERT_LT(b, LatencyHistogram::numBuckets());
        EXPECT_LE(LatencyHistogram::bucketLowerUs(b), us * (1 + 1e-12));
        if (b + 1 < LatencyHistogram::numBuckets()) {
            EXPECT_GT(LatencyHistogram::bucketLowerUs(b + 1),
                      us * (1 - 1e-12));
        }
    }
    // Overflow clamps into the last bucket instead of running off.
    EXPECT_EQ(LatencyHistogram::bucketOf(1e300),
              LatencyHistogram::numBuckets() - 1);
}

TEST(LatencyHistogram, UniformDistributionMatchesReference)
{
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> uni(50.0, 5000.0);
    std::vector<double> samples;
    for (int i = 0; i < 4000; ++i)
        samples.push_back(uni(rng));
    expectMatchesReference(histogramOf(samples), samples);
}

TEST(LatencyHistogram, BimodalDistributionMatchesReference)
{
    // Fast path vs. queue-behind-a-big-batch path: two modes four
    // orders of magnitude apart, the classic tail-latency shape.
    std::mt19937_64 rng(2);
    std::normal_distribution<double> fast(100.0, 5.0);
    std::normal_distribution<double> slow(9e5, 3e4);
    std::vector<double> samples;
    for (int i = 0; i < 600; ++i)
        samples.push_back(std::fabs(fast(rng)));
    for (int i = 0; i < 200; ++i)
        samples.push_back(std::fabs(slow(rng)));
    expectMatchesReference(histogramOf(samples), samples);
}

TEST(LatencyHistogram, HeavyTailDistributionMatchesReference)
{
    // Pareto-style heavy tail spanning ~6 decades.
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> uni(1e-6, 1.0);
    std::vector<double> samples;
    for (int i = 0; i < 3000; ++i)
        samples.push_back(20.0 * std::pow(uni(rng), -1.2));
    expectMatchesReference(histogramOf(samples), samples);
}

TEST(LatencyHistogram, ConstantDistributionIsExact)
{
    std::vector<double> samples(10000, 250.0);
    const LatencyHistogram h = histogramOf(samples);
    for (const double pct : {0.0, 50.0, 99.9, 100.0})
        EXPECT_DOUBLE_EQ(h.percentileUs(pct), 250.0);
    EXPECT_DOUBLE_EQ(h.meanUs(), 250.0);
}

TEST(LatencyHistogram, MergeEqualsRecordingEverything)
{
    std::mt19937_64 rng(4);
    std::exponential_distribution<double> expo(1.0 / 800.0);
    std::vector<double> samples;
    for (int i = 0; i < 3000; ++i)
        samples.push_back(expo(rng));

    LatencyHistogram whole = histogramOf(samples);
    LatencyHistogram parts[3];
    for (std::size_t i = 0; i < samples.size(); ++i)
        parts[i % 3].record(samples[i]);
    LatencyHistogram merged;
    for (const LatencyHistogram &p : parts)
        merged.merge(p);

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_DOUBLE_EQ(merged.minUs(), whole.minUs());
    EXPECT_DOUBLE_EQ(merged.maxUs(), whole.maxUs());
    for (const double pct : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(merged.percentileUs(pct),
                         whole.percentileUs(pct))
            << "p" << pct;
    EXPECT_NEAR(merged.meanUs(), whole.meanUs(),
                1e-9 * whole.meanUs());
}

TEST(LatencyHistogram, MergeIsAssociative)
{
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> uni(1.0, 1e7);
    LatencyHistogram a, b, c;
    for (int i = 0; i < 500; ++i) {
        a.record(uni(rng));
        b.record(uni(rng) * 1e-3);
        c.record(uni(rng) * 1e2);
    }

    LatencyHistogram left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);
    LatencyHistogram bc = b; // a + (b + c)
    bc.merge(c);
    LatencyHistogram right = a;
    right.merge(bc);

    EXPECT_EQ(left.count(), right.count());
    EXPECT_DOUBLE_EQ(left.minUs(), right.minUs());
    EXPECT_DOUBLE_EQ(left.maxUs(), right.maxUs());
    for (double pct = 0.0; pct <= 100.0; pct += 2.5)
        EXPECT_DOUBLE_EQ(left.percentileUs(pct),
                         right.percentileUs(pct))
            << "p" << pct;
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity)
{
    LatencyHistogram h;
    h.record(42.0);
    LatencyHistogram empty;
    h.merge(empty);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.percentileUs(50.0), 42.0);

    LatencyHistogram other;
    other.merge(h);
    EXPECT_EQ(other.count(), 1u);
    EXPECT_DOUBLE_EQ(other.minUs(), 42.0);
}

TEST(LatencyHistogram, ClearResets)
{
    LatencyHistogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentileUs(99.0), 0.0);
    h.record(7.0);
    EXPECT_DOUBLE_EQ(h.percentileUs(50.0), 7.0);
}

// ---- wire codec (the netbench worker->parent transport) ----

namespace {

std::vector<double>
mixedSamples(unsigned seed, int n)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> expo(1.0 / 1200.0);
    std::vector<double> out;
    for (int i = 0; i < n; ++i)
        out.push_back(expo(rng));
    out.push_back(0.0);    // underflow bucket
    out.push_back(0.4);    // sub-microsecond
    out.push_back(1e13);   // overflow bucket
    return out;
}

} // namespace

TEST(HistogramCodec, RoundTripIsByteExact)
{
    const LatencyHistogram h = histogramOf(mixedSamples(11, 4000));
    const std::string wire = h.encode();

    LatencyHistogram back;
    std::string error;
    ASSERT_TRUE(LatencyHistogram::decode(wire, &back, &error))
        << error;
    // Byte-exact: re-encoding the decoded histogram reproduces the
    // wire string bit for bit (doubles travel as bit patterns).
    EXPECT_EQ(back.encode(), wire);
    EXPECT_EQ(back.count(), h.count());
    EXPECT_DOUBLE_EQ(back.meanUs(), h.meanUs());
    EXPECT_DOUBLE_EQ(back.minUs(), h.minUs());
    EXPECT_DOUBLE_EQ(back.maxUs(), h.maxUs());
    for (const double pct : {1.0, 50.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(back.percentileUs(pct), h.percentileUs(pct));
}

TEST(HistogramCodec, EmptyHistogramRoundTrips)
{
    const LatencyHistogram h;
    LatencyHistogram back;
    back.record(5.0); // decode must replace, not merge
    ASSERT_TRUE(LatencyHistogram::decode(h.encode(), &back));
    EXPECT_EQ(back.count(), 0u);
    EXPECT_EQ(back.encode(), h.encode());
}

TEST(HistogramCodec, DecodeReplacesExistingContents)
{
    LatencyHistogram src;
    src.record(100.0);
    LatencyHistogram dst;
    for (int i = 0; i < 50; ++i)
        dst.record(1e6);
    ASSERT_TRUE(LatencyHistogram::decode(src.encode(), &dst));
    EXPECT_EQ(dst.count(), 1u);
    EXPECT_DOUBLE_EQ(dst.maxUs(), 100.0);
}

TEST(HistogramCodec, MergeCommutesWithCodec)
{
    const LatencyHistogram a = histogramOf(mixedSamples(21, 1500));
    const LatencyHistogram b = histogramOf(mixedSamples(22, 2500));

    // Path 1: merge locally, then encode.
    LatencyHistogram local = a;
    local.merge(b);

    // Path 2: encode both sides, ship, decode, merge — the netbench
    // parent's path. Must agree bitwise with path 1.
    LatencyHistogram shippedA, shippedB;
    ASSERT_TRUE(LatencyHistogram::decode(a.encode(), &shippedA));
    ASSERT_TRUE(LatencyHistogram::decode(b.encode(), &shippedB));
    shippedA.merge(shippedB);

    EXPECT_EQ(shippedA.encode(), local.encode());
}

TEST(HistogramCodec, RejectsTruncationAtEveryLength)
{
    const LatencyHistogram h = histogramOf(mixedSamples(31, 300));
    const std::string wire = h.encode();
    LatencyHistogram out;
    for (std::size_t len = 0; len < wire.size(); ++len) {
        std::string error;
        EXPECT_FALSE(LatencyHistogram::decode(wire.substr(0, len),
                                              &out, &error))
            << "prefix of " << len << " bytes decoded";
        EXPECT_FALSE(error.empty());
    }
}

TEST(HistogramCodec, RejectsBadMagicVersionAndTrailingBytes)
{
    const std::string wire = histogramOf({10.0, 20.0}).encode();
    LatencyHistogram out;

    std::string badMagic = wire;
    badMagic[0] ^= 0x5A;
    EXPECT_FALSE(LatencyHistogram::decode(badMagic, &out));

    std::string badVersion = wire;
    badVersion[4] ^= 0x01; // u16 version follows the u32 magic
    EXPECT_FALSE(LatencyHistogram::decode(badVersion, &out));

    std::string trailing = wire;
    trailing.push_back('\0');
    EXPECT_FALSE(LatencyHistogram::decode(trailing, &out));
}

TEST(HistogramCodec, RejectsNonCanonicalBucketOrder)
{
    // Two samples in well-separated buckets -> exactly two non-zero
    // (index, count) pairs after the fixed 46-byte prefix. Swapping
    // them breaks the ascending-index canonical form.
    LatencyHistogram h;
    h.record(2.0);
    h.record(1e6);
    const std::string wire = h.encode();
    constexpr std::size_t kPairsAt = 46, kPairSize = 10;
    ASSERT_EQ(wire.size(), kPairsAt + 2 * kPairSize);

    std::string swapped = wire;
    for (std::size_t i = 0; i < kPairSize; ++i)
        std::swap(swapped[kPairsAt + i],
                  swapped[kPairsAt + kPairSize + i]);
    LatencyHistogram out;
    std::string error;
    EXPECT_FALSE(LatencyHistogram::decode(swapped, &out, &error));
}

TEST(HistogramCodec, RejectsCountDisagreeingWithBuckets)
{
    LatencyHistogram h;
    h.record(5.0);
    h.record(6.0);
    std::string wire = h.encode();
    wire[10] ^= 0x01; // low byte of the u64 total-count field
    LatencyHistogram out;
    EXPECT_FALSE(LatencyHistogram::decode(wire, &out));
}
