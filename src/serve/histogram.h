/**
 * @file
 * Log-bucketed latency histogram for the serving subsystem.
 *
 * Tail-latency accounting (paper Sec. 4.2.1) over millions of queries
 * cannot keep every sample: a @c LatencyHistogram stores counts in
 * geometrically spaced buckets (HdrHistogram-style), so recording is
 * O(1), memory is a few KB regardless of sample count, and two
 * histograms merge by adding counts — each serving worker records
 * into its own instance and the endpoint merges them at the end, which
 * keeps the hot path lock-free.
 *
 * Buckets grow by 2^(1/kSubBuckets) per step, bounding the relative
 * error of any reported percentile by one bucket width (~9% with the
 * default 8 sub-buckets per octave). Exact minimum, maximum, count
 * and sum are tracked on the side, so mean/min/max are precise and
 * only interior percentiles are quantized.
 *
 * Deliberately unsynchronized (no mutex, no annotations): an instance
 * is confined to one serving worker, and merging happens on the
 * coordinator thread after the worker pool has joined. Sharing an
 * instance across threads is a bug in the caller, not a missing lock
 * here.
 */

#ifndef AIB_SERVE_HISTOGRAM_H
#define AIB_SERVE_HISTOGRAM_H

#include <cstdint>
#include <string>
#include <vector>

namespace aib::serve {

class LatencyHistogram
{
  public:
    /** Sub-buckets per octave; 8 -> <=~9% relative quantization. */
    static constexpr int kSubBuckets = 8;
    /** Covered range: [1us, 2^kOctaves us) plus under/overflow. */
    static constexpr int kOctaves = 42;

    LatencyHistogram();

    /** Record one latency sample in microseconds (negative -> 0). */
    void record(double us);

    /** Add another histogram's samples into this one. */
    void merge(const LatencyHistogram &other);

    /** Drop all samples. */
    void clear();

    /** Number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Exact mean of the recorded samples (0 when empty). */
    double meanUs() const;

    /** Exact smallest / largest recorded sample (0 when empty). */
    double minUs() const;
    double maxUs() const;

    /**
     * Value at percentile @p pct in [0, 100]: the representative
     * (geometric midpoint) of the bucket holding the pct-th sample,
     * clamped to the exact observed min/max. 0 when empty.
     */
    double percentileUs(double pct) const;

    /**
     * Serialize into a compact canonical byte string (little-endian,
     * non-zero buckets only, ascending index): the transport format
     * netbench worker processes use to ship their private histograms
     * over a pipe to the merging parent. The encoding is byte-exact:
     * encode(decode(encode(h))) == encode(h), doubles travel as bit
     * patterns, and merge commutes with the codec — so
     * "merge then encode" and "encode, ship, decode, merge" agree
     * bitwise (the merge-associativity contract of the tests).
     */
    std::string encode() const;

    /**
     * Decode @p bytes (as produced by @c encode) into @p *out,
     * replacing its contents. Returns false — with a reason in
     * @p *error when non-null — on bad magic, version or bucket
     * geometry mismatch, truncation, non-canonical bucket order, or a
     * count that disagrees with the bucket totals.
     */
    static bool decode(const std::string &bytes, LatencyHistogram *out,
                       std::string *error = nullptr);

    /** Number of internal buckets (for tests). */
    static constexpr int numBuckets() { return kSubBuckets * kOctaves + 1; }

    /** Bucket index a value lands in (for tests). */
    static int bucketOf(double us);

    /** Inclusive lower edge of a bucket in us (for tests). */
    static double bucketLowerUs(int bucket);

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sumUs_ = 0.0;
    double minUs_ = 0.0;
    double maxUs_ = 0.0;
};

} // namespace aib::serve

#endif // AIB_SERVE_HISTOGRAM_H
