/**
 * @file
 * Pinned data streams: the synthetic generators, Tensor::randn and
 * the affordable subset's first training epochs against constants
 * recorded with libstdc++'s std::mt19937_64 and per-draw
 * std::normal_distribution<float>, the sampler that Rng's in-tree
 * engine and block fill replace bit for bit.
 *
 * The thread-invariance, graphopt-determinism and crash-matrix suites
 * compare runs of one build with each other, so a change that moves
 * every draw alike passes all of them. These constants do not move
 * with the build: a failure here is a changed data stream. Never
 * re-record a constant to make a drift pass; find the draw that moved.
 *
 * The constants hold for x86-64 builds without -march=native. A
 * compiler that may fuse the sampler's multiply-adds (FMA hardware,
 * e.g. AIB_NATIVE_ARCH or AArch64) rounds differently, so those
 * builds skip the comparison.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/runner.h"
#include "data/synth_audio.h"
#include "data/synth_images.h"
#include "data/synth_ratings.h"
#include "data/synth_video.h"
#include "data/synth_voxel.h"
#include "tensor/tensor.h"

namespace aib::data {
namespace {

/** FNV-1a 64 over everything fed to it, in order. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void
    tensor(const Tensor &t)
    {
        bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
    }
    void integer(std::int64_t v) { bytes(&v, sizeof v); }
    void real(float v) { bytes(&v, sizeof v); }
    void text(const std::string &s) { bytes(s.data(), s.size()); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** True in the build the constants were recorded in. */
constexpr bool kPinnedBuild =
#if defined(__x86_64__) && !defined(__FP_FAST_FMAF)
    true;
#else
    false;
#endif

constexpr const char *kOtherBuild =
    "constants recorded on x86-64 without FMA contraction";

TEST(PinnedStreams, ShapeImage)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    ShapeImageGenerator gen(10, 3, 16, 0.12f, 0x11 * 2654435761ULL);
    Digest d;
    for (int i = 0; i < 3; ++i) {
        const ImageSample s = gen.sample();
        d.tensor(s.image);
        d.integer(s.label);
    }
    d.tensor(gen.batch(2).images);
    d.text(gen.state());
    EXPECT_EQ(d.value(), 0x5145f3c92acabe61ULL);
}

void
addScene(Digest &d, const DetectionScene &s)
{
    d.tensor(s.image);
    for (const auto &o : s.objects) {
        d.integer(o.label);
        d.real(o.box.x1);
        d.real(o.box.y1);
        d.real(o.box.x2);
        d.real(o.box.y2);
    }
}

TEST(PinnedStreams, DetectionSceneAndExemplar)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    DetectionSceneGenerator gen(3, 32, 0.03f, 0x55 * 2654435761ULL);
    Digest d;
    for (int i = 0; i < 2; ++i)
        addScene(d, gen.sample());
    d.text(gen.state());
    EXPECT_EQ(d.value(), 0x7e20be5ca0cf860eULL);

    // Each request's exemplar draws from its own seeded Rng.
    Digest e;
    addScene(e, gen.exemplarScene(0));
    addScene(e, gen.exemplarScene(7));
    EXPECT_EQ(e.value(), 0x5b38d3789bdd20f4ULL);
}

TEST(PinnedStreams, PairedDomainInterleavesItsDraws)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    PairedDomainGenerator gen(3, 16, 0.02f, 0x99 * 2654435761ULL);
    Digest d;
    for (int i = 0; i < 2; ++i) {
        const PairedScene s = gen.sample();
        d.tensor(s.domainA);
        d.tensor(s.domainB);
        d.tensor(s.labelMap);
    }
    d.text(gen.state());
    EXPECT_EQ(d.value(), 0x74f82ec13bbf5288ULL);
}

TEST(PinnedStreams, TranslatedGlyph)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    TranslatedGlyphGenerator gen(6, 20, 4, 0.05f, 0x33 * 2654435761ULL);
    Digest d;
    for (int i = 0; i < 3; ++i) {
        const ImageSample s = gen.sample();
        d.tensor(s.image);
        d.integer(s.label);
    }
    d.text(gen.state());
    EXPECT_EQ(d.value(), 0xd4224386af1e9724ULL);
}

TEST(PinnedStreams, Voxel)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    VoxelShapeGenerator gen(12, 4, 0.03f, 0xf2 * 2654435761ULL);
    Digest d;
    for (int i = 0; i < 2; ++i) {
        const VoxelSample s = gen.sample();
        d.tensor(s.view);
        d.tensor(s.voxels);
        d.integer(s.label);
    }
    d.text(gen.state());
    EXPECT_EQ(d.value(), 0x7c63541cd459225fULL);
}

TEST(PinnedStreams, Video)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    // The suite's video task trains without noise; 0.05 pins the path.
    MovingSpriteGenerator gen(16, 6, 3, 0.05f, 0xf1 * 2654435761ULL);
    Digest d;
    for (int i = 0; i < 2; ++i)
        d.tensor(gen.sample().frames);
    d.text(gen.state());
    EXPECT_EQ(d.value(), 0xe5662ef9db4c91c9ULL);
}

TEST(PinnedStreams, AudioFrames)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    UtteranceGenerator gen(8, 12, 3, 5, 0.25f, 0xbb * 2654435761ULL);
    Digest d;
    for (int i = 0; i < 2; ++i) {
        const Utterance u = gen.sample();
        d.tensor(u.frames);
        for (int l : u.frameLabels)
            d.integer(l);
    }
    d.text(gen.state());
    EXPECT_EQ(d.value(), 0x72d51d3ccb97e8f0ULL);
}

TEST(PinnedStreams, RatingsFactors)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    InteractionGenerator gen(30, 100, 4, 6, 0xee * 2654435761ULL);
    Digest d;
    for (int u = 0; u < gen.users(); ++u)
        for (int i = 0; i < gen.items(); ++i)
            d.real(gen.trueAffinity(u, i));
    for (const Interaction &x : gen.trainSet()) {
        d.integer(x.user);
        d.integer(x.item);
    }
    for (int h : gen.heldOut())
        d.integer(h);
    d.text(gen.state());
    EXPECT_EQ(d.value(), 0xafb4efd20d5bace0ULL);
}

TEST(PinnedStreams, Randn)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    Digest d;
    for (std::uint64_t seed : {0ULL, 42ULL, 0x5eedULL}) {
        Rng rng(seed);
        d.tensor(Tensor::randn({3, 5}, rng));
        d.tensor(Tensor::randn({1000}, rng));
        d.text(rng.state());
    }
    EXPECT_EQ(d.value(), 0xda5820c77e986e5aULL);
}

/** Qualities of a 3-epoch session at seed 42, as %.17g. */
std::string
threeEpochQualities(const char *id)
{
    const core::ComponentBenchmark *b = core::findBenchmark(id);
    if (b == nullptr)
        return "unknown";
    core::RunOptions options;
    options.maxEpochs = 3;
    const core::TrainResult r = core::trainToQuality(*b, 42, options);
    std::string out;
    for (double q : r.qualityByEpoch) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", q);
        out += out.empty() ? buf : std::string(" ") + buf;
    }
    return out;
}

TEST(PinnedStreams, SubsetQualitiesAtSeed42)
{
    if (!kPinnedBuild)
        GTEST_SKIP() << kOtherBuild;
    EXPECT_EQ(threeEpochQualities("DC-AI-C1"),
              "0.15666666666666668 0.21666666666666667 0.315");
    EXPECT_EQ(threeEpochQualities("DC-AI-C9"), "0.0087912087912087912 0 0");
    EXPECT_EQ(threeEpochQualities("DC-AI-C16"),
              "0.090000000000000024 0.096666666666666692 "
              "0.11333333333333336");
}

} // namespace
} // namespace aib::data
