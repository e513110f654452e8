#include "data/synth_images.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/noise.h"

namespace aib::data {

namespace {

/** splitmix64 mixer for the pure exemplar paths. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Advance @p h and map it to a float in [-1, 1). */
float
hashSigned(std::uint64_t &h)
{
    h = mix64(h);
    return static_cast<float>(h >> 11) * 0x1p-52f - 1.0f;
}

/** Class-dependent base color (RGB in [0,1]). */
void
classColor(int label, float *rgb)
{
    static const float palette[10][3] = {
        {0.9f, 0.2f, 0.2f}, {0.2f, 0.9f, 0.2f}, {0.2f, 0.2f, 0.9f},
        {0.9f, 0.9f, 0.2f}, {0.9f, 0.2f, 0.9f}, {0.2f, 0.9f, 0.9f},
        {0.9f, 0.6f, 0.2f}, {0.6f, 0.2f, 0.9f}, {0.7f, 0.7f, 0.7f},
        {0.4f, 0.9f, 0.6f}};
    const float *c = palette[label % 10];
    rgb[0] = c[0];
    rgb[1] = c[1];
    rgb[2] = c[2];
}

/** True when pixel (x, y) is inside the class shape at (cx, cy). */
bool
insideShape(int label, float x, float y, float cx, float cy, float r)
{
    const float dx = x - cx, dy = y - cy;
    switch (label % 10) {
      case 0: // square
        return std::fabs(dx) < r && std::fabs(dy) < r;
      case 1: // circle
        return dx * dx + dy * dy < r * r;
      case 2: // triangle (upward)
        return dy > -r && dy < r &&
               std::fabs(dx) < (r - dy) * 0.5f + 0.2f;
      case 3: // cross
        return (std::fabs(dx) < r * 0.35f && std::fabs(dy) < r) ||
               (std::fabs(dy) < r * 0.35f && std::fabs(dx) < r);
      case 4: // ring
        {
            const float d2 = dx * dx + dy * dy;
            return d2 < r * r && d2 > 0.25f * r * r;
        }
      case 5: // diagonal stripe
        return std::fabs(dx - dy) < r * 0.5f && std::fabs(dx) < r &&
               std::fabs(dy) < r;
      case 6: // horizontal bar
        return std::fabs(dy) < r * 0.4f && std::fabs(dx) < r;
      case 7: // vertical bar
        return std::fabs(dx) < r * 0.4f && std::fabs(dy) < r;
      case 8: // diamond
        return std::fabs(dx) + std::fabs(dy) < r;
      case 9: // corner L
        return (dx > -r && dx < -0.2f * r && std::fabs(dy) < r) ||
               (dy > 0.2f * r && dy < r && std::fabs(dx) < r);
      default:
        return false;
    }
}

} // namespace

ShapeImageGenerator::ShapeImageGenerator(int classes, int channels,
                                         int size, float noise,
                                         std::uint64_t seed,
                                         bool color_by_class)
    : classes_(classes), channels_(channels), size_(size), noise_(noise),
      colorByClass_(color_by_class), rng_(seed)
{
    if (classes < 2 || classes > 10)
        throw std::invalid_argument(
            "ShapeImageGenerator: classes must be in [2, 10]");
    if (channels < 1 || channels > 4)
        throw std::invalid_argument(
            "ShapeImageGenerator: channels must be in [1, 4]");
}

void
ShapeImageGenerator::renderShape(float *img, int label, float cx,
                                 float cy, float scale,
                                 float brightness, int color) const
{
    float rgb[3];
    classColor(color, rgb);
    const float r = scale * static_cast<float>(size_) * 0.3f;
    for (int y = 0; y < size_; ++y) {
        for (int x = 0; x < size_; ++x) {
            if (!insideShape(label, static_cast<float>(x),
                             static_cast<float>(y), cx, cy, r))
                continue;
            for (int c = 0; c < std::min(channels_, 3); ++c)
                img[c * size_ * size_ + y * size_ + x] =
                    rgb[c] * brightness;
            if (channels_ == 4) {
                // Depth plane: nearer at the shape center.
                const float dx = static_cast<float>(x) - cx;
                const float dy = static_cast<float>(y) - cy;
                const float d =
                    std::sqrt(dx * dx + dy * dy) / (r + 1e-3f);
                img[3 * size_ * size_ + y * size_ + x] =
                    std::max(0.0f, 1.0f - d);
            }
        }
    }
}

ImageSample
ShapeImageGenerator::sample()
{
    const int label = static_cast<int>(rng_.uniformInt(0, classes_ - 1));
    Tensor image = Tensor::zeros({channels_, size_, size_});
    const float cx = static_cast<float>(size_) *
                     (0.5f + 0.15f * (rng_.uniform() - 0.5f) * 2.0f);
    const float cy = static_cast<float>(size_) *
                     (0.5f + 0.15f * (rng_.uniform() - 0.5f) * 2.0f);
    const float scale = rng_.uniform(0.8f, 1.2f);
    const float brightness = rng_.uniform(0.7f, 1.0f);
    const int color = colorByClass_
                          ? label
                          : static_cast<int>(rng_.uniformInt(0, 9));
    renderShape(image.data(), label, cx, cy, scale, brightness, color);
    if (noise_ > 0.0f)
        addClampedNoise(rng_, noise_, image.numel(), image.data());
    return ImageSample{std::move(image), label};
}

ImageBatch
ShapeImageGenerator::batch(int n)
{
    ImageBatch out;
    out.images = Tensor::empty({n, channels_, size_, size_});
    out.labels.reserve(static_cast<std::size_t>(n));
    const std::int64_t stride =
        static_cast<std::int64_t>(channels_) * size_ * size_;
    for (int i = 0; i < n; ++i) {
        ImageSample s = sample();
        std::copy(s.image.data(), s.image.data() + stride,
                  out.images.data() + i * stride);
        out.labels.push_back(s.label);
    }
    return out;
}

Tensor
ShapeImageGenerator::exemplar(int label)
{
    Tensor image = Tensor::zeros({channels_, size_, size_});
    renderShape(image.data(), label, static_cast<float>(size_) * 0.5f,
                static_cast<float>(size_) * 0.5f, 1.0f, 1.0f, label);
    return image;
}

IdentityImageGenerator::IdentityImageGenerator(int identities,
                                               int channels, int size,
                                               float pose_noise,
                                               std::uint64_t seed)
    : identities_(identities), channels_(channels), size_(size),
      poseNoise_(pose_noise), rng_(seed)
{
    // Each identity: a fixed low-frequency appearance basis.
    prototypes_.resize(static_cast<std::size_t>(identities));
    for (auto &proto : prototypes_) {
        proto.resize(8);
        for (float &v : proto)
            v = rng_.normal();
    }
}

Tensor
IdentityImageGenerator::sampleOf(int identity)
{
    if (identity < 0 || identity >= identities_)
        throw std::out_of_range("IdentityImageGenerator: bad identity");
    const auto &proto = prototypes_[static_cast<std::size_t>(identity)];
    Tensor image = Tensor::empty({channels_, size_, size_});
    float *img = image.data();
    // Pose perturbation: small phase shifts of the basis functions.
    const float px = poseNoise_ * rng_.normal();
    const float py = poseNoise_ * rng_.normal();
    const float lighting = 1.0f + 0.2f * rng_.normal();
    for (int c = 0; c < channels_; ++c) {
        for (int y = 0; y < size_; ++y) {
            for (int x = 0; x < size_; ++x) {
                const float fx =
                    (static_cast<float>(x) / size_ + px) * 6.2832f;
                const float fy =
                    (static_cast<float>(y) / size_ + py) * 6.2832f;
                float v = proto[0] * std::sin(fx) +
                          proto[1] * std::cos(fy) +
                          proto[2] * std::sin(fx + fy) +
                          proto[3] * std::cos(fx - fy) +
                          proto[4] * std::sin(2.0f * fx) +
                          proto[5] * std::cos(2.0f * fy) +
                          proto[6] * std::sin(2.0f * (fx + fy)) +
                          proto[7];
                v = v * 0.15f * lighting + 0.5f +
                    0.02f * rng_.normal() +
                    0.05f * static_cast<float>(c);
                img[(c * size_ + y) * size_ + x] =
                    std::clamp(v, 0.0f, 1.0f);
            }
        }
    }
    return image;
}

Tensor
IdentityImageGenerator::exemplarOf(int identity, int variant) const
{
    if (identity < 0 || identity >= identities_)
        throw std::out_of_range("IdentityImageGenerator: bad identity");
    const auto &proto = prototypes_[static_cast<std::size_t>(identity)];
    std::uint64_t h =
        mix64(static_cast<std::uint64_t>(static_cast<unsigned>(identity)) *
                  0x9E3779B97F4A7C15ULL ^
              static_cast<std::uint64_t>(static_cast<unsigned>(variant)));
    const float px = poseNoise_ * hashSigned(h);
    const float py = poseNoise_ * hashSigned(h);
    const float lighting = 1.0f + 0.2f * hashSigned(h);
    Tensor image = Tensor::empty({channels_, size_, size_});
    float *img = image.data();
    for (int c = 0; c < channels_; ++c) {
        for (int y = 0; y < size_; ++y) {
            for (int x = 0; x < size_; ++x) {
                const float fx =
                    (static_cast<float>(x) / size_ + px) * 6.2832f;
                const float fy =
                    (static_cast<float>(y) / size_ + py) * 6.2832f;
                float v = proto[0] * std::sin(fx) +
                          proto[1] * std::cos(fy) +
                          proto[2] * std::sin(fx + fy) +
                          proto[3] * std::cos(fx - fy) +
                          proto[4] * std::sin(2.0f * fx) +
                          proto[5] * std::cos(2.0f * fy) +
                          proto[6] * std::sin(2.0f * (fx + fy)) +
                          proto[7];
                // No per-pixel noise: the exemplar must be a pure
                // function of (identity, variant).
                v = v * 0.15f * lighting + 0.5f +
                    0.05f * static_cast<float>(c);
                img[(c * size_ + y) * size_ + x] =
                    std::clamp(v, 0.0f, 1.0f);
            }
        }
    }
    return image;
}

ImageSample
IdentityImageGenerator::sample()
{
    const int id = static_cast<int>(rng_.uniformInt(0, identities_ - 1));
    return ImageSample{sampleOf(id), id};
}

IdentityImageGenerator::Triplet
IdentityImageGenerator::tripletBatch(int n)
{
    Triplet out;
    out.anchor = Tensor::empty({n, channels_, size_, size_});
    out.positive = Tensor::empty({n, channels_, size_, size_});
    out.negative = Tensor::empty({n, channels_, size_, size_});
    const std::int64_t stride =
        static_cast<std::int64_t>(channels_) * size_ * size_;
    for (int i = 0; i < n; ++i) {
        const int id =
            static_cast<int>(rng_.uniformInt(0, identities_ - 1));
        int other =
            static_cast<int>(rng_.uniformInt(0, identities_ - 2));
        if (other >= id)
            ++other;
        Tensor a = sampleOf(id);
        Tensor p = sampleOf(id);
        Tensor ng = sampleOf(other);
        std::copy(a.data(), a.data() + stride,
                  out.anchor.data() + i * stride);
        std::copy(p.data(), p.data() + stride,
                  out.positive.data() + i * stride);
        std::copy(ng.data(), ng.data() + stride,
                  out.negative.data() + i * stride);
    }
    return out;
}

DetectionSceneGenerator::DetectionSceneGenerator(int classes, int size,
                                                 float noise,
                                                 std::uint64_t seed)
    : classes_(classes), size_(size), noise_(noise), seed_(seed),
      rng_(seed)
{
    if (classes < 1 || classes > 10)
        throw std::invalid_argument(
            "DetectionSceneGenerator: classes must be in [1, 10]");
}

DetectionScene
DetectionSceneGenerator::sample()
{
    return sampleWith(rng_);
}

DetectionScene
DetectionSceneGenerator::exemplarScene(int variant) const
{
    Rng rng(mix64(seed_ ^ (static_cast<std::uint64_t>(
                               static_cast<unsigned>(variant)) *
                           0x9E3779B97F4A7C15ULL)));
    return sampleWith(rng);
}

DetectionScene
DetectionSceneGenerator::sampleWith(Rng &rng) const
{
    DetectionScene scene;
    scene.image = Tensor::zeros({3, size_, size_});
    float *img = scene.image.data();

    const int objects = static_cast<int>(rng.uniformInt(1, 2));
    for (int o = 0; o < objects; ++o) {
        const int label =
            static_cast<int>(rng.uniformInt(0, classes_ - 1));
        const float w = rng.uniform(0.25f, 0.5f) * size_;
        const float h = rng.uniform(0.25f, 0.5f) * size_;
        float x1 = rng.uniform(0.0f, size_ - w);
        float y1 = rng.uniform(0.0f, size_ - h);
        // Keep object centers apart so grid-cell assignments do not
        // collide (two centers in one cell would make conflicting
        // training targets).
        for (int attempt = 0; attempt < 16 && o > 0; ++attempt) {
            const float cx = x1 + 0.5f * w, cy = y1 + 0.5f * h;
            const auto &prev = scene.objects.front().box;
            const float pcx = 0.5f * (prev.x1 + prev.x2);
            const float pcy = 0.5f * (prev.y1 + prev.y2);
            const float min_sep = static_cast<float>(size_) * 0.28f;
            if (std::fabs(cx - pcx) >= min_sep ||
                std::fabs(cy - pcy) >= min_sep)
                break;
            x1 = rng.uniform(0.0f, size_ - w);
            y1 = rng.uniform(0.0f, size_ - h);
        }
        float rgb[3];
        classColor(label, rgb);
        for (int y = static_cast<int>(y1);
             y < static_cast<int>(y1 + h) && y < size_; ++y) {
            for (int x = static_cast<int>(x1);
                 x < static_cast<int>(x1 + w) && x < size_; ++x) {
                for (int c = 0; c < 3; ++c)
                    img[(c * size_ + y) * size_ + x] = rgb[c];
            }
        }
        metrics::GroundTruth gt;
        gt.label = label;
        gt.box = metrics::Box{x1, y1, x1 + w, y1 + h};
        scene.objects.push_back(gt);
    }
    if (noise_ > 0.0f)
        addClampedNoise(rng, noise_, scene.image.numel(), img);
    return scene;
}

PairedDomainGenerator::PairedDomainGenerator(int classes, int size,
                                             float noise,
                                             std::uint64_t seed)
    : classes_(classes), size_(size), noise_(noise), rng_(seed)
{}

PairedScene
PairedDomainGenerator::sample()
{
    PairedScene scene;
    scene.domainA = Tensor::zeros({3, size_, size_});
    scene.domainB = Tensor::zeros({3, size_, size_});
    scene.labelMap = Tensor::zeros({size_, size_});

    const int label = static_cast<int>(rng_.uniformInt(0, classes_ - 1));
    const float cx = size_ * rng_.uniform(0.35f, 0.65f);
    const float cy = size_ * rng_.uniform(0.35f, 0.65f);
    const float r = size_ * rng_.uniform(0.22f, 0.32f);
    float rgb[3];
    classColor(label, rgb);

    float *a = scene.domainA.data();
    float *b = scene.domainB.data();
    float *m = scene.labelMap.data();
    for (int y = 0; y < size_; ++y) {
        for (int x = 0; x < size_; ++x) {
            const bool inside =
                insideShape(label, static_cast<float>(x),
                            static_cast<float>(y), cx, cy, r);
            const bool inside_small =
                insideShape(label, static_cast<float>(x),
                            static_cast<float>(y), cx, cy, r * 0.75f);
            // Domain A: outline only (edge band), white.
            if (inside && !inside_small) {
                for (int c = 0; c < 3; ++c)
                    a[(c * size_ + y) * size_ + x] = 1.0f;
            }
            // Domain B: filled with the class color.
            if (inside) {
                for (int c = 0; c < 3; ++c)
                    b[(c * size_ + y) * size_ + x] = rgb[c];
                m[y * size_ + x] = static_cast<float>(label + 1);
            }
        }
    }
    if (noise_ > 0.0f)
        addClampedNoise(rng_, noise_, scene.domainA.numel(), a, b);
    return scene;
}

TranslatedGlyphGenerator::TranslatedGlyphGenerator(int classes, int size,
                                                   int max_shift,
                                                   float noise,
                                                   std::uint64_t seed)
    : classes_(classes), size_(size), maxShift_(max_shift),
      noise_(noise), rng_(seed)
{}

ImageSample
TranslatedGlyphGenerator::sample()
{
    const int label = static_cast<int>(rng_.uniformInt(0, classes_ - 1));
    Tensor image = Tensor::zeros({1, size_, size_});
    const int dx =
        static_cast<int>(rng_.uniformInt(-maxShift_, maxShift_));
    const int dy =
        static_cast<int>(rng_.uniformInt(-maxShift_, maxShift_));
    const float cx = size_ * 0.5f + static_cast<float>(dx);
    const float cy = size_ * 0.5f + static_cast<float>(dy);
    const float r = size_ * 0.22f;
    float *img = image.data();
    for (int y = 0; y < size_; ++y)
        for (int x = 0; x < size_; ++x)
            if (insideShape(label, static_cast<float>(x),
                            static_cast<float>(y), cx, cy, r))
                img[y * size_ + x] = 1.0f;
    if (noise_ > 0.0f)
        addClampedNoise(rng_, noise_, image.numel(), img);
    return ImageSample{std::move(image), label};
}

ImageBatch
TranslatedGlyphGenerator::batch(int n)
{
    ImageBatch out;
    out.images = Tensor::empty({n, 1, size_, size_});
    out.labels.reserve(static_cast<std::size_t>(n));
    const std::int64_t stride =
        static_cast<std::int64_t>(size_) * size_;
    for (int i = 0; i < n; ++i) {
        ImageSample s = sample();
        std::copy(s.image.data(), s.image.data() + stride,
                  out.images.data() + i * stride);
        out.labels.push_back(s.label);
    }
    return out;
}

} // namespace aib::data
