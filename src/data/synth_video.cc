#include "data/synth_video.h"

#include <algorithm>

#include "data/noise.h"

namespace aib::data {

MovingSpriteGenerator::MovingSpriteGenerator(int size, int frames,
                                             int sprite, float noise,
                                             std::uint64_t seed)
    : size_(size), frames_(frames), sprite_(sprite), noise_(noise),
      rng_(seed)
{}

VideoClip
MovingSpriteGenerator::sample()
{
    VideoClip clip;
    clip.frames = Tensor::zeros({frames_, 1, size_, size_});
    float x = rng_.uniform(0.0f, static_cast<float>(size_ - sprite_));
    float y = rng_.uniform(0.0f, static_cast<float>(size_ - sprite_));
    float vx = rng_.uniform(0.8f, 1.6f) * (rng_.bernoulli(0.5) ? 1 : -1);
    float vy = rng_.uniform(0.8f, 1.6f) * (rng_.bernoulli(0.5) ? 1 : -1);
    float *p = clip.frames.data();
    const std::int64_t frame_stride =
        static_cast<std::int64_t>(size_) * size_;
    for (int t = 0; t < frames_; ++t) {
        float *frame = p + t * frame_stride;
        const int xi = static_cast<int>(x);
        const int yi = static_cast<int>(y);
        for (int dy = 0; dy < sprite_; ++dy)
            for (int dx = 0; dx < sprite_; ++dx) {
                const int yy = std::clamp(yi + dy, 0, size_ - 1);
                const int xx = std::clamp(xi + dx, 0, size_ - 1);
                frame[yy * size_ + xx] = 1.0f;
            }
        if (noise_ > 0.0f)
            addClampedNoise(rng_, noise_, frame_stride, frame);
        x += vx;
        y += vy;
        if (x < 0.0f || x > static_cast<float>(size_ - sprite_)) {
            vx = -vx;
            x = std::clamp(x, 0.0f,
                           static_cast<float>(size_ - sprite_));
        }
        if (y < 0.0f || y > static_cast<float>(size_ - sprite_)) {
            vy = -vy;
            y = std::clamp(y, 0.0f,
                           static_cast<float>(size_ - sprite_));
        }
    }
    return clip;
}

} // namespace aib::data
