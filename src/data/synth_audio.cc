#include "data/synth_audio.h"

#include <cmath>

namespace aib::data {

UtteranceGenerator::UtteranceGenerator(int phoneme_classes,
                                       int feature_dim,
                                       int min_phonemes,
                                       int max_phonemes, float noise,
                                       std::uint64_t seed)
    : classes_(phoneme_classes), featureDim_(feature_dim),
      minPhonemes_(min_phonemes), maxPhonemes_(max_phonemes),
      noise_(noise), rng_(seed)
{
    // Formant-style templates: a couple of spectral peaks per class.
    templates_.resize(static_cast<std::size_t>(phoneme_classes));
    for (int c = 0; c < phoneme_classes; ++c) {
        auto &tpl = templates_[static_cast<std::size_t>(c)];
        tpl.assign(static_cast<std::size_t>(feature_dim), 0.0f);
        const int f1 = static_cast<int>(
            rng_.uniformInt(0, feature_dim - 1));
        const int f2 = static_cast<int>(
            rng_.uniformInt(0, feature_dim - 1));
        for (int d = 0; d < feature_dim; ++d) {
            const float d1 = static_cast<float>(d - f1);
            const float d2 = static_cast<float>(d - f2);
            tpl[static_cast<std::size_t>(d)] =
                std::exp(-0.5f * d1 * d1) + 0.7f * std::exp(
                    -0.5f * d2 * d2);
        }
    }
}

Utterance
UtteranceGenerator::sample()
{
    Utterance utt;
    const int num_phonemes =
        static_cast<int>(rng_.uniformInt(minPhonemes_, maxPhonemes_));
    int prev = -1;
    for (int i = 0; i < num_phonemes; ++i) {
        int ph =
            static_cast<int>(rng_.uniformInt(0, classes_ - 1));
        // Avoid adjacent repeats so collapse() is invertible.
        if (ph == prev)
            ph = (ph + 1) % classes_;
        utt.phonemes.push_back(ph);
        prev = ph;
        const int duration = static_cast<int>(rng_.uniformInt(2, 4));
        for (int t = 0; t < duration; ++t)
            utt.frameLabels.push_back(ph);
    }

    const std::int64_t total_frames =
        static_cast<std::int64_t>(utt.frameLabels.size());
    utt.frames = Tensor::empty({total_frames, featureDim_});
    float *p = utt.frames.data();
    rng_.normal(p, utt.frames.numel(), 0.0f, 1.0f);
    for (std::int64_t t = 0; t < total_frames; ++t) {
        const auto &tpl = templates_[static_cast<std::size_t>(
            utt.frameLabels[static_cast<std::size_t>(t)])];
        for (int d = 0; d < featureDim_; ++d)
            p[t * featureDim_ + d] =
                tpl[static_cast<std::size_t>(d)] +
                noise_ * p[t * featureDim_ + d];
    }
    return utt;
}

std::vector<int>
UtteranceGenerator::collapse(const std::vector<int> &frames)
{
    std::vector<int> out;
    int prev = -1;
    for (int f : frames) {
        if (f != prev)
            out.push_back(f);
        prev = f;
    }
    return out;
}

} // namespace aib::data
