#include "tensor/random.h"

#include <algorithm>

namespace aib {

void
Rng::normal(float *out, std::int64_t n, float mean, float stddev)
{
    // Pairs one pass examines at most: half a block of engine words.
    constexpr std::size_t kMaxPairs = Mt19937_64::kStateSize / 2;
    float u[2 * kMaxPairs];
    float ys[kMaxPairs];
    float r2s[kMaxPairs];
    std::uint16_t pair_of[kMaxPairs];

    std::int64_t done = 0;
    while (done < n) {
        const auto words = engine_.block();
        if (words.size() == 1) {
            // The next pair straddles a refill.
            out[done++] = normal(mean, stddev);
            continue;
        }
        const auto need = static_cast<std::size_t>(
            std::min<std::int64_t>(n - done, kMaxPairs));
        // About 79 % of pairs are accepted: examining half as many
        // again as are needed usually finishes in one pass.
        const std::size_t pairs =
            std::min(words.size() / 2, need + need / 2 + 8);

        for (std::size_t i = 0; i < 2 * pairs; ++i)
            u[i] = canonicalFloat(Mt19937_64::temper(words[i]));

        // Every pair is stored at the next free slot, which only an
        // accepted pair takes: compaction without a branch.
        std::size_t accepted = 0;
        for (std::size_t k = 0; k < pairs; ++k) {
            const float x = static_cast<float>(2.0f * u[2 * k] - 1.0);
            const float y = static_cast<float>(2.0f * u[2 * k + 1] - 1.0);
            const float r2 = x * x + y * y;
            ys[accepted] = y;
            r2s[accepted] = r2;
            pair_of[accepted] = static_cast<std::uint16_t>(k);
            accepted +=
                static_cast<std::size_t>(!((r2 > 1.0f) | (r2 == 0.0f)));
        }
        // Consume up to the last pair taken: all examined pairs unless
        // the need was met inside them.
        const std::size_t take = std::min(accepted, need);
        engine_.consume(
            2 * (take == need ? pair_of[take - 1] + std::size_t{1} : pairs));

        float *dst = out + done;
        for (std::size_t i = 0; i < take; ++i)
            dst[i] = polarValue(ys[i], r2s[i], mean, stddev);
        done += static_cast<std::int64_t>(take);
    }
}

} // namespace aib
