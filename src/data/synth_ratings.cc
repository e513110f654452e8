#include "data/synth_ratings.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aib::data {

InteractionGenerator::InteractionGenerator(int users, int items,
                                           int factors, int per_user,
                                           std::uint64_t seed)
    : users_(users), items_(items), factors_(factors), rng_(seed)
{
    if (per_user + 1 >= items)
        throw std::invalid_argument(
            "InteractionGenerator: per_user too large for item count");
    userFactors_.resize(static_cast<std::size_t>(users * factors));
    itemFactors_.resize(static_cast<std::size_t>(items * factors));
    rng_.normal(userFactors_.data(),
                static_cast<std::int64_t>(userFactors_.size()), 0.0f, 1.0f);
    rng_.normal(itemFactors_.data(),
                static_cast<std::int64_t>(itemFactors_.size()), 0.0f, 1.0f);

    userItems_.resize(static_cast<std::size_t>(users));
    heldOut_.resize(static_cast<std::size_t>(users));
    for (int u = 0; u < users; ++u) {
        // Rank items by true affinity (with sampling noise) and take
        // the head as this user's interactions.
        std::vector<std::pair<float, int>> scored;
        scored.reserve(static_cast<std::size_t>(items));
        for (int i = 0; i < items; ++i)
            scored.emplace_back(
                trueAffinity(u, i) + 0.5f * rng_.normal(), i);
        std::partial_sort(scored.begin(),
                          scored.begin() + per_user + 1, scored.end(),
                          [](const auto &a, const auto &b) {
                              return a.first > b.first;
                          });
        auto &owned = userItems_[static_cast<std::size_t>(u)];
        // First becomes the held-out test positive.
        heldOut_[static_cast<std::size_t>(u)] = scored[0].second;
        owned.insert(scored[0].second);
        for (int k = 1; k <= per_user; ++k) {
            train_.push_back(Interaction{u, scored[
                static_cast<std::size_t>(k)].second});
            owned.insert(scored[static_cast<std::size_t>(k)].second);
        }
    }
}

float
InteractionGenerator::trueAffinity(int user, int item) const
{
    const float *uf =
        userFactors_.data() +
        static_cast<std::size_t>(user) * static_cast<std::size_t>(
            factors_);
    const float *vf =
        itemFactors_.data() +
        static_cast<std::size_t>(item) * static_cast<std::size_t>(
            factors_);
    float dot = 0.0f;
    for (int k = 0; k < factors_; ++k)
        dot += uf[k] * vf[k];
    return dot;
}

int
InteractionGenerator::sampleNegative(int user)
{
    const auto &owned = userItems_[static_cast<std::size_t>(user)];
    for (;;) {
        const int item =
            static_cast<int>(rng_.uniformInt(0, items_ - 1));
        if (!owned.count(item))
            return item;
    }
}

std::vector<int>
InteractionGenerator::sampleNegatives(int user, int n)
{
    std::vector<int> out;
    std::unordered_set<int> used;
    out.reserve(static_cast<std::size_t>(n));
    while (static_cast<int>(out.size()) < n) {
        const int item = sampleNegative(user);
        if (used.insert(item).second)
            out.push_back(item);
    }
    return out;
}

} // namespace aib::data
