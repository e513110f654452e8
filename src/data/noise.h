/**
 * @file
 * The pixel noise every synthetic image generator adds.
 */

#ifndef AIB_DATA_NOISE_H
#define AIB_DATA_NOISE_H

#include <cstdint>

#include "tensor/random.h"

namespace aib::data {

/**
 * a[i] = clamp(a[i] + noise * rng.normal(), 0, 1) for i in [0, n),
 * one draw per element in index order. With @p b, a[i] and b[i] draw
 * alternately (a[i] first), as one loop updating both would.
 *
 * The normals come from Rng's block fill, and the clamp is a
 * branch-free min/max, so the cost does not depend on how many
 * pixels the noise pushes out of [0, 1].
 */
void addClampedNoise(Rng &rng, float noise, std::int64_t n, float *a,
                     float *b = nullptr);

} // namespace aib::data

#endif // AIB_DATA_NOISE_H
