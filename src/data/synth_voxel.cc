#include "data/synth_voxel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/noise.h"

namespace aib::data {

VoxelShapeGenerator::VoxelShapeGenerator(int resolution, int families,
                                         float noise,
                                         std::uint64_t seed)
    : resolution_(resolution), families_(families), noise_(noise),
      rng_(seed)
{
    if (families < 1 || families > 4)
        throw std::invalid_argument(
            "VoxelShapeGenerator: families must be in [1, 4]");
}

VoxelSample
VoxelShapeGenerator::sample()
{
    const int r = resolution_;
    VoxelSample out;
    out.label = static_cast<int>(rng_.uniformInt(0, families_ - 1));
    out.voxels = Tensor::zeros({r, r, r});
    out.view = Tensor::zeros({1, r, r});

    const float c = static_cast<float>(r) * 0.5f;
    const float sx = rng_.uniform(0.5f, 0.9f) * c;
    const float sy = rng_.uniform(0.5f, 0.9f) * c;
    const float sz = rng_.uniform(0.5f, 0.9f) * c;

    float *vox = out.voxels.data();
    for (int z = 0; z < r; ++z) {
        for (int y = 0; y < r; ++y) {
            for (int x = 0; x < r; ++x) {
                const float dx = (static_cast<float>(x) - c) / sx;
                const float dy = (static_cast<float>(y) - c) / sy;
                const float dz = (static_cast<float>(z) - c) / sz;
                bool inside = false;
                switch (out.label) {
                  case 0: // box
                    inside = std::fabs(dx) < 1 && std::fabs(dy) < 1 &&
                             std::fabs(dz) < 1;
                    break;
                  case 1: // sphere
                    inside = dx * dx + dy * dy + dz * dz < 1.0f;
                    break;
                  case 2: // cylinder (axis z)
                    inside =
                        dx * dx + dy * dy < 1.0f && std::fabs(dz) < 1;
                    break;
                  case 3: // pyramid (apex at +y)
                    inside = dy > -1 && dy < 1 &&
                             std::fabs(dx) < (1.0f - dy) * 0.5f &&
                             std::fabs(dz) < (1.0f - dy) * 0.5f;
                    break;
                  default:
                    break;
                }
                if (inside)
                    vox[(z * r + y) * r + x] = 1.0f;
            }
        }
    }

    // Front view: max-projection along z.
    float *view = out.view.data();
    for (int y = 0; y < r; ++y) {
        for (int x = 0; x < r; ++x) {
            float v = 0.0f;
            for (int z = 0; z < r; ++z)
                v = std::max(v, vox[(z * r + y) * r + x]);
            view[y * r + x] = v;
        }
    }
    if (noise_ > 0.0f)
        addClampedNoise(rng_, noise_, out.view.numel(), view);
    return out;
}

} // namespace aib::data
