// Uniform-grid geometry shared between host and device kernels.
//
// The host derives the lattice once per step (an O(n) bounds pass);
// the parameters travel to the kernels by value, playing the role of CUDA
// __constant__ memory / OpenCL kernel arguments — uniform data that every
// thread reads for free.
#ifndef BIOSIM_GPU_GRID_PARAMS_H_
#define BIOSIM_GPU_GRID_PARAMS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "spatial/grid_geometry.h"

namespace biosim::gpu {

template <typename T>
struct GridParams {
  T min_x{}, min_y{}, min_z{};
  T box_length{1};
  int32_t nx = 1, ny = 1, nz = 1;

  /// The CPU grid's lattice (GridGeometry::Derive, which also rejects a
  /// fixed box edge smaller than the interaction radius) in kernel
  /// precision. The device grid has no periodic wrap; Simulation::Validate
  /// rejects torus with the GPU backend.
  static GridParams From(const GridGeometry& geo) {
    GridParams g;
    g.min_x = static_cast<T>(geo.grid_min.x);
    g.min_y = static_cast<T>(geo.grid_min.y);
    g.min_z = static_cast<T>(geo.grid_min.z);
    g.box_length = static_cast<T>(geo.box_length);
    g.nx = geo.num_boxes_axis.x;
    g.ny = geo.num_boxes_axis.y;
    g.nz = geo.num_boxes_axis.z;
    return g;
  }

  size_t total_boxes() const {
    return static_cast<size_t>(nx) * static_cast<size_t>(ny) *
           static_cast<size_t>(nz);
  }

  /// Box coordinate of a position along one axis (clamped).
  int32_t Coord(T v, T lo, int32_t n) const {
    int32_t c = static_cast<int32_t>(std::floor((v - lo) / box_length));
    return std::clamp(c, int32_t{0}, n - 1);
  }

  size_t FlatIndex(int32_t x, int32_t y, int32_t z) const {
    return (static_cast<size_t>(z) * static_cast<size_t>(ny) +
            static_cast<size_t>(y)) *
               static_cast<size_t>(nx) +
           static_cast<size_t>(x);
  }

  size_t BoxOf(T x, T y, T z) const {
    return FlatIndex(Coord(x, min_x, nx), Coord(y, min_y, ny),
                     Coord(z, min_z, nz));
  }
};

}  // namespace biosim::gpu

#endif  // BIOSIM_GPU_GRID_PARAMS_H_
