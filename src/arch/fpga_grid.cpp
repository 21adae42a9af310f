#include "arch/fpga_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace taf::arch {

const char* tile_kind_name(TileKind k) {
  switch (k) {
    case TileKind::Clb: return "CLB";
    case TileKind::Bram: return "BRAM";
    case TileKind::Dsp: return "DSP";
    case TileKind::Io: return "IO";
  }
  return "?";
}

FpgaGrid::FpgaGrid(int width, int height) : width_(width), height_(height) {
  assert(width >= 1 && height >= 1 && "grid must have at least one tile");
  kinds_.resize(static_cast<size_t>(width_) * height_);
  by_kind_.resize(4);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      TileKind k;
      if (x == 0 || y == 0 || x == width_ - 1 || y == height_ - 1) {
        k = TileKind::Io;
      } else if (x % kHardColumnPeriod == kBramColumnPhase) {
        k = TileKind::Bram;
      } else if (x % kHardColumnPeriod == kDspColumnPhase) {
        k = TileKind::Dsp;
      } else {
        k = TileKind::Clb;
      }
      kinds_[static_cast<size_t>(index_of(x, y))] = k;
      by_kind_[static_cast<size_t>(k)].push_back({x, y});
    }
  }
}

TileKind FpgaGrid::at(int x, int y) const {
  assert(x >= 0 && x < width_ && y >= 0 && y < height_);
  return kinds_[static_cast<size_t>(index_of(x, y))];
}

const std::vector<TilePos>& FpgaGrid::tiles_of(TileKind k) const {
  return by_kind_[static_cast<size_t>(k)];
}

FpgaGrid FpgaGrid::fit(int num_clbs, int num_brams, int num_dsps) {
  assert(num_clbs > 0);
  // Start from a square estimate and grow until all demands fit.
  int side = std::max(6, static_cast<int>(std::ceil(std::sqrt(num_clbs * 1.9))) + 2);
  for (;;) {
    FpgaGrid g(side, side);
    if (g.capacity(TileKind::Clb) >= static_cast<int>(std::ceil(num_clbs * 1.45)) &&
        g.capacity(TileKind::Bram) >= num_brams && g.capacity(TileKind::Dsp) >= num_dsps) {
      return g;
    }
    ++side;
  }
}

}  // namespace taf::arch
