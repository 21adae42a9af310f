#pragma once
// Heterogeneous island-style FPGA grid: columns of logic clusters with
// periodic BRAM and DSP columns, IO on the perimeter (Fig. 4 of the paper).

#include <cstdint>
#include <vector>

#include "arch/arch_params.hpp"

namespace taf::arch {

enum class TileKind : std::uint8_t { Clb, Bram, Dsp, Io };
inline constexpr int kNumTileKinds = 4;

const char* tile_kind_name(TileKind k);

struct TilePos {
  int x = 0;
  int y = 0;
  friend bool operator==(const TilePos&, const TilePos&) = default;
};

/// The physical tile array. Tile (0,0) is the bottom-left corner; the
/// outermost ring is IO. Interior columns follow a repeating pattern with
/// one BRAM and one DSP column per `kHardColumnPeriod` columns. Any
/// positive size is valid: a grid without an interior (width or height
/// below 3) is all IO, as the thermal model's closed-form tests use it;
/// fit() never returns one.
class FpgaGrid {
 public:
  static constexpr int kHardColumnPeriod = 8;
  static constexpr int kBramColumnPhase = 4;
  static constexpr int kDspColumnPhase = 0;

  FpgaGrid(int width, int height);

  /// Smallest grid whose capacities cover the given block demands with
  /// ~20% slack (VPR's auto-sizing behaviour).
  static FpgaGrid fit(int num_clbs, int num_brams, int num_dsps);

  int width() const { return width_; }
  int height() const { return height_; }
  int num_tiles() const { return width_ * height_; }

  TileKind at(int x, int y) const;
  TileKind at(TilePos p) const { return at(p.x, p.y); }

  /// Dense linear index for per-tile vectors (power, temperature).
  int index_of(int x, int y) const { return y * width_ + x; }
  int index_of(TilePos p) const { return index_of(p.x, p.y); }
  TilePos pos_of(int index) const { return {index % width_, index / width_}; }

  /// All positions of a given tile kind, in row-major order.
  const std::vector<TilePos>& tiles_of(TileKind k) const;

  int capacity(TileKind k) const { return static_cast<int>(tiles_of(k).size()); }

 private:
  int width_;
  int height_;
  std::vector<TileKind> kinds_;
  std::vector<std::vector<TilePos>> by_kind_;
};

}  // namespace taf::arch
