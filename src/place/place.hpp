#pragma once
// Simulated-annealing placement (the VPR place stage).
//
// Wirelength-driven annealing over legal slots: CLBs on logic tiles,
// BRAM/DSP on their columns, IOs on perimeter pads (8 per tile). Cost is
// the q-corrected half-perimeter wirelength used by VPR; the schedule
// adapts the temperature decay to the acceptance rate.

#include <vector>

#include "arch/fpga_grid.hpp"
#include "pack/pack.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace taf::place {

struct Placement {
  /// Tile position of every block (indexed by block id).
  std::vector<arch::TilePos> pos;
  double cost = 0.0;  ///< final HPWL cost
};

struct PlaceOptions {
  unsigned seed = 1;
  /// Scales moves per temperature (VPR's inner_num). Must be positive
  /// and finite (place() throws std::invalid_argument otherwise — a
  /// non-positive effort silently degenerated the anneal to the floor
  /// move count at every temperature).
  double effort = 1.0;
  /// Pads per IO tile; must be >= 1 or place() throws (0 used to build
  /// an empty IO slot pool and fail with a misleading capacity error).
  int io_capacity = 8;
};

/// Anneal the packed netlist onto the grid. The grid must have enough
/// capacity of every tile kind (use arch::FpgaGrid::fit). Throws
/// std::invalid_argument on invalid options (see PlaceOptions).
Placement place(const pack::PackedNetlist& packed, const arch::FpgaGrid& grid,
                const PlaceOptions& opt = {});

/// Bounded refinement pass for the place->thermal feedback edge
/// (DESIGN.md section 15): near-greedy wirelength descent starting from
/// `start` and confined to at most max_rounds rounds (or a descent fixed
/// point, whichever first). Moves are directed — only blocks carrying at
/// least the mean of block_power_w (one dynamic power per block, [W])
/// are proposed, and only over short hops — and plateau (zero-delta)
/// swaps are rejected. Move pricing and options validation match
/// place(); the start placement must be legal on the grid under
/// io_capacity, and block_power_w must hold one entry per block
/// (std::invalid_argument otherwise).
struct RefineOptions {
  unsigned seed = 1;
  double effort = 1.0;
  int io_capacity = 8;
  /// Upper bound on temperature steps (the "bounded" in bounded pass).
  int max_rounds = 32;
  /// Starting temperature as a fraction of the per-net cost. The default
  /// is effectively greedy descent: uphill moves are (numerically) never
  /// accepted, so refinement does not raise the wirelength.
  double start_t_factor = 1e-4;
};

struct RefineStats {
  long long moves = 0;     ///< proposed moves (accepted + rejected)
  long long accepted = 0;  ///< accepted moves
};

Placement refine_placement(const pack::PackedNetlist& packed,
                           const arch::FpgaGrid& grid, const Placement& start,
                           const std::vector<double>& block_power_w,
                           const RefineOptions& opt,
                           RefineStats* stats = nullptr);

/// Total q-corrected HPWL of a placement (for testing / reporting).
double wirelength_cost(const pack::PackedNetlist& packed, const Placement& pl);

/// Artifact codec (util/codec.hpp): exact round-trip, byte-identical on
/// re-serialization (cost survives bit-for-bit through the f64 path).
void serialize(const Placement& pl, util::codec::Encoder& enc);
Placement deserialize(util::codec::Decoder& dec);

}  // namespace taf::place
