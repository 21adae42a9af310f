#pragma once
// Placement cost model: the q-corrected HPWL wirelength of every block
// net, kept per net so a move is priced from cached values (DESIGN.md
// section 15).
//
// INTERNAL to src/place — the place-cost-seam lint rule bans this header
// and its identifiers outside the placement layer. Consumers drive the
// model through place()/refine_placement() in place/place.hpp.
//
// Contract: every arithmetic expression the model evaluates is the one
// the fused annealer used, in the same order, so place() reproduces
// pre-refactor placements bit-for-bit (the PlaceGolden digests pin this).

#include <vector>

#include "pack/pack.hpp"
#include "place/place.hpp"

namespace taf::place {

/// VPR's crossing-count correction for multi-terminal nets.
double q_factor(int pins);

struct NetBox {
  int xmin = 0, xmax = 0, ymin = 0, ymax = 0;
  int pins = 0;
  double cost() const {
    return q_factor(pins) * ((xmax - xmin) + (ymax - ymin));
  }
};

/// Incremental cost evaluation over a live Placement. The annealer owns
/// slot bookkeeping and position updates; the model owns every cost
/// number. Move evaluation is two-phase to preserve the fused annealer's
/// exact sequence: stage_move() records the affected nets and sums their
/// cost at the OLD positions; the caller then applies the proposed
/// positions and staged_delta() re-prices the same nets. The model keeps
/// each net's cost at the current positions, so the old side is a sum of
/// cached values: the same doubles net_cost() would return, added in the
/// same order. The caller reports an accepted move through
/// commit_staged(); a rejected move, reverted by the caller, leaves the
/// cache as it was.
class CostModel {
 public:
  /// pl is borrowed for the model's lifetime and must hold the starting
  /// positions (every net is priced here).
  CostModel(const pack::PackedNetlist& packed, Placement& pl);

  /// Full cost at the current positions: exactly wirelength_cost().
  double total() const;

  /// q-corrected bounding-box cost of one block net at current positions.
  double net_cost(int net) const;

  /// Nets incident to each block (as driver or sink), each once, ascending.
  const std::vector<int>& nets_of(int block) const {
    return nets_of_block_[static_cast<std::size_t>(block)];
  }

  /// Phase 1 of a proposed swap of b1 with b2 (b2 < 0 for a free target
  /// slot): collect the affected nets and sum their cached cost at the
  /// current (old) positions.
  void stage_move(int b1, int b2);

  /// Phase 2, after the caller applied the proposed positions to the
  /// placement: total cost delta of the staged move. Keeps the affected
  /// nets' new costs for commit_staged().
  double staged_delta();

  /// The staged move was accepted: its new net costs become the cache.
  void commit_staged();

 private:
  const pack::PackedNetlist& packed_;
  Placement& pl_;
  std::vector<std::vector<int>> nets_of_block_;
  std::vector<double> net_cost_;  ///< net_cost(n) at the current positions
  std::vector<int> affected_;
  std::vector<double> staged_after_;  ///< affected_'s costs at the proposed positions
  double staged_before_ = 0.0;
};

}  // namespace taf::place
