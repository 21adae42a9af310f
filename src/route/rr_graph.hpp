#pragma once
// Routing-resource graph for the island-style architecture.
//
// Node kinds follow VPR: block output pins (OPIN), length-L wire segments
// in horizontal/vertical channels, and block input pins (IPIN). Switch-
// block connections join wires at their endpoints (a ~12-way window that
// matches the Table I SB mux fan-in); connection-block edges tap wires
// passing a tile into its IPIN.
//
// Layout (DESIGN.md section 16): pins take ids [0, first_wire()) and wires
// [first_wire(), num_nodes()). The router searches in a second numbering,
// the search index: pins keep their ids, and wires are grouped by anchor
// tile in tile-major order (stable in id within a tile), so a wire's
// switch-block neighbours sit a few tiles' worth of records away instead
// of a whole track apart. Edges are stored in CSR form in search order:
// fanout() takes a search index and returns its row as search indices,
// in strictly ascending public-id order. So a row lists its pins (only
// IPINs: no edge targets an OPIN) before its wires, which lets the
// router skip non-target IPINs without loading them.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/arch_params.hpp"
#include "arch/fpga_grid.hpp"

namespace taf::route {

enum class RrKind : std::uint8_t { Opin, Ipin, WireH, WireV };

using RrNodeId = int;
/// Position of a node in the router's search order (see the header).
using RrSearchIndex = int;

struct RrNode {
  RrKind kind = RrKind::WireH;
  /// Anchor tile: for pins, the block tile; for wires, the tile at the
  /// segment start (whose SB mux drives the wire — its temperature sets
  /// the wire's delay in the thermal-aware STA).
  arch::TilePos tile;
  std::int16_t track = 0;   ///< wire track index (wires only)
  std::int16_t span = 1;    ///< tiles covered (wires only)
  std::int16_t capacity = 1;
};

class RrGraph {
 public:
  /// The graph keeps pointers to `grid` and `arch` (grid(), arch()), so
  /// both must outlive it; temporaries do not compile.
  RrGraph(const arch::FpgaGrid& grid, const arch::ArchParams& arch);
  RrGraph(arch::FpgaGrid&&, const arch::ArchParams&) = delete;
  RrGraph(const arch::FpgaGrid&, arch::ArchParams&&) = delete;
  RrGraph(arch::FpgaGrid&&, arch::ArchParams&&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const RrNode& node(RrNodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }

  /// Search index of node `id`; pins map to themselves.
  RrSearchIndex search_index(RrNodeId id) const {
    return search_of_[static_cast<std::size_t>(id)];
  }
  /// Public id of the node at search index `s`: the inverse of search_index().
  RrNodeId node_id(RrSearchIndex s) const { return id_of_[static_cast<std::size_t>(s)]; }

  /// Outgoing edges of the node at search index `s`: a view into the CSR
  /// target array, as search indices, in strictly ascending public-id
  /// order (so deduped, pins before wires).
  std::span<const RrSearchIndex> fanout(RrSearchIndex s) const {
    const auto i = static_cast<std::size_t>(s);
    return {edge_targets_.data() + edge_start_[i], edge_start_[i + 1] - edge_start_[i]};
  }

  /// Length of the longest fanout() row: a bound for any per-row buffer.
  /// It grows with the channel width (an OPIN row holds W wires).
  std::size_t max_fanout() const { return max_fanout_; }

  /// First wire id: every pin id is below it, every wire id at or above.
  /// The same split holds for search indices.
  RrNodeId first_wire() const { return first_wire_; }

  /// The connection-block pattern: a wire passing tile (x, y) has an edge
  /// to that tile's IPIN exactly when tap_phase() of its track equals
  /// tap_phase_at(x, y).
  static int tap_phase(int track) { return track % 2; }
  static int tap_phase_at(int x, int y) { return (2 * x + 3 * y + 1) % 2; }

  RrNodeId opin_at(int x, int y) const { return opin_[static_cast<std::size_t>(index(x, y))]; }
  RrNodeId ipin_at(int x, int y) const { return ipin_[static_cast<std::size_t>(index(x, y))]; }

  const arch::FpgaGrid& grid() const { return *grid_; }
  const arch::ArchParams& arch() const { return *arch_; }

  /// Total wire segments (for utilization reporting).
  int num_wires() const { return num_wires_; }

 private:
  int index(int x, int y) const { return y * grid_->width() + x; }

  const arch::FpgaGrid* grid_;
  const arch::ArchParams* arch_;
  std::vector<RrNode> nodes_;  ///< indexed by public id
  std::vector<RrSearchIndex> search_of_;  ///< public id -> search index
  std::vector<RrNodeId> id_of_;           ///< search index -> public id
  /// CSR in search order: row s is edge_targets_[edge_start_[s], edge_start_[s+1]).
  std::vector<std::uint32_t> edge_start_;
  std::vector<RrSearchIndex> edge_targets_;
  std::vector<RrNodeId> opin_;
  std::vector<RrNodeId> ipin_;
  RrNodeId first_wire_ = 0;
  int num_wires_ = 0;
  std::size_t max_fanout_ = 0;
};

}  // namespace taf::route
