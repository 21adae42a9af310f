#include "route/rr_graph.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace taf::route {

namespace {

int pin_capacity(arch::TileKind k, bool output) {
  switch (k) {
    case arch::TileKind::Clb: return output ? 20 : 40;  // 2N outputs, I inputs
    case arch::TileKind::Bram: return output ? 8 : 16;
    case arch::TileKind::Dsp: return output ? 8 : 16;
    case arch::TileKind::Io: return output ? 8 : 16;  // 8 pads per tile
  }
  return 1;
}

}  // namespace

RrGraph::RrGraph(const arch::FpgaGrid& grid, const arch::ArchParams& arch)
    : grid_(&grid), arch_(&arch) {
  const int w = grid.width();
  const int h = grid.height();
  const int tracks = arch.channel_tracks;
  const int seg = std::max(1, arch.wire_segment_length);

  opin_.assign(static_cast<std::size_t>(w) * h, -1);
  ipin_.assign(static_cast<std::size_t>(w) * h, -1);

  // --- Pin nodes.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const arch::TileKind tk = grid.at(x, y);
      RrNode op;
      op.kind = RrKind::Opin;
      op.tile = {x, y};
      op.capacity = static_cast<std::int16_t>(pin_capacity(tk, true));
      opin_[static_cast<std::size_t>(index(x, y))] = static_cast<RrNodeId>(nodes_.size());
      nodes_.push_back(op);

      RrNode ip;
      ip.kind = RrKind::Ipin;
      ip.tile = {x, y};
      ip.capacity = static_cast<std::int16_t>(pin_capacity(tk, false));
      ipin_[static_cast<std::size_t>(index(x, y))] = static_cast<RrNodeId>(nodes_.size());
      nodes_.push_back(ip);
    }
  }

  first_wire_ = static_cast<RrNodeId>(nodes_.size());

  // --- Wire nodes. Track t's horizontal wires start at x = t % seg and
  // repeat every `seg` columns (staggered segmentation); vertical wires
  // are symmetric in y. through_h/through_v[tile * tracks + track] is the
  // node of the one wire of each direction passing that tile on that track.
  const auto tile_count = static_cast<std::size_t>(w) * h;
  const auto ntracks = static_cast<std::size_t>(tracks);
  std::vector<RrNodeId> through_h(tile_count * ntracks, -1);
  std::vector<RrNodeId> through_v(tile_count * ntracks, -1);
  auto through = [&](std::vector<RrNodeId>& t, int x, int y, int track) -> RrNodeId& {
    return t[static_cast<std::size_t>(index(x, y)) * ntracks + static_cast<std::size_t>(track)];
  };

  auto add_wire = [&](RrKind kind, int x, int y, int track, int span) {
    RrNode n;
    n.kind = kind;
    n.tile = {x, y};
    n.track = static_cast<std::int16_t>(track);
    n.span = static_cast<std::int16_t>(span);
    n.capacity = 1;
    const RrNodeId id = static_cast<RrNodeId>(nodes_.size());
    nodes_.push_back(n);
    ++num_wires_;
    for (int k = 0; k < span; ++k) {
      if (kind == RrKind::WireH) {
        through(through_h, x + k, y, track) = id;
      } else {
        through(through_v, x, y + k, track) = id;
      }
    }
    return id;
  };

  for (int t = 0; t < tracks; ++t) {
    const int phase = t % seg;
    for (int y = 0; y < h; ++y) {
      for (int x = (phase == 0 ? 0 : phase - seg); x < w; x += seg) {
        const int xs = std::max(0, x);
        const int xe = std::min(w - 1, x + seg - 1);
        if (xe < xs) continue;
        add_wire(RrKind::WireH, xs, y, t, xe - xs + 1);
      }
    }
    for (int x = 0; x < w; ++x) {
      for (int y = (phase == 0 ? 0 : phase - seg); y < h; y += seg) {
        const int ys = std::max(0, y);
        const int ye = std::min(h - 1, y + seg - 1);
        if (ye < ys) continue;
        add_wire(RrKind::WireV, x, ys, t, ye - ys + 1);
      }
    }
  }

  // Calls emit(from, to) once per generated edge. An edge may repeat
  // (corner cases connect twice); the CSR build below dedups rows.
  auto for_each_edge = [&](auto&& emit) {
    // --- OPIN -> wires passing the tile (Fc_out = W/4), IPIN taps
    // (Fc_in = W/4), both direction-balanced.
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const RrNodeId op = opin_at(x, y);
        const RrNodeId ip = ipin_at(x, y);
        for (int t = 0; t < tracks; ++t) {
          const RrNodeId wh = through(through_h, x, y, t);
          const RrNodeId wv = through(through_v, x, y, t);
          if (t % 2 == (x + y) % 2) {
            if (wh >= 0) emit(op, wh);
            if (wv >= 0) emit(op, wv);
          }
          if (tap_phase(t) == tap_phase_at(x, y)) {
            if (wh >= 0) emit(wh, ip);
            if (wv >= 0) emit(wv, ip);
          }
        }
      }
    }

    // --- Switch-block edges at wire endpoints: same-direction continuation
    // (track window +-1) and perpendicular turns (track window +-2).
    // Wires behave bidirectionally: edges are added both ways.
    auto connect = [&](RrNodeId a, RrNodeId b) {
      if (a < 0 || b < 0 || a == b) return;
      emit(a, b);
      emit(b, a);
    };
    for (RrNodeId id = first_wire_; id < static_cast<RrNodeId>(nodes_.size()); ++id) {
      const RrNode& n = nodes_[static_cast<std::size_t>(id)];
      const bool horiz = n.kind == RrKind::WireH;
      const int xs = n.tile.x;
      const int ys = n.tile.y;
      const int xe = horiz ? xs + n.span - 1 : xs;
      const int ye = horiz ? ys : ys + n.span - 1;

      // Same-direction continuation beyond each endpoint (track window +-1,
      // as in a disjoint switch block).
      for (int dt = -1; dt <= 1; ++dt) {
        const int t2 = n.track + dt;
        if (t2 < 0 || t2 >= tracks) continue;
        if (horiz) {
          if (xe + 1 < w) connect(id, through(through_h, xe + 1, ys, t2));
        } else {
          if (ye + 1 < h) connect(id, through(through_v, xs, ye + 1, t2));
        }
      }
      // Perpendicular turns at both endpoints. Wilton-style track twisting:
      // turns reach the same track, its neighbour, and the reversed track
      // (W-1-t), so track bands mix after a few hops and congestion can
      // spread over the whole channel instead of saturating one band.
      const int turn_tracks[4] = {n.track, (n.track + 1) % tracks,
                                  (n.track + seg) % tracks, tracks - 1 - n.track};
      for (int t2 : turn_tracks) {
        if (horiz) {
          connect(id, through(through_v, xs, ys, t2));
          connect(id, through(through_v, xe, ys, t2));
        } else {
          connect(id, through(through_h, xs, ys, t2));
          connect(id, through(through_h, xs, ye, t2));
        }
      }
    }
  };

  // --- Search index: pins keep their ids; wires are bucketed by anchor
  // tile in tile-major order by a counting sort, stable in id.
  const std::size_t n_nodes = nodes_.size();
  const auto n_pins = static_cast<std::size_t>(first_wire_);
  search_of_.resize(n_nodes);
  id_of_.resize(n_nodes);
  for (std::size_t id = 0; id < n_pins; ++id) {
    search_of_[id] = static_cast<RrSearchIndex>(id);
    id_of_[id] = static_cast<RrNodeId>(id);
  }
  std::vector<std::size_t> tile_slot(tile_count + 1, 0);
  auto tile_of = [&](std::size_t id) {
    return static_cast<std::size_t>(index(nodes_[id].tile.x, nodes_[id].tile.y));
  };
  for (std::size_t id = n_pins; id < n_nodes; ++id) ++tile_slot[tile_of(id) + 1];
  for (std::size_t t = 0; t < tile_count; ++t) tile_slot[t + 1] += tile_slot[t];
  for (std::size_t id = n_pins; id < n_nodes; ++id) {
    const std::size_t s = n_pins + tile_slot[tile_of(id)]++;
    search_of_[id] = static_cast<RrSearchIndex>(s);
    id_of_[s] = static_cast<RrNodeId>(id);
  }

  // --- CSR in place, in search order: one pass counts each row, a second
  // fills it with public ids; then each row is sorted and deduped by id
  // and translated to search indices, compacting the target array
  // leftward.
  edge_start_.assign(n_nodes + 1, 0);
  std::size_t n_edges = 0;
  auto row_of = [&](RrNodeId from) {
    return static_cast<std::size_t>(search_of_[static_cast<std::size_t>(from)]);
  };
  for_each_edge([&](RrNodeId from, RrNodeId) {
    ++edge_start_[row_of(from) + 1];
    ++n_edges;
  });
  if (n_edges > UINT32_MAX)
    throw std::length_error("rr_graph: edge count exceeds the 32-bit CSR offsets");
  for (std::size_t i = 0; i < n_nodes; ++i) edge_start_[i + 1] += edge_start_[i];
  edge_targets_.resize(n_edges);
  std::vector<std::uint32_t> cursor(edge_start_.begin(), edge_start_.end() - 1);
  for_each_edge(
      [&](RrNodeId from, RrNodeId to) { edge_targets_[cursor[row_of(from)]++] = to; });
  std::uint32_t out = 0;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const auto first = edge_targets_.begin() + static_cast<std::ptrdiff_t>(edge_start_[i]);
    const auto last = edge_targets_.begin() + static_cast<std::ptrdiff_t>(edge_start_[i + 1]);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    max_fanout_ = std::max(max_fanout_, static_cast<std::size_t>(unique_end - first));
    edge_start_[i] = out;
    for (auto it = first; it != unique_end; ++it) {
      edge_targets_[out++] = search_of_[static_cast<std::size_t>(*it)];
    }
  }
  edge_start_[n_nodes] = out;
  edge_targets_.resize(out);
}

}  // namespace taf::route
