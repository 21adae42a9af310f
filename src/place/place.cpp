#include "place/place.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "place/cost_model.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace taf::place {

namespace {

using arch::FpgaGrid;
using arch::TileKind;
using arch::TilePos;
using pack::BlockKind;
using pack::PackedNetlist;

TileKind tile_kind_for(BlockKind k) {
  switch (k) {
    case BlockKind::Clb: return TileKind::Clb;
    case BlockKind::Bram: return TileKind::Bram;
    case BlockKind::Dsp: return TileKind::Dsp;
    case BlockKind::Io: return TileKind::Io;
  }
  return TileKind::Clb;
}

void validate(double effort, int io_capacity) {
  if (!(effort > 0.0) || !std::isfinite(effort)) {
    throw std::invalid_argument(
        "place: effort must be positive and finite, got " + std::to_string(effort));
  }
  if (io_capacity < 1) {
    throw std::invalid_argument("place: io_capacity must be >= 1, got " +
                                std::to_string(io_capacity));
  }
}

struct Slot {
  TilePos pos;
  int block = -1;  ///< occupying block or -1
};

/// One slot pool per BlockKind, capacity io_capacity on IO tiles.
std::vector<std::vector<Slot>> build_slots(const FpgaGrid& grid, int io_capacity) {
  std::vector<std::vector<Slot>> slots(4);
  for (int k = 0; k < 4; ++k) {
    const TileKind tk = tile_kind_for(static_cast<BlockKind>(k));
    const int cap = tk == TileKind::Io ? io_capacity : 1;
    for (const TilePos& p : grid.tiles_of(tk)) {
      for (int c = 0; c < cap; ++c) slots[static_cast<std::size_t>(k)].push_back({p, -1});
    }
  }
  return slots;
}

/// Shared accept/reject machinery of place() and refine_placement():
/// propose a swap, price it through the cost model, apply or revert.
/// Returns true when accepted. With plateau=true every RNG draw and
/// arithmetic expression matches the pre-refactor fused annealer (the
/// bit-identity contract). refine_placement() passes plateau=false:
/// zero-delta swaps are rejected (without an RNG draw, same as the
/// legacy delta <= 0 branch) because they only churn routing.
bool try_move(const PackedNetlist& packed, std::vector<std::vector<Slot>>& slots,
              std::vector<int>& slot_of_block, Placement& pl, CostModel& model,
              util::Rng& rng, double temperature, double& cost,
              bool plateau = true,
              const std::vector<int>* candidates = nullptr,
              int max_dist = std::numeric_limits<int>::max()) {
  const int num_blocks = static_cast<int>(packed.blocks.size());
  const int b1 =
      candidates == nullptr
          ? static_cast<int>(rng.next_below(static_cast<std::uint32_t>(num_blocks)))
          : (*candidates)[rng.next_below(static_cast<std::uint32_t>(candidates->size()))];
  const int k = static_cast<int>(packed.blocks[static_cast<std::size_t>(b1)].kind);
  auto& pool = slots[static_cast<std::size_t>(k)];
  const int s1 = slot_of_block[static_cast<std::size_t>(b1)];
  const int s2 = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(pool.size())));
  if (s1 == s2) return false;
  // Range limit (refinement only): discard proposals beyond max_dist so
  // heat spreads through short hops instead of re-routing distant logic.
  {
    const TilePos p1 = pool[static_cast<std::size_t>(s1)].pos;
    const TilePos p2 = pool[static_cast<std::size_t>(s2)].pos;
    if (std::abs(p1.x - p2.x) + std::abs(p1.y - p2.y) > max_dist) return false;
  }
  const int b2 = pool[static_cast<std::size_t>(s2)].block;

  model.stage_move(b1, b2);

  // Apply.
  pl.pos[static_cast<std::size_t>(b1)] = pool[static_cast<std::size_t>(s2)].pos;
  if (b2 >= 0) pl.pos[static_cast<std::size_t>(b2)] = pool[static_cast<std::size_t>(s1)].pos;

  const double delta = model.staged_delta();

  bool accept;
  if (delta < 0.0) {
    accept = true;
  } else if (delta == 0.0) {
    accept = plateau;  // no RNG draw either way, matching the legacy branch
  } else {
    accept = rng.next_double() < std::exp(-delta / temperature);
  }
  if (accept) {
    std::swap(pool[static_cast<std::size_t>(s1)].block, pool[static_cast<std::size_t>(s2)].block);
    slot_of_block[static_cast<std::size_t>(b1)] = s2;
    if (b2 >= 0) slot_of_block[static_cast<std::size_t>(b2)] = s1;
    model.commit_staged();
    cost += delta;
    return true;
  }
  // Revert.
  pl.pos[static_cast<std::size_t>(b1)] = pool[static_cast<std::size_t>(s1)].pos;
  if (b2 >= 0) pl.pos[static_cast<std::size_t>(b2)] = pool[static_cast<std::size_t>(s2)].pos;
  return false;
}

/// VPR's adaptive alpha: cool slowly near the critical acceptance band.
double adaptive_alpha(double rate) {
  if (rate > 0.96) return 0.5;
  if (rate > 0.8) return 0.9;
  if (rate > 0.15) return 0.95;
  return 0.8;
}

int moves_per_temperature(double effort, int num_blocks) {
  return std::max(
      64, static_cast<int>(effort *
                           std::pow(static_cast<double>(num_blocks), 4.0 / 3.0)));
}

}  // namespace

double wirelength_cost(const PackedNetlist& packed, const Placement& pl) {
  double total = 0.0;
  for (const auto& bn : packed.block_nets) {
    NetBox box;
    const TilePos d = pl.pos[static_cast<std::size_t>(bn.driver_block)];
    box.xmin = box.xmax = d.x;
    box.ymin = box.ymax = d.y;
    box.pins = 1 + static_cast<int>(bn.sink_blocks.size());
    for (int s : bn.sink_blocks) {
      const TilePos p = pl.pos[static_cast<std::size_t>(s)];
      box.xmin = std::min(box.xmin, p.x);
      box.xmax = std::max(box.xmax, p.x);
      box.ymin = std::min(box.ymin, p.y);
      box.ymax = std::max(box.ymax, p.y);
    }
    total += box.cost();
  }
  return total;
}

Placement place(const PackedNetlist& packed, const FpgaGrid& grid,
                const PlaceOptions& opt) {
  validate(opt.effort, opt.io_capacity);
  util::Rng rng(opt.seed);
  const int num_blocks = static_cast<int>(packed.blocks.size());

  std::vector<std::vector<Slot>> slots = build_slots(grid, opt.io_capacity);

  // --- Random legal initial placement.
  std::vector<int> slot_of_block(static_cast<std::size_t>(num_blocks), -1);
  std::vector<int> next_free(4, 0);
  Placement pl;
  pl.pos.resize(static_cast<std::size_t>(num_blocks));
  for (int b = 0; b < num_blocks; ++b) {
    const int k = static_cast<int>(packed.blocks[static_cast<std::size_t>(b)].kind);
    auto& pool = slots[static_cast<std::size_t>(k)];
    if (next_free[static_cast<std::size_t>(k)] >= static_cast<int>(pool.size()))
      throw std::runtime_error("place: grid capacity exceeded for kind " +
                               std::to_string(k));
    // Place into a random free slot: swap a random remaining slot into
    // the next-free position (Fisher-Yates over slots).
    const int base = next_free[static_cast<std::size_t>(k)]++;
    const int pick = base + static_cast<int>(rng.next_below(
                               static_cast<std::uint32_t>(pool.size() - static_cast<std::size_t>(base))));
    std::swap(pool[static_cast<std::size_t>(base)], pool[static_cast<std::size_t>(pick)]);
    pool[static_cast<std::size_t>(base)].block = b;
    slot_of_block[static_cast<std::size_t>(b)] = base;
    pl.pos[static_cast<std::size_t>(b)] = pool[static_cast<std::size_t>(base)].pos;
  }

  CostModel model(packed, pl);

  double cost = model.total();
  if (packed.block_nets.empty() || num_blocks < 2) {
    pl.cost = wirelength_cost(packed, pl);
    return pl;
  }

  // --- Annealing schedule (VPR-flavoured).
  const int moves_per_t = moves_per_temperature(opt.effort, num_blocks);

  // Initial temperature: sample random swaps.
  double t;
  {
    util::Accumulator deltas;
    for (int i = 0; i < 200; ++i) {
      const int b = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(num_blocks)));
      deltas.add(std::fabs(model.net_cost(model.nets_of(b).empty()
                                              ? 0
                                              : model.nets_of(b)[0])));
    }
    t = 20.0 * std::max(deltas.mean(), 1.0);
  }

  const double exit_t = 0.002 * cost / static_cast<double>(std::max<std::size_t>(packed.block_nets.size(), 1));
  int rounds = 0;
  while (t > exit_t && rounds++ < 200) {
    int accepted = 0;
    for (int m = 0; m < moves_per_t; ++m) {
      accepted += try_move(packed, slots, slot_of_block, pl, model, rng, t, cost) ? 1 : 0;
    }
    const double rate = static_cast<double>(accepted) / moves_per_t;
    t *= adaptive_alpha(rate);
  }

  pl.cost = wirelength_cost(packed, pl);
  util::log_debug("place: %d blocks, final HPWL %.1f after %d rounds", num_blocks,
                  pl.cost, rounds);
  return pl;
}

Placement refine_placement(const PackedNetlist& packed, const FpgaGrid& grid,
                           const Placement& start,
                           const std::vector<double>& block_power_w,
                           const RefineOptions& opt, RefineStats* stats) {
  validate(opt.effort, opt.io_capacity);
  if (opt.max_rounds < 0) {
    throw std::invalid_argument("refine_placement: max_rounds must be >= 0, got " +
                                std::to_string(opt.max_rounds));
  }
  if (!(opt.start_t_factor > 0.0) || !std::isfinite(opt.start_t_factor)) {
    throw std::invalid_argument(
        "refine_placement: start_t_factor must be positive and finite, got " +
        std::to_string(opt.start_t_factor));
  }
  const int num_blocks = static_cast<int>(packed.blocks.size());
  if (start.pos.size() != static_cast<std::size_t>(num_blocks)) {
    throw std::invalid_argument(
        "refine_placement: start placement has " + std::to_string(start.pos.size()) +
        " positions for " + std::to_string(num_blocks) + " blocks");
  }
  if (block_power_w.size() != static_cast<std::size_t>(num_blocks)) {
    throw std::invalid_argument(
        "refine_placement: " + std::to_string(block_power_w.size()) +
        " block powers for " + std::to_string(num_blocks) + " blocks");
  }
  util::Rng rng(opt.seed);

  // Rebuild the slot pools and occupancy from the start placement: each
  // block claims an unused slot of its kind at its start position.
  std::vector<std::vector<Slot>> slots = build_slots(grid, opt.io_capacity);
  std::vector<std::vector<std::vector<int>>> free_at(4);
  for (int k = 0; k < 4; ++k) {
    auto& pool = slots[static_cast<std::size_t>(k)];
    free_at[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(grid.num_tiles()));
    for (int s = 0; s < static_cast<int>(pool.size()); ++s) {
      free_at[static_cast<std::size_t>(k)]
             [static_cast<std::size_t>(grid.index_of(pool[static_cast<std::size_t>(s)].pos))]
                 .push_back(s);
    }
  }
  std::vector<int> slot_of_block(static_cast<std::size_t>(num_blocks), -1);
  Placement pl;
  pl.pos = start.pos;
  for (int b = 0; b < num_blocks; ++b) {
    const int k = static_cast<int>(packed.blocks[static_cast<std::size_t>(b)].kind);
    const TilePos p = pl.pos[static_cast<std::size_t>(b)];
    if (p.x < 0 || p.x >= grid.width() || p.y < 0 || p.y >= grid.height()) {
      throw std::invalid_argument("refine_placement: block " + std::to_string(b) +
                                  " starts off-grid");
    }
    auto& avail = free_at[static_cast<std::size_t>(k)][static_cast<std::size_t>(grid.index_of(p))];
    if (avail.empty()) {
      throw std::invalid_argument(
          "refine_placement: start placement is illegal: no free slot of kind " +
          std::to_string(k) + " at (" + std::to_string(p.x) + "," +
          std::to_string(p.y) + ") for block " + std::to_string(b));
    }
    const int s = avail.back();
    avail.pop_back();
    slots[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)].block = b;
    slot_of_block[static_cast<std::size_t>(b)] = s;
  }

  CostModel model(packed, pl);
  double cost = model.total();
  RefineStats local;

  // Directed move generation: propose only blocks carrying at least the
  // mean dynamic power, the blocks that set the power map. Shuffling cold
  // blocks would perturb timing over a landscape place() already annealed.
  std::vector<int> hot;
  {
    double mean_w = 0.0;
    for (double w : block_power_w) mean_w += w;
    mean_w /= static_cast<double>(std::max(num_blocks, 1));
    for (int b = 0; b < num_blocks; ++b) {
      const double w = block_power_w[static_cast<std::size_t>(b)];
      if (w > 0.0 && w >= mean_w) hot.push_back(b);
    }
  }

  if (packed.block_nets.empty() || num_blocks < 2 || opt.max_rounds == 0 ||
      hot.empty()) {
    pl.cost = wirelength_cost(packed, pl);
    if (stats != nullptr) *stats = local;
    return pl;
  }

  // Bounded near-greedy schedule: start barely warm (at the default
  // start_t_factor uphill moves are effectively never accepted, so only
  // moves that shorten the wirelength survive) and stop at the round
  // budget or a descent fixed point. Plateau swaps are rejected
  // (plateau=false): they cannot improve the cost and the routing churn
  // they cause is pure timing noise.
  const double per_net =
      cost / static_cast<double>(std::max<std::size_t>(packed.block_nets.size(), 1));
  double t = opt.start_t_factor * std::max(per_net, 1.0);
  const int moves_per_t =
      moves_per_temperature(opt.effort, static_cast<int>(hot.size()));
  // Short hops only: a local move perturbs few routes, so the candidate
  // reroute stays incremental and the timing guard sees small changes.
  const int move_radius =
      std::max(2, std::min(grid.width(), grid.height()) / 8);

  int rounds = 0;
  while (rounds++ < opt.max_rounds) {
    int accepted = 0;
    for (int m = 0; m < moves_per_t; ++m) {
      accepted += try_move(packed, slots, slot_of_block, pl, model, rng, t, cost,
                           /*plateau=*/false, &hot, move_radius)
                      ? 1
                      : 0;
    }
    local.moves += moves_per_t;
    local.accepted += accepted;
    if (accepted == 0) break;  // no proposed swap improves the cost
    const double rate = static_cast<double>(accepted) / moves_per_t;
    t *= adaptive_alpha(rate);
  }

  pl.cost = wirelength_cost(packed, pl);
  util::log_debug("refine_placement: %d blocks, HPWL %.1f after %d rounds (%lld/%lld accepted)",
                  num_blocks, pl.cost, rounds, local.accepted, local.moves);
  if (stats != nullptr) *stats = local;
  return pl;
}

void serialize(const Placement& pl, util::codec::Encoder& enc) {
  enc.u64(pl.pos.size());
  for (const arch::TilePos& p : pl.pos) {
    enc.i32(p.x);
    enc.i32(p.y);
  }
  enc.f64(pl.cost);
}

Placement deserialize(util::codec::Decoder& dec) {
  Placement pl;
  const std::uint64_t n = dec.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    arch::TilePos p;
    p.x = dec.i32();
    p.y = dec.i32();
    pl.pos.push_back(p);
  }
  pl.cost = dec.f64();
  return pl;
}

}  // namespace taf::place
