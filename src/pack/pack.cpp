#include "pack/pack.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

namespace taf::pack {

namespace {

using netlist::kNoNet;
using netlist::NetId;
using netlist::Netlist;
using netlist::PrimId;
using netlist::PrimKind;

/// Nets a BLE touches externally (LUT inputs + FF input if not the LUT's
/// own output + the BLE output net).
std::vector<NetId> ble_nets(const Netlist& nl, const Ble& ble) {
  std::vector<NetId> nets;
  if (ble.lut >= 0) {
    for (NetId in : nl.prim(ble.lut).inputs)
      if (in != kNoNet) nets.push_back(in);
    nets.push_back(nl.prim(ble.lut).output);
  }
  if (ble.ff >= 0) {
    for (NetId in : nl.prim(ble.ff).inputs)
      if (in != kNoNet) nets.push_back(in);
    nets.push_back(nl.prim(ble.ff).output);
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

/// Input nets a BLE needs from outside itself (LUT inputs + lone-FF data).
std::vector<NetId> ble_input_nets(const Netlist& nl, const Ble& ble) {
  std::vector<NetId> ins;
  if (ble.lut >= 0) {
    for (NetId in : nl.prim(ble.lut).inputs)
      if (in != kNoNet) ins.push_back(in);
  } else if (ble.ff >= 0) {
    for (NetId in : nl.prim(ble.ff).inputs)
      if (in != kNoNet) ins.push_back(in);
  }
  return ins;
}

}  // namespace

int PackedNetlist::count(BlockKind k) const {
  int n = 0;
  for (const Block& b : blocks)
    if (b.kind == k) ++n;
  return n;
}

PackedNetlist pack(const Netlist& nl, const arch::ArchParams& arch,
                   const PackOptions& opt) {
  PackedNetlist result;
  result.source = &nl;
  result.block_of_prim.assign(nl.prims().size(), -1);

  // --- 1. Form BLEs: pair a FF with its driving LUT when the LUT output
  // feeds only that FF (the classic registered-BLE condition).
  std::vector<Ble> bles;
  std::vector<char> ff_used(nl.prims().size(), 0);
  for (PrimId id = 0; id < static_cast<PrimId>(nl.prims().size()); ++id) {
    const auto& p = nl.prim(id);
    if (p.kind != PrimKind::Lut) continue;
    Ble ble;
    ble.lut = id;
    const auto& sinks = nl.net(p.output).sinks;
    if (sinks.size() == 1) {
      const PrimId s = sinks[0].prim;
      if (nl.prim(s).kind == PrimKind::Ff) {
        ble.ff = s;
        ff_used[static_cast<std::size_t>(s)] = 1;
      }
    }
    bles.push_back(ble);
  }
  for (PrimId id = 0; id < static_cast<PrimId>(nl.prims().size()); ++id) {
    if (nl.prim(id).kind == PrimKind::Ff && !ff_used[static_cast<std::size_t>(id)]) {
      Ble ble;
      ble.ff = id;
      bles.push_back(ble);
    }
  }

  // --- 2. Cluster BLEs greedily by affinity (shared nets), respecting
  // the N and cluster-input limits.
  // net -> BLE indices touching it, to find affine candidates fast.
  // High-fanout nets (clocks, resets, broadcast control) are excluded from
  // affinity, as in AAPack: they connect everything to everything and
  // would make candidate scans quadratic without improving the packing.
  constexpr std::size_t kMaxAffinityFanout = 24;
  // nets_of_ble[b] = ble_nets() of BLE b, computed once for the scans below.
  std::vector<std::vector<NetId>> nets_of_ble(bles.size());
  std::unordered_map<NetId, std::vector<int>> net_to_bles;
  for (int b = 0; b < static_cast<int>(bles.size()); ++b) {
    std::vector<NetId>& nets = nets_of_ble[static_cast<std::size_t>(b)];
    nets = ble_nets(nl, bles[static_cast<std::size_t>(b)]);
    for (NetId n : nets) {
      if (nl.net(n).sinks.size() > kMaxAffinityFanout) continue;
      net_to_bles[n].push_back(b);
    }
  }

  std::vector<char> clustered(bles.size(), 0);
  for (int seed = 0; seed < static_cast<int>(bles.size()); ++seed) {
    if (clustered[static_cast<std::size_t>(seed)]) continue;
    Block cluster;
    cluster.kind = BlockKind::Clb;
    std::unordered_set<NetId> cluster_nets;     // all nets touched
    std::unordered_set<NetId> cluster_outputs;  // nets driven inside
    std::unordered_set<NetId> cluster_inputs;   // external input nets

    auto add_ble = [&](int b) {
      const Ble& ble = bles[static_cast<std::size_t>(b)];
      cluster.bles.push_back(ble);
      clustered[static_cast<std::size_t>(b)] = 1;
      if (ble.lut >= 0) {
        cluster.prims.push_back(ble.lut);
        cluster_outputs.insert(nl.prim(ble.lut).output);
      }
      if (ble.ff >= 0) {
        cluster.prims.push_back(ble.ff);
        cluster_outputs.insert(nl.prim(ble.ff).output);
      }
      for (NetId n : nets_of_ble[static_cast<std::size_t>(b)]) cluster_nets.insert(n);
      // Recompute external inputs: inputs not driven inside the cluster.
      cluster_inputs.clear();
      for (const Ble& cb : cluster.bles) {
        for (NetId in : ble_input_nets(nl, cb)) {
          if (!cluster_outputs.count(in)) cluster_inputs.insert(in);
        }
      }
    };

    add_ble(seed);
    while (static_cast<int>(cluster.bles.size()) < arch.cluster_n) {
      // Candidate with the most shared nets. Visit nets in sorted order so
      // affinity ties resolve to the same candidate regardless of the
      // unordered_set's hash-iteration order: the strict '>' keeps the
      // first-seen candidate, so net order decides ties.
      int best = -1;
      int best_affinity = -1;
      std::vector<NetId> nets_sorted(cluster_nets.begin(), cluster_nets.end());
      std::sort(nets_sorted.begin(), nets_sorted.end());
      for (NetId n : nets_sorted) {
        auto it = net_to_bles.find(n);
        if (it == net_to_bles.end()) continue;
        for (int cand : it->second) {
          if (clustered[static_cast<std::size_t>(cand)]) continue;
          int affinity = 0;
          for (NetId cn : nets_of_ble[static_cast<std::size_t>(cand)])
            affinity += cluster_nets.count(cn) ? 1 : 0;
          if (affinity > best_affinity) {
            best_affinity = affinity;
            best = cand;
          }
        }
      }
      if (best < 0) break;

      // Input-limit feasibility check before committing.
      std::unordered_set<NetId> trial_inputs = cluster_inputs;
      for (NetId in : ble_input_nets(nl, bles[static_cast<std::size_t>(best)])) {
        if (!cluster_outputs.count(in)) trial_inputs.insert(in);
      }
      if (static_cast<int>(trial_inputs.size()) > opt.max_cluster_inputs) {
        // Mark as unusable for this cluster by removing from candidacy:
        // cheapest is to just stop growing; the seed loop will pick the
        // BLE up later as its own seed.
        break;
      }
      add_ble(best);
    }

    const int idx = static_cast<int>(result.blocks.size());
    for (PrimId p : cluster.prims) result.block_of_prim[static_cast<std::size_t>(p)] = idx;
    result.blocks.push_back(std::move(cluster));
  }

  // --- 3. Hard blocks and IOs become singleton blocks.
  for (PrimId id = 0; id < static_cast<PrimId>(nl.prims().size()); ++id) {
    const auto& p = nl.prim(id);
    BlockKind kind;
    switch (p.kind) {
      case PrimKind::Bram: kind = BlockKind::Bram; break;
      case PrimKind::Dsp: kind = BlockKind::Dsp; break;
      case PrimKind::Input:
      case PrimKind::Output: kind = BlockKind::Io; break;
      default: continue;
    }
    Block b;
    b.kind = kind;
    b.prims.push_back(id);
    result.block_of_prim[static_cast<std::size_t>(id)] = static_cast<int>(result.blocks.size());
    result.blocks.push_back(std::move(b));
  }

  // --- 4. Derive inter-block nets.
  for (NetId n = 0; n < static_cast<NetId>(nl.nets().size()); ++n) {
    const auto& net = nl.net(n);
    const int src = result.block_of_prim[static_cast<std::size_t>(net.driver)];
    assert(src >= 0);
    std::vector<int> sinks;
    for (const auto& s : net.sinks) {
      const int sb = result.block_of_prim[static_cast<std::size_t>(s.prim)];
      if (sb != src) sinks.push_back(sb);
    }
    std::sort(sinks.begin(), sinks.end());
    sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
    if (!sinks.empty()) result.block_nets.push_back({n, src, std::move(sinks)});
  }

  return result;
}

void serialize(const PackedNetlist& packed, util::codec::Encoder& enc) {
  enc.u64(packed.blocks.size());
  for (const Block& b : packed.blocks) {
    enc.u8(static_cast<std::uint8_t>(b.kind));
    enc.u64(b.bles.size());
    for (const Ble& ble : b.bles) {
      enc.i32(ble.lut);
      enc.i32(ble.ff);
    }
    enc.i32_vec(b.prims);
  }
  enc.i32_vec(packed.block_of_prim);
  enc.u64(packed.block_nets.size());
  for (const BlockNet& n : packed.block_nets) {
    enc.i32(n.net);
    enc.i32(n.driver_block);
    enc.i32_vec(n.sink_blocks);
  }
}

PackedNetlist deserialize(util::codec::Decoder& dec) {
  PackedNetlist packed;
  const std::uint64_t num_blocks = dec.u64();
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    Block b;
    b.kind = static_cast<BlockKind>(dec.u8());
    const std::uint64_t num_bles = dec.u64();
    for (std::uint64_t j = 0; j < num_bles; ++j) {
      Ble ble;
      ble.lut = dec.i32();
      ble.ff = dec.i32();
      b.bles.push_back(ble);
    }
    b.prims = dec.i32_vec();
    packed.blocks.push_back(std::move(b));
  }
  packed.block_of_prim = dec.i32_vec();
  const std::uint64_t num_nets = dec.u64();
  for (std::uint64_t i = 0; i < num_nets; ++i) {
    BlockNet n;
    n.net = dec.i32();
    n.driver_block = dec.i32();
    n.sink_blocks = dec.i32_vec();
    packed.block_nets.push_back(std::move(n));
  }
  return packed;
}

}  // namespace taf::pack
