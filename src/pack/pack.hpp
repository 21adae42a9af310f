#pragma once
// AAPack-style greedy packing (the VPR pack stage).
//
// LUT/FF pairs are fused into BLEs (a FF whose data input is the LUT's
// otherwise-private output shares its BLE); BLEs are clustered into
// N=10 logic blocks by connection affinity under the cluster input
// limit. BRAM/DSP/IO primitives become their own blocks.

#include <vector>

#include "arch/arch_params.hpp"
#include "netlist/netlist.hpp"
#include "util/codec.hpp"

namespace taf::pack {

enum class BlockKind : std::uint8_t { Clb, Bram, Dsp, Io };

struct Ble {
  netlist::PrimId lut = -1;  ///< -1 for a lone-FF BLE
  netlist::PrimId ff = -1;   ///< -1 for an unregistered BLE
};

struct Block {
  BlockKind kind = BlockKind::Clb;
  std::vector<Ble> bles;                  ///< CLB contents (empty for hard blocks)
  std::vector<netlist::PrimId> prims;     ///< all primitives in this block
};

/// An inter-block net derived from a netlist net: connections internal to
/// a block are absorbed (they use the cluster-local crossbar, not the
/// global routing).
struct BlockNet {
  netlist::NetId net = 0;     ///< originating netlist net
  int driver_block = 0;
  /// Blocks holding a sink pin, strictly ascending (so unique) and never
  /// driver_block (its own sinks are driver-internal). pack() emits only
  /// nets with at least one such block.
  std::vector<int> sink_blocks;
};

struct PackedNetlist {
  const netlist::Netlist* source = nullptr;
  std::vector<Block> blocks;
  std::vector<int> block_of_prim;  ///< PrimId -> block index
  std::vector<BlockNet> block_nets;

  int count(BlockKind k) const;
};

struct PackOptions {
  /// Maximum distinct external input nets per cluster (Table I: 40).
  int max_cluster_inputs = 40;
};

/// Pack the netlist for the given architecture.
PackedNetlist pack(const netlist::Netlist& nl, const arch::ArchParams& arch,
                   const PackOptions& opt = {});

/// Artifact codec (util/codec.hpp): exact round-trip, serialize ->
/// deserialize -> re-serialize is byte-identical. `source` is not
/// serialized; deserialize() leaves it null and the caller rebinds it to
/// the owning netlist.
void serialize(const PackedNetlist& packed, util::codec::Encoder& enc);
PackedNetlist deserialize(util::codec::Decoder& dec);

}  // namespace taf::pack
