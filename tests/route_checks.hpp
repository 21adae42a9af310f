#pragma once
// Structural route checks shared by the router and feedback-edge suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>

#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "route/rr_graph.hpp"

namespace taf::routecheck {

/// Every sink's path ends on its IPIN and its parent walk reaches the
/// driver's OPIN, over nodes that are all recorded as occupied.
inline void expect_connected(const route::RrGraph& rr, const pack::PackedNetlist& packed,
                             const place::Placement& pl, const route::RouteResult& r) {
  ASSERT_EQ(r.routes.size(), packed.block_nets.size());
  for (std::size_t n = 0; n < r.routes.size(); ++n) {
    const pack::BlockNet& bn = packed.block_nets[n];
    const route::NetRoute& nr = r.routes[n];
    const arch::TilePos src = pl.pos[static_cast<std::size_t>(bn.driver_block)];
    const route::RrNodeId opin = rr.opin_at(src.x, src.y);
    std::map<route::RrNodeId, route::RrNodeId> parent(nr.parents.begin(), nr.parents.end());
    ASSERT_EQ(nr.paths.size(), bn.sink_blocks.size()) << "net " << n;
    for (std::size_t s = 0; s < bn.sink_blocks.size(); ++s) {
      const arch::TilePos dst = pl.pos[static_cast<std::size_t>(bn.sink_blocks[s])];
      const route::RrNodeId ipin = rr.ipin_at(dst.x, dst.y);
      // An empty path means an earlier sink's branch already reached this IPIN.
      if (!nr.paths[s].empty()) {
        EXPECT_EQ(nr.paths[s].back(), ipin) << "net " << n;
      }
      route::RrNodeId at = ipin;
      for (std::size_t hops = 0; at != opin; ++hops) {
        ASSERT_TRUE(std::binary_search(nr.nodes.begin(), nr.nodes.end(), at)) << "net " << n;
        const auto it = parent.find(at);
        ASSERT_TRUE(it != parent.end() && hops <= nr.parents.size())
            << "net " << n << " sink " << s << " does not reach its driver";
        at = it->second;
      }
    }
  }
}

}  // namespace taf::routecheck
