// MUST NOT COMPILE: RrGraph keeps a pointer to the ArchParams it is built
// from, so a temporary would dangle as soon as the statement ends.
#include "route/rr_graph.hpp"
using namespace taf;
arch::ArchParams make_arch() { return {}; }
void build(const arch::FpgaGrid& grid) { route::RrGraph rr(grid, make_arch()); }
