// Harness control: this TU uses the units API and the RrGraph
// constructor correctly and MUST compile. If it fails, the negative cases
// are failing for the wrong reason (e.g. a broken include path) and the
// harness reports an error.
#include "route/rr_graph.hpp"
#include "util/units.hpp"
using namespace taf::util::units;
Celsius warmed() { return Celsius{25.0} + Kelvin{10.0}; }
double unwrap() { return frequency_of(Picoseconds{1000.0}).value(); }
void build(const taf::arch::FpgaGrid& grid, const taf::arch::ArchParams& arch) {
  const taf::route::RrGraph rr(grid, arch);
}
