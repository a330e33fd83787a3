// Counts calls to salamander::ComputeTirednessLadder (ecc.ladder_builds).
// CMakeLists.txt links perfbench with --wrap on the function's mangled name,
// so every call from another object file (each Ftl constructor's, for one)
// reaches __wrap_<name> below, which counts it and calls the library's
// definition, __real_<name>. Calls made inside the function's own object
// file are not routed through the wrapper and are not counted. If the
// function's signature changes or it loses its out-of-line definition, the
// link fails on __real_<name>: update the mangled name here and in
// CMakeLists.txt.
#include <atomic>
#include <cstdint>
#include <vector>

#include "ecc/tiredness.h"
#include "workloads.h"

namespace {

std::atomic<uint64_t> ladder_builds{0};

}  // namespace

using Ladder = std::vector<salamander::TirednessLevelEcc>;

extern "C" Ladder
__real__ZN10salamander22ComputeTirednessLadderERKNS_16FPageEccGeometryE(
    const salamander::FPageEccGeometry& ecc);

extern "C" Ladder
__wrap__ZN10salamander22ComputeTirednessLadderERKNS_16FPageEccGeometryE(
    const salamander::FPageEccGeometry& ecc) {
  ladder_builds.fetch_add(1, std::memory_order_relaxed);
  return __real__ZN10salamander22ComputeTirednessLadderERKNS_16FPageEccGeometryE(
      ecc);
}

namespace perfbench {

uint64_t LadderBuilds() { return ladder_builds.load(); }

}  // namespace perfbench
