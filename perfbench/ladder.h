// Layer ladder: one seeded write stream entered at three rungs of the device
// stack, so each layer's host self time is its rung minus the rung below.
//
//   rung A  AgingDriver::WriteOPages   one call per device-day
//   rung B  SsdDevice::Write           the same (mDisk, LBA) stream, re-drawn
//                                      from the driver's seed; each call is
//                                      timed together with its TakeEvents()
//   rung C  Ftl::Write                 the logical pages rung B wrote, on a
//                                      bare FTL built from the same config
//
// The rungs advance day by day in lockstep, so host slowdowns hit them alike.
// Rung B reproduces AgingDriver's draws exactly, so rungs A and B end in the
// same device state (checked by FTL StateDigest). Rung C replays rung B's
// writes only up to the device's first mDisk lifecycle event: until then the
// device's FTL received exactly those writes, and after it the mDisk layer
// retires and trims capacity that a bare FTL knows nothing about. After the
// writes, rung C reads back a seeded sample of the pages it wrote.
#ifndef SALAMANDER_PERFBENCH_LADDER_H_
#define SALAMANDER_PERFBENCH_LADDER_H_

#include <cstdint>
#include <vector>

#include "measure.h"
#include "ssd/ssd_device.h"

namespace perfbench {

// One device slot to step through the ladder.
struct LadderDevice {
  salamander::SsdKind kind = salamander::SsdKind::kRegenS;
  salamander::SsdConfig config;
  uint64_t driver_seed = 0;
  uint64_t writes_per_day = 0;
  uint32_t days = 0;
  uint64_t reads = 0;  // rung C read-back sample size
  uint64_t read_seed = 0;
};

struct LadderResult {
  Samples aging_day_us;   // rung A, host us per WriteOPages call
  double aging_ns = 0.0;  // rung A total host ns
  uint64_t aging_ops = 0;
  Samples ssd_write_ns;   // rung B, per op
  Samples ftl_write_ns;   // rung C, per op
  Samples ftl_read_ns;    // rung C read-back, per op
  // Over the writes both rungs B and C made: sum of (B - C) host ns.
  double ssd_minus_ftl_ns = 0.0;
  uint64_t common_ops = 0;
  uint64_t journal_records = 0;  // sum of rung-B devices' journal sizes
  // Rung A's devices when the ladder ends, summed as FleetSim's snapshots
  // sum a fleet: working devices and their live capacity, mDisks
  // decommissioned and regenerated, and FTL host writes.
  uint32_t functioning_devices = 0;
  uint64_t capacity_bytes = 0;
  uint64_t decommissions = 0;
  uint64_t regenerations = 0;
  uint64_t host_writes = 0;
  bool streams_match = true;     // rung A and B devices ended identical
  bool ok = true;                // rung B wrote as many pages as rung A
};

// Steps every device through all three rungs. Rung A records one span per
// device-day in `spans` when it is non-null; rungs B and C time each call
// with a bare timer pair, so no span bookkeeping sits inside their figures.
LadderResult RunLadder(const std::vector<LadderDevice>& devices,
                       SpanRecorder* spans);

}  // namespace perfbench

#endif  // SALAMANDER_PERFBENCH_LADDER_H_
