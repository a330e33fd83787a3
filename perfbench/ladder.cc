#include "ladder.h"

#include "common/rng.h"
#include "ftl/ftl.h"
#include "workload/aging.h"

namespace perfbench {
namespace {

using salamander::AgingDriver;
using salamander::AgingResult;
using salamander::Ftl;
using salamander::LiveSetTracker;
using salamander::MinidiskId;
using salamander::Rng;
using salamander::SsdDevice;
using salamander::StatusCode;

// Rung B: AgingDriver's loop re-drawn from the same seed against its own
// device, timing each SsdDevice::Write together with the event drain after it.
class DeviceRung {
 public:
  explicit DeviceRung(const LadderDevice& slot)
      : device_(slot.kind, slot.config), rng_(slot.driver_seed) {
    tracker_.Apply(device_.TakeEvents());
    tracker_.BootstrapFromDevice(device_);
  }

  // One device-day. While `*quiet` (no mDisk lifecycle event yet), appends
  // each successful write's logical page and host ns to `lpos`/`ns`. Returns
  // false once the device can take no more writes.
  bool Day(uint64_t writes, std::vector<uint64_t>* lpos,
           std::vector<double>* ns, bool* quiet, LadderResult* out) {
    constexpr uint64_t kMaxConsecutiveErrors = 1000;  // as AgingDriver
    const uint64_t msize = device_.msize_opages();
    for (uint64_t written = 0; written < writes;) {
      if (device_.failed() || tracker_.empty()) {
        return false;
      }
      const MinidiskId mdisk = tracker_.PickRandom(rng_);
      const uint64_t lba = rng_.UniformU64(msize);
      const uint64_t lpo = device_.manager().minidisk(mdisk).first_lpo + lba;
      const uint64_t start = NowNs();
      const salamander::StatusOr<salamander::SimDuration> status =
          device_.Write(mdisk, lba);
      const std::vector<salamander::MinidiskEvent> events =
          device_.TakeEvents();
      const double write_ns = static_cast<double>(NowNs() - start);
      out->ssd_write_ns.Add(write_ns);
      tracker_.Apply(events);
      if (status.ok()) {
        ++written;
        ++written_total_;
        consecutive_errors_ = 0;
        if (*quiet) {
          lpos->push_back(lpo);
          ns->push_back(write_ns);
        }
      } else if (status.status().code() == StatusCode::kDeviceFailed ||
                 ++consecutive_errors_ >= kMaxConsecutiveErrors) {
        return false;
      }
      *quiet &= events.empty();
    }
    return !device_.failed() && !tracker_.empty();
  }

  const SsdDevice& device() const { return device_; }
  uint64_t written_total() const { return written_total_; }

 private:
  SsdDevice device_;
  Rng rng_;
  LiveSetTracker tracker_;
  uint64_t consecutive_errors_ = 0;
  uint64_t written_total_ = 0;
};

}  // namespace

LadderResult RunLadder(const std::vector<LadderDevice>& devices,
                       SpanRecorder* spans) {
  LadderResult out;
  for (size_t i = 0; i < devices.size(); ++i) {
    const LadderDevice& slot = devices[i];
    // The three rungs advance day by day in lockstep, so a host slowdown
    // lands on all of them alike instead of on whichever ran at the time.
    SsdDevice device_a(slot.kind, slot.config);
    AgingDriver driver(&device_a, slot.driver_seed);
    DeviceRung rung_b(slot);
    Ftl ftl(slot.config.ftl);
    std::vector<uint64_t> written_c;  // logical pages rung C holds
    bool alive_a = true;
    bool alive_b = true;
    bool quiet = true;  // rung C still mirrors rung B's FTL
    uint64_t ops_a = 0;
    for (uint32_t day = 0; day < slot.days && (alive_a || alive_b); ++day) {
      if (alive_a) {
        const uint64_t start = NowNs();
        AgingResult result;
        {
          ScopedSpan span(spans, "AgingDriver::WriteOPages",
                          (static_cast<uint64_t>(i) << 32) | day);
          result = driver.WriteOPages(slot.writes_per_day);
        }
        const uint64_t ns = NowNs() - start;
        out.aging_day_us.Add(static_cast<double>(ns) / 1000.0);
        out.aging_ns += static_cast<double>(ns);
        out.aging_ops += result.opages_written;
        ops_a += result.opages_written;
        alive_a = !result.device_failed;
      }
      if (!alive_b) {
        continue;
      }
      std::vector<uint64_t> lpos;
      std::vector<double> device_ns;
      alive_b =
          rung_b.Day(slot.writes_per_day, &lpos, &device_ns, &quiet, &out);
      // Rung C: the same logical pages on a bare FTL whose logical space is
      // carved in mDisk-sized pieces, as the mDisk layer carves it. Only the
      // writes before the device's first lifecycle event: after it the mDisk
      // layer retires and trims capacity a bare FTL knows nothing about.
      for (size_t op = 0; op < lpos.size(); ++op) {
        while (ftl.logical_opages() <= lpos[op]) {
          ftl.ExtendLogicalSpace(slot.config.minidisk.msize_opages);
        }
        const uint64_t start = NowNs();
        const bool ok = ftl.Write(lpos[op]).ok();
        const double ftl_ns = static_cast<double>(NowNs() - start);
        if (!ok) {
          quiet = false;
          break;
        }
        out.ftl_write_ns.Add(ftl_ns);
        out.ssd_minus_ftl_ns += device_ns[op] - ftl_ns;
        ++out.common_ops;
        written_c.push_back(lpos[op]);
        if (written_c.size() % 1024 == 0) {
          ftl.TakeTransitions();  // the mDisk layer drains these on a device
        }
      }
    }
    out.ok &= ops_a == rung_b.written_total();
    out.streams_match &=
        device_a.ftl().StateDigest() == rung_b.device().ftl().StateDigest();
    out.journal_records += rung_b.device().ftl().journal().size();
    if (alive_a && !device_a.failed()) {
      ++out.functioning_devices;
      out.capacity_bytes += device_a.live_capacity_bytes();
    }
    out.decommissions += device_a.manager().decommissioned_total();
    out.regenerations += device_a.manager().regenerated_total();
    out.host_writes += device_a.ftl().stats().host_writes;
    // Rung C read-back: a seeded sample of the pages it wrote.
    Rng rng(slot.read_seed);
    for (uint64_t r = 0; r < slot.reads && !written_c.empty(); ++r) {
      const uint64_t lpo = written_c[rng.UniformU64(written_c.size())];
      const uint64_t start = NowNs();
      (void)ftl.Read(lpo);
      out.ftl_read_ns.Add(static_cast<double>(NowNs() - start));
    }
  }
  return out;
}

}  // namespace perfbench
