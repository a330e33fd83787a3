// Reproduces Fig. 3a: number of functioning SSDs over time, baseline vs
// Salamander.
//
// A batch of devices is deployed together and driven at a constant write
// rate. Baseline devices brick abruptly once their bad-block budget is
// exhausted, clustering failures into a narrow window; ShrinkS/RegenS
// devices shed minidisks instead, flattening the failure slope (RegenS most
// of all, since revived L1 pages add endurance).
//
// Scale note: endurance is compressed (small geometry, nominal PEC in the
// tens) so the experiment completes in seconds; the *shape* of the curves is
// what reproduces the figure, not absolute days.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig3_fleet.h"
#include "fleet/fleet_sim.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/trace.h"

int main(int argc, char** argv) {
  using namespace salamander;
  bench::PrintHeader(
      "Figure 3a — functioning SSDs over time",
      "baseline devices brick in a narrow window; RegenS flattens the "
      "failure slope (green vs red in the paper)");
  bench::Fig3Flags flags;
  if (!bench::ParseFig3Flags(argc, argv, &flags)) {
    return 2;
  }

  // One registry across the three kinds; each kind's instruments live under
  // its own "<kind>." prefix. The reported numbers below are pulled from
  // here, not recomputed — the registry IS the bench's data source.
  MetricRegistry registry;
  TraceRecorder trace;
  std::map<SsdKind, std::vector<FleetSnapshot>> runs;
  uint32_t lane = 0;
  for (SsdKind kind :
       {SsdKind::kBaseline, SsdKind::kShrinkS, SsdKind::kRegenS}) {
    FleetConfig config = bench::Fig3Fleet(kind, flags, &trace, lane++);
    FleetSim sim(config);
    runs[kind] = sim.Run();
    sim.CollectMetrics(registry, std::string(SsdKindName(kind)) + ".");
    const std::optional<uint32_t> half_dead = sim.DayDevicesBelow(0.5);
    std::printf("[%s] half-fleet-dead day: %s\n",
                std::string(SsdKindName(kind)).c_str(),
                half_dead ? std::to_string(*half_dead).c_str() : "never");
  }

  bench::PrintSection("functioning devices (of 16) by day");
  std::printf("day\tbaseline\tshrinks\tregens\n");
  // Sample on the union of days using last-known values.
  const auto value_at = [](const std::vector<FleetSnapshot>& snapshots,
                           uint32_t day) {
    uint32_t value = snapshots.front().functioning_devices;
    for (const FleetSnapshot& s : snapshots) {
      if (s.day > day) {
        break;
      }
      value = s.functioning_devices;
    }
    return value;
  };
  for (uint32_t day = 0; day <= flags.days; day += 5) {
    std::printf("%u\t%u\t%u\t%u\n", day,
                value_at(runs[SsdKind::kBaseline], day),
                value_at(runs[SsdKind::kShrinkS], day),
                value_at(runs[SsdKind::kRegenS], day));
  }

  bench::PrintSection("cumulative mDisk events at horizon");
  for (SsdKind kind :
       {SsdKind::kBaseline, SsdKind::kShrinkS, SsdKind::kRegenS}) {
    // Reported straight from the registry: SsdDevice::CollectMetrics is
    // additive, so the per-kind counters are already fleet totals.
    const std::string prefix = std::string(SsdKindName(kind)) + ".";
    const Counter* decommissions =
        registry.FindCounter(prefix + "ssd.decommissioned_total");
    const Counter* regenerations =
        registry.FindCounter(prefix + "ssd.regenerated_total");
    std::printf("%s\tdecommissions=%llu\tregenerations=%llu\n",
                std::string(SsdKindName(kind)).c_str(),
                static_cast<unsigned long long>(
                    decommissions != nullptr ? decommissions->value() : 0),
                static_cast<unsigned long long>(
                    regenerations != nullptr ? regenerations->value() : 0));
  }

  return bench::WriteFig3Outputs(flags, registry, trace) ? 0 : 1;
}
