// Reproduces Fig. 3b: available fleet capacity over time, baseline vs
// Salamander.
//
// Baseline capacity falls in whole-device cliffs as SSDs brick; Salamander
// capacity degrades smoothly (mDisk-sized steps) and stays above baseline
// for most of the deployment's life, with RegenS holding the most because
// revived pages keep contributing shrunken-but-usable capacity.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig3_fleet.h"
#include "common/units.h"
#include "fleet/fleet_sim.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/trace.h"

int main(int argc, char** argv) {
  using namespace salamander;
  bench::PrintHeader(
      "Figure 3b — available capacity over time",
      "baseline capacity drops in whole-device cliffs; Salamander shrinks "
      "gradually and retains capacity longer");
  bench::Fig3Flags flags;
  if (!bench::ParseFig3Flags(argc, argv, &flags)) {
    return 2;
  }

  MetricRegistry registry;
  TraceRecorder trace;
  std::map<SsdKind, std::vector<FleetSnapshot>> runs;
  std::map<SsdKind, FleetSim*> sims;
  // One sampler per kind: FleetSim registers its probe set on each (a shared
  // sampler would register duplicate series names).
  std::map<SsdKind, TimeSeriesSampler> samplers;
  std::vector<std::unique_ptr<FleetSim>> storage;
  uint32_t lane = 0;
  for (SsdKind kind :
       {SsdKind::kBaseline, SsdKind::kShrinkS, SsdKind::kRegenS}) {
    FleetConfig config = bench::Fig3Fleet(kind, flags, &trace, lane++);
    config.sampler = &samplers[kind];
    storage.push_back(std::make_unique<FleetSim>(config));
    runs[kind] = storage.back()->Run();
    sims[kind] = storage.back().get();
    storage.back()->CollectMetrics(registry,
                                   std::string(SsdKindName(kind)) + ".");
  }

  bench::PrintSection("fleet capacity (GiB) by day");
  std::printf("day\tbaseline\tshrinks\tregens\n");
  // Reported from the telemetry time series (sampled once per simulated
  // day): last-known value at the requested day, matching how a fleet
  // dashboard would render the samples.
  const auto value_at = [&samplers](SsdKind kind, uint32_t day) {
    const TimeSeries* series =
        samplers.at(kind).Find("fleet.capacity_bytes");
    double value = 0.0;
    for (const auto& [t, v] : series->points()) {
      if (t > static_cast<double>(day)) {
        break;
      }
      value = v;
    }
    return ToGiB(static_cast<uint64_t>(value));
  };
  for (uint32_t day = 0; day <= flags.days; day += 5) {
    std::printf("%u\t%.3f\t%.3f\t%.3f\n", day,
                value_at(SsdKind::kBaseline, day),
                value_at(SsdKind::kShrinkS, day),
                value_at(SsdKind::kRegenS, day));
  }

  bench::PrintSection("day fleet capacity first fell below fraction");
  std::printf("fraction\tbaseline\tshrinks\tregens\n");
  const auto day_or_never = [](std::optional<uint32_t> day) {
    return day ? std::to_string(*day) : std::string("never");
  };
  for (double fraction : {0.9, 0.75, 0.5, 0.25}) {
    std::printf(
        "%.2f\t%s\t%s\t%s\n", fraction,
        day_or_never(sims[SsdKind::kBaseline]->DayCapacityBelow(fraction))
            .c_str(),
        day_or_never(sims[SsdKind::kShrinkS]->DayCapacityBelow(fraction))
            .c_str(),
        day_or_never(sims[SsdKind::kRegenS]->DayCapacityBelow(fraction))
            .c_str());
  }

  return bench::WriteFig3Outputs(flags, registry, trace) ? 0 : 1;
}
