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
#include "common/units.h"
#include "fleet/fleet_sim.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/trace.h"

namespace salamander {
namespace {

FleetConfig BenchFleet(SsdKind kind, uint32_t days) {
  FleetConfig config;
  config.kind = kind;
  config.devices = 16;
  // 256 blocks x 16 fPages x 4 oPages = 64 MiB raw: enough blocks that the
  // baseline's 2.5% bad-block budget [14] is ~6 blocks rather than "the
  // first weak block bricks the device".
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_plane = 64;
  config.geometry.fpages_per_block = 16;
  config.ecc = FPageEccGeometry{};
  config.wear = WearModel::Calibrate(
      ComputeTirednessLevel(config.ecc, 0).max_tolerable_rber,
      /*nominal_pec=*/640);
  config.msize_opages = 256;
  config.dwpd = 2.0;
  config.dwpd_sigma = 0.25;  // shard imbalance across devices
  config.afr = 0.02;
  config.days = days;
  config.sample_every_days = 5;
  config.seed = 20250514;  // same batch as fig3a
  return config;
}

}  // namespace
}  // namespace salamander

int main(int argc, char** argv) {
  using namespace salamander;
  bench::PrintHeader(
      "Figure 3b — available capacity over time",
      "baseline capacity drops in whole-device cliffs; Salamander shrinks "
      "gradually and retains capacity longer");
  const unsigned threads = bench::ParseThreads(argc, argv);
  const std::string sched = bench::ParseSchedFlag(argc, argv);
  // Simulated horizon; the table runs to it. The default is the figure's.
  const uint64_t days_flag = bench::ParseU64Flag(argc, argv, "--days", 300);
  if (days_flag == 0 || days_flag > 100000) {
    std::fprintf(stderr, "error: --days expects 1..100000, got %llu\n",
                 static_cast<unsigned long long>(days_flag));
    return 2;
  }
  const uint32_t days = static_cast<uint32_t>(days_flag);
  const std::string metrics_out =
      bench::ParseStringFlag(argc, argv, "--metrics-out");
  const std::string trace_out =
      bench::ParseStringFlag(argc, argv, "--trace-out");

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
    FleetConfig config = BenchFleet(kind, days);
    config.threads = threads;
    config.scheduler = sched == "lockstep" ? FleetSchedulerMode::kLockstep
                                           : FleetSchedulerMode::kEventDriven;
    config.sampler = &samplers[kind];
    config.trace = &trace;
    config.trace_tid = lane++;
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
  for (uint32_t day = 0; day <= days; day += 5) {
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

  if (!metrics_out.empty() && !registry.WriteJsonFile(metrics_out)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
    return 1;
  }
  if (!trace_out.empty() && !trace.WriteJsonFile(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}
