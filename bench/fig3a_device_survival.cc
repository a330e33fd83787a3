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
  config.msize_opages = 256;  // 1 MiB mDisks
  config.dwpd = 2.0;
  config.dwpd_sigma = 0.25;  // shard imbalance across devices
  config.afr = 0.02;
  config.days = days;
  config.sample_every_days = 5;
  config.seed = 20250514;
  return config;
}

}  // namespace
}  // namespace salamander

int main(int argc, char** argv) {
  using namespace salamander;
  bench::PrintHeader(
      "Figure 3a — functioning SSDs over time",
      "baseline devices brick in a narrow window; RegenS flattens the "
      "failure slope (green vs red in the paper)");
  // Snapshot values are identical for any thread count and either scheduler
  // engine; see DESIGN.md "Threading & determinism" and "Event-driven fleet
  // core".
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

  // One registry across the three kinds; each kind's instruments live under
  // its own "<kind>." prefix. The reported numbers below are pulled from
  // here, not recomputed — the registry IS the bench's data source.
  MetricRegistry registry;
  TraceRecorder trace;
  std::map<SsdKind, std::vector<FleetSnapshot>> runs;
  uint32_t lane = 0;
  for (SsdKind kind :
       {SsdKind::kBaseline, SsdKind::kShrinkS, SsdKind::kRegenS}) {
    FleetConfig config = BenchFleet(kind, days);
    config.threads = threads;
    config.scheduler = sched == "lockstep" ? FleetSchedulerMode::kLockstep
                                           : FleetSchedulerMode::kEventDriven;
    config.trace = &trace;
    config.trace_tid = lane++;
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
  for (uint32_t day = 0; day <= days; day += 5) {
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
