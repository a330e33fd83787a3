// Shared set-up of Fig. 3a (functioning devices over time) and Fig. 3b
// (available capacity over time): the command line both benches take, the
// device batch both deploy, and their telemetry exports.
#ifndef SALAMANDER_BENCH_FIG3_FLEET_H_
#define SALAMANDER_BENCH_FIG3_FLEET_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "fleet/fleet_sim.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace salamander {
namespace bench {

struct Fig3Flags {
  unsigned threads = 1;
  std::string sched;
  // Simulated horizon; the tables run to it. The default is the figure's.
  uint32_t days = 300;
  std::string metrics_out;
  std::string trace_out;
};

// Parses --threads, --sched, --days (1..100000), --metrics-out and
// --trace-out. Returns false, after printing the error, when --days is out
// of range: the caller exits 2 before simulating anything.
inline bool ParseFig3Flags(int argc, char** argv, Fig3Flags* flags) {
  flags->threads = ParseThreads(argc, argv);
  flags->sched = ParseSchedFlag(argc, argv);
  const uint64_t days = ParseU64Flag(argc, argv, "--days", 300);
  if (days == 0 || days > 100000) {
    std::fprintf(stderr, "error: --days expects 1..100000, got %llu\n",
                 static_cast<unsigned long long>(days));
    return false;
  }
  flags->days = static_cast<uint32_t>(days);
  flags->metrics_out = ParseStringFlag(argc, argv, "--metrics-out");
  flags->trace_out = ParseStringFlag(argc, argv, "--trace-out");
  return true;
}

// The batch both figures deploy together and drive at a constant write
// rate: 16 devices of `kind`, run with the flags' horizon, thread count and
// scheduler engine, tracing onto lane `trace_tid` of `trace`. Snapshot
// values are identical for any thread count and either engine; see
// DESIGN.md "Threading & determinism" and "Event-driven fleet core".
inline FleetConfig Fig3Fleet(SsdKind kind, const Fig3Flags& flags,
                             TraceRecorder* trace, uint32_t trace_tid) {
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
  config.days = flags.days;
  config.sample_every_days = 5;
  config.seed = 20250514;
  config.threads = flags.threads;
  config.scheduler = flags.sched == "lockstep"
                         ? FleetSchedulerMode::kLockstep
                         : FleetSchedulerMode::kEventDriven;
  config.trace = trace;
  config.trace_tid = trace_tid;
  return config;
}

// Writes the metrics and trace exports the flags ask for; false, after
// printing the error, when a file cannot be written.
inline bool WriteFig3Outputs(const Fig3Flags& flags,
                             const MetricRegistry& registry,
                             const TraceRecorder& trace) {
  if (!flags.metrics_out.empty() &&
      !registry.WriteJsonFile(flags.metrics_out)) {
    std::fprintf(stderr, "cannot write %s\n", flags.metrics_out.c_str());
    return false;
  }
  if (!flags.trace_out.empty() && !trace.WriteJsonFile(flags.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", flags.trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace bench
}  // namespace salamander

#endif  // SALAMANDER_BENCH_FIG3_FLEET_H_
