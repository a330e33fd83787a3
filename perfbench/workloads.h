// The three perfbench workloads and the report each one fills.
//
//   fleet-wearout       crash-free RegenS fleet (FleetSim) worn to the end
//   replicated-traffic  3-way replicated diFS under queued multi-tenant load
//   ec-faults           RS(4+2) cluster under power loss and flash faults
//
// Every workload derives all of its inputs from the run seed, times only
// calls into the library's public entry points, and checks its simulated
// outputs: ledgers and guards on every seed, plus a golden digest on the
// canonical seed.
#ifndef SALAMANDER_PERFBENCH_WORKLOADS_H_
#define SALAMANDER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "measure.h"
#include "telemetry/metrics.h"

namespace perfbench {

// Seed whose simulated outputs are pinned in golden_digests.txt.
inline constexpr uint64_t kCanonicalSeed = 1;

struct RunOptions {
  std::string workload;
  uint64_t seed = kCanonicalSeed;
  double seconds = 10.0;
  bool trace = false;
  // Reduced sizes for the benchmark's own tests.
  bool tiny = false;
  // Fleet worker threads: 4, capped at the host's hardware threads.
  unsigned threads = 4;
  // Where the traced run writes its spans (CSV); empty = keep in memory only.
  std::string trace_out;
};

struct Report {
  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Fingerprint of the simulated outputs (identical on every repetition).
  std::string digest;
  // End-to-end metrics (untraced run) by name.
  std::map<std::string, double> e2e;
  // Per-layer metrics (traced run) by name; names absent stay 0.
  std::map<std::string, double> layer;
};

// Value of a counter in `registry`, 0 when it was never created.
inline uint64_t CounterValue(const salamander::MetricRegistry& registry,
                             const char* name) {
  const salamander::Counter* counter = registry.FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

// Mixes a run seed with a salt into an independent sub-seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

void RunFleetWearout(const RunOptions& options, Report* report);
void RunReplicatedTraffic(const RunOptions& options, Report* report);
void RunEcFaults(const RunOptions& options, Report* report);

// Median host us of ComputeTirednessLadder on the default ECC geometry
// every workload's devices use (each Ftl constructor builds one ladder).
double LadderBuildUs();

// ComputeTirednessLadder calls so far in this process, from any thread.
uint64_t LadderBuilds();

// Runs `rep(i)` for i = 0, 1, ... until `seconds` of host time have passed
// and at least `min_reps` repetitions are done.
//
// Every repetition does the same simulated work (each must reproduce the
// first's digest), so other tenants of a shared host can only slow one down.
// On a shared 4-vCPU VM they slowed the same work by 30-80% in episodes of
// 0.1 to 0.5 s. A cluster replay is therefore timed day by day and reported
// with each day at its fastest repetition, and a cluster set-up reports its
// fastest repetition: a day or a cluster set-up lasts a few to tens of ms,
// so some repetition runs it on a quiet host. The fleet's set-up and Run()
// last about a second each, so their fastest repetition is one lucky
// sample; those report the median (perfbench/README.md has figures).
template <typename Fn>
void Repeat(double seconds, int min_reps, Fn rep) {
  const Timer timer;
  for (int i = 0; i < min_reps || timer.Seconds() < seconds; ++i) {
    rep(i);
  }
}

}  // namespace perfbench

#endif  // SALAMANDER_PERFBENCH_WORKLOADS_H_
