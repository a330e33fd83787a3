// perfbench: the repository's benchmark. Runs one named workload and prints
// its metrics by name with their units, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: perfbench --workload fleet-wearout|replicated-traffic|ec-faults
//                  --seed N --seconds S --trace 0|1
//                  [--size full|tiny] [--golden PATH] [--trace-out PATH]
//
// --trace 0 measures end-to-end metrics for about S seconds (the fastest of
// the repetitions that fit, day by day for the cluster replays; see Repeat()
// in workloads.h); --trace 1 makes one traced run and prints the
// per-layer metrics. On the canonical seed the simulated outputs must match the digest
// recorded in the --golden file; every seed runs the ledger and guard checks.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ecc/tiredness.h"
#include "measure.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  salamander::Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return rng.NextU64();
}

double LadderBuildUs() {
  const salamander::FPageEccGeometry ecc;
  Samples us;
  for (int i = 0; i < 31; ++i) {
    const Timer timer;
    const auto ladder = salamander::ComputeTirednessLadder(ecc);
    us.Add(static_cast<double>(timer.Ns()) / 1000.0);
    if (ladder.empty()) {
      std::abort();
    }
  }
  return us.Median();
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed by every untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"device_days_per_s", "device-days/s"},
    {"ops_per_s", "ops/s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics, printed by every traced run; a layer the workload does
// not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"ecc.ladder_build_us", "us"},
    {"ecc.ladder_builds", "count"},
    {"ecc.ladder_share_of_setup", "ratio"},
    {"fleet.setup_us_per_device", "us"},
    {"fleet.run_serial_s", "s"},
    {"fleet.parallel_speedup", "x"},
    {"fleet.host_us_per_stepped_day", "us"},
    {"fleet.days_stepped", "count"},
    {"fleet.events", "count"},
    {"fleet.batches", "count"},
    {"fleet.idle_windows", "count"},
    {"fleet.dark_days_skipped", "count"},
    {"workload.aging_day_us.p50", "us"},
    {"workload.aging_day_us.p999", "us"},
    {"workload.aging_day_n", "count"},
    {"workload.aging_self_ns_per_opage", "ns"},
    {"workload.emit_ns_per_op", "ns"},
    {"ssd.write_ns.p50", "ns"},
    {"ssd.write_ns.p999", "ns"},
    {"ssd.write_n", "count"},
    {"ssd.self_write_ns", "ns"},
    {"ssd.restart_ms.p50", "ms"},
    {"ssd.restart_ms.max", "ms"},
    {"ssd.restarts", "count"},
    {"core.decommissioned", "count"},
    {"core.regenerated", "count"},
    {"core.drains_forced", "count"},
    {"ftl.write_ns.p50", "ns"},
    {"ftl.write_ns.p999", "ns"},
    {"ftl.read_ns.p50", "ns"},
    {"ftl.read_ns.p999", "ns"},
    {"ftl.gc_useful_ratio", "ratio"},
    {"ftl.flushes_per_host_write", "ratio"},
    {"ftl.erases_per_host_write", "ratio"},
    {"ftl.journal_records", "count"},
    {"ftl.journal_replays", "count"},
    {"ftl.read_retries", "count"},
    {"ftl.uncorrectable_reads", "count"},
    {"ftl.l2p_hit_ratio", "ratio"},
    {"ftl.l2p_map_writes_per_host_write", "ratio"},
    {"flash.programs_per_host_write", "ratio"},
    {"flash.reads_per_host_read", "ratio"},
    {"flash.erases", "count"},
    {"difs.write_ns.p50", "ns"},
    {"difs.write_ns.p999", "ns"},
    {"difs.read_ns.p50", "ns"},
    {"difs.read_ns.p999", "ns"},
    {"difs.reconcile_us.p50", "us"},
    {"difs.reconcile_us.max", "us"},
    {"difs.device_writes_per_write", "ratio"},
    {"difs.recovery_opage_writes", "count"},
    {"difs.recovery_opage_reads", "count"},
    {"difs.degraded_reads", "count"},
    {"difs.rebuild_useful_ratio", "ratio"},
    {"difs.data_lost", "count"},
    {"difs.suspect_windows", "count"},
    {"difs.suspect_returned", "count"},
    {"difs.transient_retries", "count"},
    {"difs.maintenance_ticks", "count"},
    {"sched.queue_wait_us.p50", "us"},
    {"sched.queue_wait_us.p999", "us"},
    {"sched.sheds", "count"},
    {"sched.hedged_reads", "count"},
    {"sched.hedge_win_ratio", "ratio"},
    {"sched.brownout_entered", "count"},
    {"faults.power_loss", "count"},
    {"faults.torn_journal", "count"},
    {"faults.program_fail", "count"},
    {"faults.read_corrupt", "count"},
    {"integrity.detected", "count"},
    {"integrity.marked_bad", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
    {"sim_capacity_halflife_days", "days"},
    {"sim_read_p50_us", "us"},
    {"sim_read_p999_us", "us"},
    {"sim_read_n", "count"},
    {"sim_write_p50_us", "us"},
    {"sim_write_p999_us", "us"},
    {"sim_write_n", "count"},
    {"failed_op_ratio", "ratio"},
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "fleet-wearout|replicated-traffic|ec-faults --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--golden PATH] "
               "[--trace-out PATH]\n",
               error);
  std::exit(2);
}

uint64_t ParseU64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    Usage((flag + " expects a non-negative integer, got '" + text + "'")
              .c_str());
  }
  return value;
}

// Golden file lines: "<workload> <size> <seed> <digest>"; '#' comments.
std::string GoldenDigest(const std::string& path, const RunOptions& options,
                         bool* found) {
  *found = false;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload, size, digest;
    uint64_t seed = 0;
    if (fields >> workload >> size >> seed >> digest &&
        workload == options.workload &&
        size == (options.tiny ? "tiny" : "full") && seed == options.seed) {
      *found = true;
      return digest;
    }
  }
  return "";
}

void PrintHost(const RunOptions& options) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("host: {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
              "\"%s\", \"cxx_flags\": \"%s\", \"threads\": %u}\n",
              std::thread::hardware_concurrency(), compiler,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, options.threads);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string golden;
  std::string size = "full";
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage((flag + " needs a value").c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      options.seed = ParseU64(flag, value);
      have[1] = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseU64(flag, value));
      have[2] = true;
    } else if (flag == "--trace") {
      const uint64_t trace = ParseU64(flag, value);
      if (trace > 1) {
        Usage("--trace expects 0 or 1");
      }
      options.trace = trace == 1;
      have[3] = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        Usage("--size expects full or tiny");
      }
      size = value;
    } else if (flag == "--golden") {
      golden = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  options.tiny = size == "tiny";
  options.threads =
      std::min(options.threads, salamander::ThreadPool::HardwareThreads());

  Report report;
  if (options.workload == "fleet-wearout") {
    RunFleetWearout(options, &report);
  } else if (options.workload == "replicated-traffic") {
    RunReplicatedTraffic(options, &report);
  } else if (options.workload == "ec-faults") {
    RunEcFaults(options, &report);
  } else {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  std::printf("digest: %s %s %" PRIu64 " %s\n", options.workload.c_str(),
              size.c_str(), options.seed, report.digest.c_str());
  if (options.seed == kCanonicalSeed) {
    bool found = false;
    const std::string expected = GoldenDigest(golden, options, &found);
    report.checks.Expect(found, "no golden digest recorded for this "
                                "workload and size in '" + golden + "'");
    report.checks.Expect(!found || expected == report.digest,
                         "simulated outputs differ from the golden digest " +
                             expected);
  }
  PrintHost(options);

  MetricSink sink;
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = report.layer.find(spec.name);
      sink.Add(spec.name, it == report.layer.end() ? 0.0 : it->second,
               spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = report.e2e.find(spec.name);
      report.checks.Expect(it != report.e2e.end(),
                           std::string("missing metric ") + spec.name);
      sink.Add(spec.name, it == report.e2e.end() ? 0.0 : it->second,
               spec.unit);
    }
  }
  sink.PrintLines();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              report.checks.ok() ? "true" : "false",
              std::max<uint64_t>(report.attempted, 1), report.failed,
              sink.Json().c_str());
  return 0;
}
