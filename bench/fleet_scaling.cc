// Serial-vs-parallel wall-clock for the fleet simulator (the engine behind
// Fig. 3a/3b), and the determinism cross-checks that make the numbers
// trustworthy: for each device kind the run is executed with threads=1 and
// threads=N and the snapshot vectors and metric dumps must be byte-identical;
// optionally the event-driven engine is also diffed against the lockstep
// reference, snapshot-for-snapshot and per-device digest-for-digest.
//
// Emits BENCH_fleet.json (cwd) with the measured times, the speedup, the
// scheduler's work accounting, and the machine's hardware concurrency, so
// results from different machines are self-describing. When the requested
// thread count exceeds the host's hardware threads the file says
// `"oversubscribed": true` and the speedup is reported as measurement noise,
// not judged — a 1-core host cannot demonstrate parallelism.
//
// Flags: --threads N (0 = all hardware threads; default), --devices N,
//        --days N, --sched event|lockstep (fleet engine; default event),
//        --crosscheck 0|1 (event-vs-lockstep equivalence diff; default 1,
//        pass 0 to skip the slow reference run at datacenter scale),
//        --profile default|datacenter (datacenter = tiny-geometry devices
//        sized for 10k-device multi-year horizons),
//        --power-loss-per-device-day P (transient power-loss probability
//        per device-day; 0 = off, the default, which keeps output
//        byte-identical to builds without the crash-restart path),
//        --power-loss-restart-days N (outage length before Restart()),
//        --traffic-tenants-per-device N (multi-tenant traffic engine as the
//        write-demand source; 0 = off, the default, keeping output
//        byte-identical to flat-dwpd builds),
//        --traffic-ops-per-day X (mean ops per tenant-day),
//        --traffic-read-fraction F (tenant read mix, in [0,1]),
//        --service-opages-per-day N (fleet admission control: daily write
//        service cap per device; 0 = off, the default, keeping output
//        byte-identical to builds without the queue),
//        --queue-opages N (per-device backlog bound; 0 = unbounded, demand
//        past the bound sheds),
//        --devices-per-rack N / --rack-power-loss-per-day P /
//        --rack-restart-days N (correlated rack power-loss events: every
//        device in a rack crashes the same day; 0 devices-per-rack — the
//        default — keeps output byte-identical to pre-domain builds),
//        --batch-cohorts N / --batch-endurance-sigma S /
//        --cohort-unavailable-per-day P / --cohort-unavailable-days N
//        (manufacturing-batch cohort axis: shared endurance variance and
//        correlated unavailability waves),
//        --drain-health-threshold T / --drain-pec-horizon H (proactive
//        health-driven retirement ahead of wear-out; 0 threshold = off).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "fleet/fleet_sim.h"
#include "telemetry/metrics.h"

namespace salamander {
namespace {

// Same calibration as fig3a, scaled out to a fleet large enough that
// per-device stepping dominates scheduling overhead.
FleetConfig BenchFleet(SsdKind kind, uint32_t devices, uint32_t days,
                       double power_loss_per_device_day,
                       uint32_t power_loss_restart_days) {
  FleetConfig config;
  config.kind = kind;
  config.devices = devices;
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
  config.dwpd_sigma = 0.25;
  config.afr = 0.02;
  config.days = days;
  config.sample_every_days = 5;
  config.seed = 20250514;
  config.power_loss_per_device_day = power_loss_per_device_day;
  config.power_loss_restart_days = power_loss_restart_days;
  return config;
}

// Datacenter profile: fig3a-shaped (wear deaths spread over the horizon by
// dwpd_sigma, AFR background) but with the smallest device that still
// exercises the full FTL/mDisk machinery, so 10k devices x multiple
// simulated years fits in minutes. Devices wear out within the first ~year;
// the event scheduler then skips the dead tail that lockstep would keep
// polling — exactly the datacenter regime the paper's economics target.
FleetConfig DatacenterFleet(SsdKind kind, uint32_t devices, uint32_t days,
                            double power_loss_per_device_day,
                            uint32_t power_loss_restart_days) {
  FleetConfig config;
  config.kind = kind;
  config.devices = devices;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_plane = 8;
  config.geometry.fpages_per_block = 8;
  config.ecc = FPageEccGeometry{};
  config.wear = WearModel::Calibrate(
      ComputeTirednessLevel(config.ecc, 0).max_tolerable_rber,
      /*nominal_pec=*/160);
  config.msize_opages = 64;
  config.dwpd = 0.5;
  config.dwpd_sigma = 0.3;
  config.afr = 0.02;
  config.days = days;
  config.sample_every_days = 30;
  config.seed = 20250514;
  config.power_loss_per_device_day = power_loss_per_device_day;
  config.power_loss_restart_days = power_loss_restart_days;
  return config;
}

// The host a wall-clock figure was measured on, for BENCH_fleet.json: CPU
// model (from /proc/cpuinfo where present), compiler and build type.
std::string HostJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  std::string escaped;
  for (char c : cpu) {
    if (c == '"' || c == '\\') {
      escaped += '\\';
    }
    escaped += c;
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  return "{\"cpu\": \"" + escaped + "\", \"compiler\": \"" + compiler +
         "\", \"build_type\": \"" SALA_BUILD_TYPE "\"}";
}

struct KindResult {
  std::string kind;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  bool identical = false;          // snapshot vectors byte-identical
  bool metrics_identical = false;  // registry JSON byte-identical
  // Event-vs-lockstep equivalence (only when --crosscheck 1): snapshots,
  // metrics, and every per-device digest agree between the two engines.
  bool crosschecked = false;
  bool lockstep_equivalent = false;
  double lockstep_seconds = 0.0;
  FleetSchedulerStats sched;  // from the parallel event-driven run
  // Failure-domain totals from the parallel run (reported only when the
  // domain axis is on).
  uint64_t rack_crashes = 0;
  uint64_t cohort_pause_days = 0;
  uint32_t drained_devices = 0;
  uint64_t drain_migrated_bytes = 0;
};

}  // namespace
}  // namespace salamander

int main(int argc, char** argv) {
  using namespace salamander;
  const unsigned requested = bench::ParseThreads(argc, argv);
  const unsigned parallel_threads = ThreadPool::ResolveThreads(requested);
  const bool oversubscribed = ThreadPool::Oversubscribed(requested);
  const std::string profile =
      bench::ParseStringFlag(argc, argv, "--profile", "default");
  if (profile != "default" && profile != "datacenter") {
    std::fprintf(stderr,
                 "error: --profile expects 'default' or 'datacenter', "
                 "got '%s'\n",
                 profile.c_str());
    return 2;
  }
  const bool datacenter = profile == "datacenter";
  const uint32_t devices = static_cast<uint32_t>(bench::ParseU64Flag(
      argc, argv, "--devices", datacenter ? 10000 : 128));
  const uint32_t days = static_cast<uint32_t>(
      bench::ParseU64Flag(argc, argv, "--days", datacenter ? 1825 : 60));
  const std::string sched = bench::ParseSchedFlag(argc, argv);
  const FleetSchedulerMode mode = sched == "lockstep"
                                      ? FleetSchedulerMode::kLockstep
                                      : FleetSchedulerMode::kEventDriven;
  const bool crosscheck =
      bench::ParseU64Flag(argc, argv, "--crosscheck", 1) != 0 &&
      mode == FleetSchedulerMode::kEventDriven;
  const double power_loss = bench::ParseF64Flag(
      argc, argv, "--power-loss-per-device-day", 0.0);
  const uint32_t restart_days = static_cast<uint32_t>(
      bench::ParseU64Flag(argc, argv, "--power-loss-restart-days", 1));
  const uint64_t l2p_cache_entries = bench::ParseL2pCacheEntries(argc, argv);
  const uint32_t traffic_tenants = static_cast<uint32_t>(bench::ParseU64Flag(
      argc, argv, "--traffic-tenants-per-device", 0));
  const double traffic_ops_per_day =
      bench::ParseF64Flag(argc, argv, "--traffic-ops-per-day", 200.0);
  const double traffic_read_fraction =
      bench::ParseFractionFlag(argc, argv, "--traffic-read-fraction", 0.5);
  const uint64_t service_opages_per_day =
      bench::ParseServiceOPagesPerDay(argc, argv);
  const uint64_t queue_opages = bench::ParseQueueOPages(argc, argv);
  const bench::DomainFlagValues domain_flags =
      bench::ParseDomainFlags(argc, argv);
  FleetDomainConfig domain;
  domain.devices_per_rack =
      static_cast<uint32_t>(domain_flags.devices_per_rack);
  domain.rack_power_loss_per_day = domain_flags.rack_power_loss_per_day;
  domain.rack_restart_days =
      static_cast<uint32_t>(domain_flags.rack_restart_days);
  domain.batch_cohorts = static_cast<uint32_t>(domain_flags.batch_cohorts);
  domain.batch_endurance_sigma = domain_flags.batch_endurance_sigma;
  domain.cohort_unavailable_per_day =
      domain_flags.cohort_unavailable_per_day;
  domain.cohort_unavailable_days =
      static_cast<uint32_t>(domain_flags.cohort_unavailable_days);
  domain.drain_health_threshold = domain_flags.drain_health_threshold;
  domain.drain_pec_horizon = domain_flags.drain_pec_horizon;

  const std::string metrics_out = bench::ParseStringFlag(
      argc, argv, "--metrics-out", "BENCH_fleet_metrics.json");

  const auto make_config = [&](SsdKind kind) {
    FleetConfig config =
        datacenter ? DatacenterFleet(kind, devices, days, power_loss,
                                     restart_days)
                   : BenchFleet(kind, devices, days, power_loss,
                                restart_days);
    config.l2p_cache_entries = l2p_cache_entries;
    config.traffic.tenants_per_device = traffic_tenants;
    config.traffic.tenant.ops_per_day = traffic_ops_per_day;
    config.traffic.tenant.read_fraction = traffic_read_fraction;
    config.queue.service_opages_per_day = service_opages_per_day;
    config.queue.queue_opages = queue_opages;
    config.domain = domain;
    return config;
  };

  bench::PrintHeader(
      "fleet scaling — serial vs parallel FleetSim::Run()",
      "per-device RNG streams make the parallel fleet run bit-identical to "
      "the serial one; threads only buy wall-clock");
  std::printf("profile=%s sched=%s devices=%u days=%u threads=1 vs %u "
              "(hardware=%u)\n",
              profile.c_str(), sched.c_str(), devices, days, parallel_threads,
              ThreadPool::HardwareThreads());
  if (oversubscribed) {
    std::printf("NOTE: %u threads on %u hardware threads — oversubscribed; "
                "speedup below is scheduler noise, not parallelism, and is "
                "not judged.\n",
                parallel_threads, ThreadPool::HardwareThreads());
  }
  if (power_loss > 0.0) {
    std::printf("power_loss_per_device_day=%g restart_days=%u\n", power_loss,
                restart_days);
  }
  if (l2p_cache_entries > 0) {
    std::printf("l2p_cache_entries=%llu (DRAM-bounded L2P map, paged to "
                "flash with wear accounting)\n",
                static_cast<unsigned long long>(l2p_cache_entries));
  }
  if (service_opages_per_day > 0) {
    std::printf("admission control: service cap %llu oPages/device-day, "
                "backlog bound %llu oPages (0 = unbounded)\n",
                static_cast<unsigned long long>(service_opages_per_day),
                static_cast<unsigned long long>(queue_opages));
  }
  if (traffic_tenants > 0) {
    std::printf("traffic: %u tenants/device, %g ops/tenant-day, "
                "read_fraction=%g (mixed arrivals; write demand replaces "
                "the flat dwpd budget)\n",
                traffic_tenants, traffic_ops_per_day, traffic_read_fraction);
  }
  if (domain.enabled()) {
    std::printf("failure domains: devices_per_rack=%u "
                "rack_power_loss_per_day=%g rack_restart_days=%u "
                "batch_cohorts=%u batch_endurance_sigma=%g "
                "cohort_unavailable_per_day=%g cohort_unavailable_days=%u "
                "drain_health_threshold=%g drain_pec_horizon=%g\n",
                domain.devices_per_rack, domain.rack_power_loss_per_day,
                domain.rack_restart_days, domain.batch_cohorts,
                domain.batch_endurance_sigma,
                domain.cohort_unavailable_per_day,
                domain.cohort_unavailable_days,
                domain.drain_health_threshold, domain.drain_pec_horizon);
  }

  std::printf("\nkind\tserial_s\tparallel_s\tspeedup\tidentical\tmetrics\n");
  std::vector<KindResult> results;
  MetricRegistry exported;
  for (SsdKind kind : {SsdKind::kBaseline, SsdKind::kRegenS}) {
    KindResult result;
    result.kind = std::string(SsdKindName(kind));

    // Both runs carry an attached registry: the cross-check below proves
    // telemetry collection is itself bit-identical at any thread count.
    // Scoped so at most one large fleet is resident alongside the parallel
    // one at datacenter scale.
    MetricRegistry serial_metrics;
    std::vector<FleetSnapshot> serial_snaps;
    std::vector<uint64_t> serial_digests;
    {
      FleetConfig serial_config = make_config(kind);
      serial_config.threads = 1;
      serial_config.scheduler = mode;
      serial_config.metrics = &serial_metrics;
      FleetSim serial_sim(serial_config);
      bench::WallTimer serial_timer;
      serial_snaps = serial_sim.Run();
      result.serial_seconds = serial_timer.Seconds();
      serial_digests = serial_sim.DeviceDigests();
    }

    MetricRegistry parallel_metrics;
    FleetConfig parallel_config = make_config(kind);
    parallel_config.threads = parallel_threads;
    parallel_config.scheduler = mode;
    parallel_config.metrics = &parallel_metrics;
    FleetSim parallel_sim(parallel_config);
    bench::WallTimer parallel_timer;
    const std::vector<FleetSnapshot> parallel_snaps = parallel_sim.Run();
    result.parallel_seconds = parallel_timer.Seconds();
    result.sched = parallel_sim.scheduler_stats();

    result.identical = serial_snaps == parallel_snaps &&
                       serial_digests == parallel_sim.DeviceDigests();
    result.metrics_identical =
        serial_metrics.ToJson() == parallel_metrics.ToJson();
    std::printf("%s\t%.3f\t%.3f\t%.2fx\t%s\t%s\n", result.kind.c_str(),
                result.serial_seconds, result.parallel_seconds,
                result.serial_seconds / result.parallel_seconds,
                result.identical ? "yes" : "NO — BUG",
                result.metrics_identical ? "yes" : "NO — BUG");
    if (mode == FleetSchedulerMode::kEventDriven) {
      const uint64_t device_days =
          static_cast<uint64_t>(devices) * static_cast<uint64_t>(days);
      std::printf("  %s: stepped %llu of %llu device-days "
                  "(%.1f%% skipped as dead/dark), %llu events in %llu "
                  "batches, %llu idle windows\n",
                  result.kind.c_str(),
                  static_cast<unsigned long long>(result.sched.days_stepped),
                  static_cast<unsigned long long>(device_days),
                  device_days == 0
                      ? 0.0
                      : 100.0 *
                            static_cast<double>(device_days -
                                                result.sched.days_stepped) /
                            static_cast<double>(device_days),
                  static_cast<unsigned long long>(result.sched.events),
                  static_cast<unsigned long long>(result.sched.batches),
                  static_cast<unsigned long long>(result.sched.idle_windows));
    }
    if (crosscheck) {
      // Golden diff: the lockstep reference must agree with the event engine
      // on every snapshot, every metric, and every device's final digest.
      MetricRegistry lockstep_metrics;
      FleetConfig lockstep_config = make_config(kind);
      lockstep_config.threads = 1;
      lockstep_config.scheduler = FleetSchedulerMode::kLockstep;
      lockstep_config.metrics = &lockstep_metrics;
      FleetSim lockstep_sim(lockstep_config);
      bench::WallTimer lockstep_timer;
      const std::vector<FleetSnapshot> lockstep_snaps = lockstep_sim.Run();
      result.lockstep_seconds = lockstep_timer.Seconds();
      result.crosschecked = true;
      result.lockstep_equivalent =
          lockstep_snaps == serial_snaps &&
          lockstep_sim.DeviceDigests() == serial_digests;
      std::printf("  %s: lockstep reference %.3fs, event engine %.3fs "
                  "(%.2fx), equivalent=%s\n",
                  result.kind.c_str(), result.lockstep_seconds,
                  result.serial_seconds,
                  result.lockstep_seconds / result.serial_seconds,
                  result.lockstep_equivalent ? "yes" : "NO — BUG");
    }
    if (service_opages_per_day > 0) {
      // Ledger: every admitted oPage is either served or still parked.
      const uint64_t admitted = parallel_sim.queue_admitted_total();
      const uint64_t served = parallel_sim.queue_served_total();
      const uint64_t backlog = parallel_sim.queue_backlog_total();
      std::printf("  %s: queue admitted=%llu served=%llu shed=%llu "
                  "backlog=%llu ledger=%s\n",
                  result.kind.c_str(),
                  static_cast<unsigned long long>(admitted),
                  static_cast<unsigned long long>(served),
                  static_cast<unsigned long long>(
                      parallel_sim.queue_shed_total()),
                  static_cast<unsigned long long>(backlog),
                  admitted == served + backlog ? "ok" : "LEAK — BUG");
    }
    if (power_loss > 0.0) {
      std::printf("  %s: power_losses=%llu restarts=%llu "
                  "restart_failures=%llu dark_now=%u\n",
                  result.kind.c_str(),
                  static_cast<unsigned long long>(
                      parallel_sim.power_losses_total()),
                  static_cast<unsigned long long>(
                      parallel_sim.restarts_total()),
                  static_cast<unsigned long long>(
                      parallel_sim.restart_failures_total()),
                  parallel_sim.dark_devices());
    }
    if (domain.enabled()) {
      result.rack_crashes = parallel_sim.rack_crashes_total();
      result.cohort_pause_days = parallel_sim.cohort_pause_days_total();
      result.drained_devices = parallel_sim.drained_devices();
      result.drain_migrated_bytes = parallel_sim.drain_migrated_bytes_total();
      std::printf("  %s: rack_crashes=%llu cohort_pause_days=%llu "
                  "drained_devices=%u drain_migrated_bytes=%llu\n",
                  result.kind.c_str(),
                  static_cast<unsigned long long>(result.rack_crashes),
                  static_cast<unsigned long long>(result.cohort_pause_days),
                  result.drained_devices,
                  static_cast<unsigned long long>(
                      result.drain_migrated_bytes));
    }
    // Export under a per-kind prefix so the two fleets stay distinguishable.
    parallel_sim.CollectMetrics(exported, result.kind + ".");
    results.push_back(result);
  }

  FILE* json = std::fopen("BENCH_fleet.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fleet.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"fleet_scaling\",\n"
               "  \"profile\": \"%s\",\n"
               "  \"sched\": \"%s\",\n"
               "  \"devices\": %u,\n"
               "  \"days\": %u,\n",
               profile.c_str(), sched.c_str(), devices, days);
  if (l2p_cache_entries > 0) {
    // Emitted only when the bounded cache is on, so default-knob JSON stays
    // byte-identical to pre-cache builds.
    std::fprintf(json, "  \"l2p_cache_entries\": %llu,\n",
                 static_cast<unsigned long long>(l2p_cache_entries));
  }
  if (traffic_tenants > 0) {
    // Same rule as the cache knob: emitted only when the traffic engine is
    // on, so default-knob JSON stays byte-identical to pre-traffic builds.
    std::fprintf(json,
                 "  \"traffic_tenants_per_device\": %u,\n"
                 "  \"traffic_ops_per_day\": %g,\n"
                 "  \"traffic_read_fraction\": %g,\n",
                 traffic_tenants, traffic_ops_per_day,
                 traffic_read_fraction);
  }
  if (service_opages_per_day > 0) {
    // Gated like the l2p/traffic knobs: default-knob JSON stays
    // byte-identical to builds without fleet admission control.
    std::fprintf(json,
                 "  \"service_opages_per_day\": %llu,\n"
                 "  \"queue_opages\": %llu,\n",
                 static_cast<unsigned long long>(service_opages_per_day),
                 static_cast<unsigned long long>(queue_opages));
  }
  if (domain.enabled()) {
    // Gated like the knobs above: default-knob JSON stays byte-identical to
    // builds without failure domains.
    std::fprintf(json,
                 "  \"devices_per_rack\": %u,\n"
                 "  \"rack_power_loss_per_day\": %g,\n"
                 "  \"rack_restart_days\": %u,\n"
                 "  \"batch_cohorts\": %u,\n"
                 "  \"batch_endurance_sigma\": %g,\n"
                 "  \"cohort_unavailable_per_day\": %g,\n"
                 "  \"drain_health_threshold\": %g,\n",
                 domain.devices_per_rack, domain.rack_power_loss_per_day,
                 domain.rack_restart_days, domain.batch_cohorts,
                 domain.batch_endurance_sigma,
                 domain.cohort_unavailable_per_day,
                 domain.drain_health_threshold);
  }
  std::fprintf(json,
               "  \"host\": %s,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"parallel_threads\": %u,\n"
               "  \"oversubscribed\": %s,\n"
               "  \"speedup_meaningful\": %s,\n"
               "  \"runs\": [\n",
               HostJson().c_str(), ThreadPool::HardwareThreads(),
               parallel_threads, oversubscribed ? "true" : "false",
               oversubscribed ? "false" : "true");
  for (size_t i = 0; i < results.size(); ++i) {
    const KindResult& r = results[i];
    std::fprintf(json,
                 "    {\"kind\": \"%s\", \"serial_seconds\": %.3f, "
                 "\"parallel_seconds\": %.3f, \"speedup\": %.2f, "
                 "\"snapshots_identical\": %s, \"metrics_identical\": %s, "
                 "\"lockstep_equivalent\": %s, \"lockstep_seconds\": %.3f, "
                 "\"device_days_stepped\": %llu, "
                 "\"device_days_total\": %llu, "
                 "\"dark_days_skipped\": %llu, "
                 "\"scheduler_events\": %llu, "
                 "\"scheduler_batches\": %llu, "
                 "\"scheduler_idle_windows\": %llu",
                 r.kind.c_str(), r.serial_seconds, r.parallel_seconds,
                 r.serial_seconds / r.parallel_seconds,
                 r.identical ? "true" : "false",
                 r.metrics_identical ? "true" : "false",
                 r.crosschecked ? (r.lockstep_equivalent ? "true" : "false")
                                : "null",
                 r.lockstep_seconds,
                 static_cast<unsigned long long>(r.sched.days_stepped),
                 static_cast<unsigned long long>(
                     static_cast<uint64_t>(devices) *
                     static_cast<uint64_t>(days)),
                 static_cast<unsigned long long>(r.sched.dark_days_skipped),
                 static_cast<unsigned long long>(r.sched.events),
                 static_cast<unsigned long long>(r.sched.batches),
                 static_cast<unsigned long long>(r.sched.idle_windows));
    if (domain.enabled()) {
      // Per-run domain totals, gated for the same byte-identity reason.
      std::fprintf(json,
                   ", \"rack_crashes\": %llu, \"cohort_pause_days\": %llu, "
                   "\"drained_devices\": %u, \"drain_migrated_bytes\": %llu",
                   static_cast<unsigned long long>(r.rack_crashes),
                   static_cast<unsigned long long>(r.cohort_pause_days),
                   r.drained_devices,
                   static_cast<unsigned long long>(r.drain_migrated_bytes));
    }
    std::fprintf(json, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_fleet.json\n");

  if (!exported.WriteJsonFile(metrics_out)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", metrics_out.c_str());

  // Pass/fail judges determinism only — identity across thread counts and
  // (when cross-checked) across engines. Speedup is never judged: on an
  // oversubscribed host it is noise by construction, and elsewhere it is a
  // trajectory to track, not a gate.
  bool all_identical = true;
  for (const KindResult& r : results) {
    all_identical &= r.identical && r.metrics_identical;
    if (r.crosschecked) {
      all_identical &= r.lockstep_equivalent;
    }
  }
  return all_identical ? 0 : 1;
}
