// lithos_perfbench: the repo benchmark (see perfbench/README.md).
//
//   lithos_perfbench --workload gpu_stack|fleet_steady|fleet_faults
//                    --seed N --seconds S --trace 0|1
//                    [--measure-s X]
//
// One process runs one workload single-threaded. It first runs the
// simulation once as a warm-up and reference, then repeats the full
// simulation until `--seconds` of host time have passed (at least once).
// Every repeat must reproduce the reference's simulated outputs exactly.
// `--trace 1` interleaves traced repeats (layer split) with untraced ones and
// reports the per-layer metrics instead of the end-to-end ones. The last
// stdout line is the JSON result; the lines before it are a readable report
// including the digest of all simulated outputs.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "stacks.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. Host metrics come from untraced repeats (see
// Main for the estimators); simulated ones cover the measured window after
// warm-up.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"run_s", "s"},           {"peak_rss_mb", "MB"},
    {"mean_ms", "sim_ms"},      {"p99_ms", "sim_ms"},     {"slo_attainment", "frac"},
    {"goodput_rps", "req/sim_s"}, {"energy_j", "sim_J"},
};

// Printed with --trace 1. A layer idle on a workload reports 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.events_fired", "count"},
    {"sim.events_scheduled", "count"},
    {"sim.events_canceled", "count"},
    {"sim.events_rescheduled", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"gpu.grants_launched", "count"},
    {"gpu.grants_completed", "count"},
    {"gpu.grants_aborted", "count"},
    {"gpu.checkpoints", "count"},
    {"gpu.dvfs_switches", "count"},
    {"gpu.busy_tpc_frac", "frac"},
    {"driver.launches", "count"},
    {"core.atoms", "count"},
    {"core.atoms_per_launch", "ratio"},
    {"core.tpcs_stolen", "count"},
    {"core.predictor_mispred_rate", "frac"},
    {"core.predictor_err_p99_us", "sim_us"},
    {"clients.submit_ns_p50", "ns"},
    {"clients.submit_ns_p99", "ns"},
    {"clients.hp_issued", "count"},
    {"clients.be_iterations", "count"},
    {"be_iters_per_s", "it/sim_s"},
    {"cluster.dispatch_ns_p50", "ns"},
    {"cluster.dispatch_ns_p99", "ns"},
    {"cluster.dispatch_s", "s"},
    {"cluster.requests", "count"},
    {"cluster.attempts_per_request", "ratio"},
    {"cluster.retries", "count"},
    {"cluster.hedges", "count"},
    {"cluster.timeouts", "count"},
    {"cluster.shed", "count"},
    {"cluster.hedge_win_frac", "frac"},
    {"cluster.deferred_delivered", "count"},
    {"cluster.deferred_orphaned", "count"},
    {"cluster.migrations", "count"},
    {"cluster.recoveries", "count"},
    {"failed_frac", "frac"},
    {"attr.queue_ms_mean", "sim_ms"},
    {"attr.service_ms_mean", "sim_ms"},
    {"attr.backoff_ms_mean", "sim_ms"},
    {"attr.recovery_ms_mean", "sim_ms"},
    {"attr.hedge_ms_mean", "sim_ms"},
    {"attr.deferral_ms_mean", "sim_ms"},
    {"control.ticks", "count"},
    {"control.power_ons", "count"},
    {"control.power_offs", "count"},
    {"fault.node_crashes", "count"},
    {"fault.rack_crashes", "count"},
    {"fault.stragglers", "count"},
    {"fault.partitions", "count"},
    {"detect.tick_ns_p99", "ns"},
    {"detect.verdicts", "count"},
    {"detect.precision", "frac"},
    {"detect.recall", "frac"},
    {"detect.ttd_windows_median", "windows"},
    {"remedy.tick_ns_p99", "ns"},
    {"remedy.actions", "count"},
    {"remedy.rollbacks", "count"},
    {"remedy.deferrals", "count"},
    {"remedy.rebalances", "count"},
    {"remedy.justified_frac", "frac"},
    {"host.bench_frac", "frac"},
    {"host.clients_frac", "frac"},
    {"host.engine_frac", "frac"},
    {"host.cluster_frac", "frac"},
    {"host.control_frac", "frac"},
    {"host.fault_frac", "frac"},
    {"host.untagged_frac", "frac"},
    {"host.trace_overhead", "ratio"},
};

constexpr int kMaxRuns = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double measure_s = 0;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: lithos_perfbench --workload gpu_stack|fleet_steady|"
               "fleet_faults --seed N --seconds S --trace 0|1 [--measure-s X]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--measure-s") {
      a.measure_s = std::strtod(v, &end);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (a.seconds < 0 || a.measure_s < 0) {
    Usage("negative duration");
  }
  return a;
}

double Median(const std::vector<double>& v) {
  lithos::PercentileDigest d;
  for (double x : v) {
    d.Add(x);
  }
  d.Finalize();
  return d.Median();
}

// What is kept of one run's host measurements; the per-call samples are
// reduced right away so memory does not grow with the number of repeats.
struct RunSummary {
  double setup_s = 0;
  double run_s = 0;
  double call_p50_ns = 0;
  double call_p99_ns = 0;
  double call_s = 0;
  double detect_p99_ns = 0;
  double remedy_p99_ns = 0;
  std::array<int64_t, kNumHostLayers> layer_ns{};
};

RunSummary Summarize(const HostSample& h) {
  RunSummary r;
  r.setup_s = h.setup_s;
  r.run_s = h.run_s;
  r.call_p50_ns = h.call_ns.Percentile(50);
  r.call_p99_ns = h.call_ns.Percentile(99);
  r.call_s = h.call_ns.sum_ns() * 1e-9;
  r.detect_p99_ns = h.detect_tick_ns.Percentile(99);
  r.remedy_p99_ns = h.remedy_tick_ns.Percentile(99);
  r.layer_ns = h.layer_ns;
  return r;
}

// Median over runs of a per-run statistic.
template <typename F>
double MedianOver(const std::vector<RunSummary>& runs, F stat) {
  std::vector<double> v;
  for (const RunSummary& r : runs) {
    v.push_back(stat(r));
  }
  return Median(v);
}

std::string Render(const Metric& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.17g %s", m.name.c_str(), m.value, m.unit.c_str());
  return buf;
}

// FNV-1a over the rendered simulated outputs.
uint64_t Digest(const SimSample& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const Metric& m : s.metrics) {
    for (char ch : Render(m) + "\n") {
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    }
  }
  return h;
}

const Metric* Find(const SimSample& s, const std::string& name) {
  for (const Metric& m : s.metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

// A repeat must reproduce every simulated output of the reference exactly;
// a traced repeat may add trace-derived metrics on top.
void CompareToReference(const SimSample& ref, const SimSample& run, const char* what,
                        std::vector<std::string>* violations) {
  for (const Metric& m : ref.metrics) {
    const Metric* other = Find(run, m.name);
    if (other == nullptr || Render(*other) != Render(m)) {
      violations->push_back(std::string(what) + " repeat differs in " + m.name);
      return;
    }
  }
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  Inputs in;
  if (!MakeInputs(args.workload, args.seed, args.measure_s, &in)) {
    Usage(("unknown workload " + args.workload).c_str());
  }

  // Reference run: warms caches and allocators; its simulated outputs are
  // what every later repeat must reproduce. Its host times are not used.
  SimSample ref;
  {
    HostSample warm;
    RunOnce(in, /*traced=*/false, /*cpu=*/-1, &warm, &ref);
  }
  std::vector<std::string> violations = ref.violations;
  const uint64_t digest = Digest(ref);

  std::vector<RunSummary> untraced;
  std::vector<RunSummary> traced;
  SimSample traced_ref;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  // Repeats rotate over the allowed CPUs: on a shared VM each vCPU sees its
  // own, slowly changing, interference, and a process left on one vCPU
  // inherits that vCPU's speed for the whole run.
  const std::vector<int> cpus = AllowedCpus();
  for (int run = 0; run < kMaxRuns; ++run) {
    const int cpu = cpus.empty() ? -1 : cpus[static_cast<size_t>(run) % cpus.size()];
    const int done = static_cast<int>(args.trace ? std::min(untraced.size(), traced.size())
                                                 : untraced.size());
    if (done >= 1 && elapsed() >= args.seconds) {
      break;
    }
    // --trace 1 alternates traced and untraced repeats so both see the same
    // host conditions; --trace 0 runs untraced only.
    const bool trace_this = args.trace && run % 2 == 0;
    HostSample h;
    SimSample s;
    RunOnce(in, trace_this, cpu, &h, &s);
    violations.insert(violations.end(), s.violations.begin(), s.violations.end());
    CompareToReference(ref, s, trace_this ? "traced" : "untraced", &violations);
    if (trace_this) {
      if (traced.empty()) {
        traced_ref = s;
      } else {
        CompareToReference(traced_ref, s, "traced", &violations);
      }
      traced.push_back(Summarize(h));
    } else {
      untraced.push_back(Summarize(h));
    }
  }

  std::map<std::string, Metric> out;
  auto put = [&out](const MetricDef& def, double value) {
    out[def.name] = {def.name, value, def.unit};
  };
  // Every repeat simulates the same inputs and reproduces the same outputs
  // (checked above), so repeats differ only by host interference; run_s and
  // setup_s are medians over them (README: Host noise).
  auto run_median = [](const std::vector<RunSummary>& runs) {
    return MedianOver(runs, [](const RunSummary& r) { return r.run_s; });
  };
  const double run_s = run_median(untraced);
  if (!args.trace) {
    for (const MetricDef& def : kEndToEnd) {
      const std::string name = def.name;
      if (name == "setup_s") {
        put(def, MedianOver(untraced, [](const RunSummary& r) { return r.setup_s; }));
      } else if (name == "run_s") {
        put(def, run_s);
      } else if (name == "peak_rss_mb") {
        put(def, PeakRssMb());
      } else {
        const Metric* m = Find(ref, name);
        put(def, m != nullptr ? m->value : 0.0);
        if (m == nullptr) {
          violations.push_back("missing simulated metric " + name);
        }
      }
    }
  } else {
    const bool fleet = args.workload != "gpu_stack";
    std::array<double, kNumHostLayers> layer_ns{};
    double traced_total = 0;
    for (const RunSummary& r : traced) {
      for (size_t l = 0; l < kNumHostLayers; ++l) {
        layer_ns[l] += static_cast<double>(r.layer_ns[l]);
        traced_total += static_cast<double>(r.layer_ns[l]);
      }
    }
    const double traced_run_s = run_median(traced);
    const double call_p50 = MedianOver(untraced, [](const RunSummary& r) { return r.call_p50_ns; });
    const double call_p99 = MedianOver(untraced, [](const RunSummary& r) { return r.call_p99_ns; });
    const double events = Find(ref, "sim.events_fired")->value;
    std::map<std::string, double> host = {
        {"sim.host_ns_per_event", events > 0 ? run_s * 1e9 / events : 0.0},
        {"clients.submit_ns_p50", fleet ? 0.0 : call_p50},
        {"clients.submit_ns_p99", fleet ? 0.0 : call_p99},
        {"cluster.dispatch_ns_p50", fleet ? call_p50 : 0.0},
        {"cluster.dispatch_ns_p99", fleet ? call_p99 : 0.0},
        {"cluster.dispatch_s",
         fleet ? MedianOver(untraced, [](const RunSummary& r) { return r.call_s; }) : 0.0},
        {"detect.tick_ns_p99",
         MedianOver(untraced, [](const RunSummary& r) { return r.detect_p99_ns; })},
        {"remedy.tick_ns_p99",
         MedianOver(untraced, [](const RunSummary& r) { return r.remedy_p99_ns; })},
        {"host.trace_overhead", run_s > 0 ? traced_run_s / run_s : 0.0},
    };
    for (int l = 0; l < kNumHostLayers; ++l) {
      host[std::string("host.") + HostLayerName(l) + "_frac"] =
          traced_total > 0 ? layer_ns[static_cast<size_t>(l)] / traced_total : 0.0;
    }
    for (const MetricDef& def : kPerLayer) {
      const auto it = host.find(def.name);
      if (it != host.end()) {
        put(def, it->second);
        continue;
      }
      const Metric* m = Find(traced_ref, def.name);
      put(def, m != nullptr ? m->value : 0.0);
    }
  }

  for (auto& [name, m] : out) {
    if (!std::isfinite(m.value)) {
      violations.push_back("non-finite metric " + name);
      m.value = 0;
    }
  }

  // --- Report ---
  std::printf("# workload %s seed %llu: %zu untraced + %zu traced runs\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              untraced.size(), traced.size());
  for (const Metric& m : (args.trace ? traced_ref : ref).metrics) {
    std::printf("sim %s\n", Render(m).c_str());
  }
  std::printf("digest %s seed=%llu %016llx\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(digest));
  for (const RunSummary& r : untraced) {
    std::printf("host untraced run_s %.6f setup_s %.6f\n", r.run_s, r.setup_s);
  }
  for (const RunSummary& r : traced) {
    std::printf("host traced run_s %.6f\n", r.run_s);
  }
  for (const std::string& v : violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  const bool correct = violations.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ref.attempted);
  json += ", \"failed\": " + std::to_string(correct ? 0 : ref.attempted);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
