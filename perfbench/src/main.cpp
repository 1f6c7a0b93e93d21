// amuse_perfbench: wall-clock publish->deliver benchmark program.
//
//   amuse_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--commit SHA] [--out-dir DIR]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it untraced (the reference) and then traced with the same
// seed, replays the captured inputs through each layer, prints the
// reconciled per-layer table, writes the spans to DIR, and reports the
// per-layer metrics. Either way the last stdout line is one JSON object
// with the keys correct, attempted, failed and metrics; the exit code is 0
// only when every delivery check passed.
#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kSimFrameSample = 4;  // hop stages from 1 frame in 4

bool is_udp(const std::string& w) { return w == "bedside_udp"; }

Measurement run(const RunOptions& opt, Tracer* tracer) {
  if (opt.workload == "ward_vitals") return run_ward_vitals(opt, tracer);
  if (opt.workload == "alarm_thresholds") return run_alarm_thresholds(opt, tracer);
  return run_bedside_udp(opt, tracer);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool optimised_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

void print_provenance(const RunOptions& opt, const std::string& commit) {
#if defined(AMUSE_AFFINITY_ASSERTS)
  const char* affinity = "true";
#else
  const char* affinity = "false";
#endif
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"traced\": %s, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"optimised\": %s, "
      "\"affinity_asserts\": %s, \"commit\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.traced ? "true" : "false",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
      optimised_build() ? "true" : "false", affinity, commit.c_str());
  if (!optimised_build()) {
    std::printf("WARNING: non-optimised build; these numbers are not "
                "comparable with optimised runs\n");
  }
}

void print_checks(const char* label, const Measurement& m) {
  std::printf("%s: %llu expected (publish, subscriber) pairs, %llu failed\n",
              label, static_cast<unsigned long long>(m.expected_pairs),
              static_cast<unsigned long long>(m.failed_pairs));
  for (const std::string& v : m.violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: amuse_perfbench --workload ward_vitals|alarm_thresholds|"
               "bedside_udp --seed N --seconds S --trace 0|1 [--commit SHA] "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string commit = "unknown";
  std::string out_dir = ".";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::stoull(v);
    } else if (k == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (k == "--trace") {
      trace = std::stoi(v);
    } else if (k == "--commit") {
      commit = v;
    } else if (k == "--out-dir") {
      out_dir = v;
    } else {
      return usage();
    }
  }
  if ((opt.workload != "ward_vitals" && opt.workload != "alarm_thresholds" &&
       !is_udp(opt.workload)) ||
      (trace != 0 && trace != 1) || opt.seconds <= 0) {
    return usage();
  }
  opt.traced = trace == 1;
  print_provenance(opt, commit);

  Measurement base = run(opt, nullptr);
  print_checks("untraced run", base);
  std::vector<Metric> e2e = {
      {"deliveries_per_s", base.deliveries_per_s, "1/s"},
      {"latency_p50_us", base.latency_p50_us, "us"},
      {"latency_p99_us", base.latency_p99_us, "us"},
      {"cpu_us_per_delivery", base.cpu_us_per_delivery, "us"},
      {"setup_s", quantile(base.setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("window %.3f s, %llu deliveries, %d set-ups; %llu latency "
              "samples; generator lag p99 %.1f us\n",
              base.window_s, static_cast<unsigned long long>(base.window_deliveries),
              static_cast<int>(base.setup_s.size()),
              static_cast<unsigned long long>(base.latency_samples),
              base.generator_lag_p99_us);
  print_metrics("end-to-end metrics (untraced):", e2e);

  std::uint64_t attempted = base.expected_pairs;
  std::uint64_t failed = base.failed_pairs;
  bool correct = base.failed_pairs == 0 && base.violations.empty();
  std::vector<Metric> reported = e2e;

  if (opt.traced) {
    Tracer tracer(is_udp(opt.workload) ? 1 : kSimFrameSample);
    Measurement traced = run(opt, &tracer);
    print_checks("traced run", traced);
    attempted += traced.expected_pairs;
    failed += traced.failed_pairs;
    correct = correct && traced.failed_pairs == 0 && traced.violations.empty();
    LayerReport layers = analyse(opt, base, traced, tracer);
    std::printf("%s", layers.table.c_str());
    for (const std::string& f : layers.flags) std::printf("  FLAG: %s\n", f.c_str());
    std::string path = out_dir + "/spans-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".txt";
    if (tracer.write_spans(path)) std::printf("spans written to %s\n", path.c_str());
    print_metrics("per-layer metrics (traced):", layers.metrics);
    reported = layers.metrics;
  }

  if (attempted == 0) {
    attempted = 1;
    failed = std::max<std::uint64_t>(failed, 1);
    correct = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(reported).c_str());
  return correct ? 0 : 1;
}
