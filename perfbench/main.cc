// vrc_perfbench: runs one benchmark workload for a fixed host-time budget and
// prints its metrics; the last line of stdout is the JSON result.
//
//   vrc_perfbench --workload paper-spec5 --seed 0 --seconds 20 --trace 0
//
// --trace 0 repeats untraced runs (core::run_experiment) and reports the
// end-to-end metrics: jobs_per_s and setup_s as medians over the runs, and
// the process's peak_rss_mb. --trace 1 repeats pairs of an untraced and a
// traced run of the same inputs and reports the per-layer ledger (medians).
// Every run is checked; a failed check prints "correct": false, counts the
// run's jobs as failed and exits 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.h"
#include "probes.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string revision = "unknown";
};

/// Set-up is cheap next to a run, so it is repeated at least kSetupSamples
/// times and for at least kSetupSeconds (at most kMaxSetupSamples times),
/// and reported as the median. The first few builds of a process run slower
/// while caches warm up; enough samples keep the median on the plateau.
constexpr std::size_t kSetupSamples = 15;
constexpr std::size_t kMaxSetupSamples = 1000;
constexpr double kSetupSeconds = 0.2;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "vrc_perfbench: %s\nusage: vrc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--revision REV]\n",
               problem.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) usage("invalid value for " + flag + ": '" + text + "'");
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = parse_number<double>(flag, value);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// CPUs this process may run on, as nproc counts them.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

/// Peak resident memory of this program image. VmHWM is reset by exec, so
/// unlike getrusage's ru_maxrss it does not include the launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Calls body(run) for run = 0, 1, ... while one more call as long as the last
/// still fits in `seconds`; always at least once.
template <typename Body>
void repeat_within(double seconds, Body&& body) {
  double spent = 0.0;
  double last = 0.0;
  for (std::size_t run = 0; run == 0 || spent + last <= seconds; ++run) {
    const std::uint64_t start = perfbench::now_ns();
    body(run);
    last = static_cast<double>(perfbench::now_ns() - start) * 1e-9;
    spent += last;
  }
}

/// Tracks the correctness of an invocation's runs, all of the same inputs.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> fingerprint;  // of the first run

  /// Checks one run of `expected` jobs: its report, that its fingerprint
  /// matches the invocation's first run and, on the default seed, the
  /// recorded value. A failed run counts all its jobs as failed.
  void check(const std::string& label, const Args& args, const vrc::metrics::RunReport& report,
             std::size_t expected, std::string problem = "") {
    problem += perfbench::check_report(report, expected);
    const std::uint64_t value = perfbench::fingerprint(report);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(value));
    if (!fingerprint) fingerprint = value;
    if (*fingerprint != value) {
      problem += std::string("fingerprint ") + hex + " differs from the first run's; ";
    }
    const auto recorded = perfbench::recorded_fingerprint(args.workload);
    if (args.seed == perfbench::kDefaultSeed && recorded && *recorded != value) {
      problem += std::string("fingerprint ") + hex + " is not the recorded value; ";
    }
    std::printf("%s: fingerprint %s\n", label.c_str(), hex);
    attempted += expected;
    if (problem.empty()) return;
    correct = false;
    failed += expected;
    std::fprintf(stderr, "vrc_perfbench: %s failed its check: %s\n", label.c_str(),
                 problem.c_str());
  }
};

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) * 1e-9;
}

// Set-up is timed on its own, back to back, before the runs: the median of
// many builds is steadier than the few builds the runs need.
std::vector<Metric> run_end_to_end(const Args& args, Outcome& outcome) {
  std::vector<double> setup_s;
  const std::uint64_t setups_start = perfbench::now_ns();
  while (setup_s.size() < kMaxSetupSamples &&
         (setup_s.size() < kSetupSamples || seconds_since(setups_start) < kSetupSeconds)) {
    const std::uint64_t setup_start = perfbench::now_ns();
    const perfbench::Inputs inputs = perfbench::make_inputs(args.workload, args.seed);
    setup_s.push_back(seconds_since(setup_start));
  }
  std::vector<double> jobs_per_s;
  repeat_within(args.seconds, [&](std::size_t run) {
    perfbench::Inputs inputs = perfbench::make_inputs(args.workload, args.seed);
    const perfbench::UntracedRun result = perfbench::run_untraced(inputs);
    const std::string label = "run " + std::to_string(run + 1);
    outcome.check(label, args, result.report, inputs.expected_jobs);
    jobs_per_s.push_back(static_cast<double>(result.report.jobs_completed) / result.run_s);
    std::printf("%s: %.6f s, %zu jobs\n", label.c_str(), result.run_s,
                result.report.jobs_completed);
  });
  return {
      {"jobs_per_s", median(jobs_per_s), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// Each pair runs the same inputs, so every count repeats exactly and the
// times are medians over identical runs.
std::vector<Metric> run_ledger(const Args& args, Outcome& outcome) {
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> overhead;
  perfbench::TracedRun last;
  repeat_within(args.seconds, [&](std::size_t run) {
    const std::string label = "pair " + std::to_string(run + 1);
    perfbench::Inputs inputs = perfbench::make_inputs(args.workload, args.seed);
    const perfbench::UntracedRun plain = perfbench::run_untraced(inputs);
    outcome.check(label + " untraced", args, plain.report, inputs.expected_jobs);

    last = perfbench::run_traced(args.workload, args.seed);
    outcome.check(label + " traced", args, last.report, last.expected_jobs,
                  last.job_identity_violations == 0
                      ? ""
                      : std::to_string(last.job_identity_violations) +
                            " jobs broke t_exe = t_cpu + t_page + t_que + t_mig; ");
    std::printf("%s: untraced %.6f s, traced %.6f s\n", label.c_str(), plain.run_s, last.run_s);
    overhead.push_back(last.run_s - plain.run_s);
    for (const Metric& m : last.layers) samples[m.name].push_back(m.value);
  });

  std::vector<Metric> metrics;
  for (const Metric& m : last.layers) metrics.push_back({m.name, median(samples[m.name]), m.unit});
  metrics.push_back({"trace.overhead_s", median(overhead), "s"});
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << perfbench::trace_json(last, args.workload, args.seed);
    if (!out) std::fprintf(stderr, "vrc_perfbench: cannot write %s\n", args.trace_out.c_str());
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::printf(
      "host {\"nproc\": %d, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"revision\": \"%s\"}\n",
      usable_cpus(), json_escape(cpu_model()).c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, json_escape(args.revision).c_str());
  std::printf("workload %s, seed %llu, %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? "traced" : "untraced");

  Outcome outcome;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace ? run_ledger(args, outcome) : run_end_to_end(args, outcome);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vrc_perfbench: %s\n", error.what());
    return 1;
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (outcome.correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-40s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << m.value << ", \"unit\": \""
         << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return outcome.correct ? 0 : 1;
}
