// Untraced and traced runs of one workload, and the per-layer ledger the
// traced run produces.
//
// The untraced run is the public entry point as users call it:
// core::run_experiment(ArrivalSource&, ...). The traced run assembles the
// same run from the public pieces run_experiment uses (Simulator, Cluster,
// Collector, FaultPlan/FaultInjector) so it can place spans around cluster
// build, event loop and report, wraps the policy and the source in the
// counting decorators of probes.h, and turns on the library's perf counters.
// Both runs of the same inputs must produce the same report fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/report.h"
#include "workloads.h"

namespace perfbench {

/// One named measurement.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A coarse phase of the traced run, in nanoseconds since the run started.
struct Span {
  std::string name;
  std::string parent;  // empty for the root span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct UntracedRun {
  vrc::metrics::RunReport report;
  double run_s = 0.0;  // host seconds of the run_experiment call
};

/// Runs `inputs` (consumed) through core::run_experiment.
UntracedRun run_untraced(Inputs& inputs);

struct TracedRun {
  vrc::metrics::RunReport report;
  std::size_t expected_jobs = 0;
  /// Host seconds from cluster build through teardown: the part of the
  /// traced run that corresponds to one run_experiment call.
  double run_s = 0.0;
  std::vector<Span> spans;
  /// Every per-layer metric except trace.overhead_s, which needs the paired
  /// untraced run.
  std::vector<Metric> layers;
  /// Jobs whose own §5 identity failed (CountingPolicy::identity_violations).
  std::uint64_t job_identity_violations = 0;
};

/// Builds the inputs of (workload, seed, size) inside a "setup" span, then
/// runs them traced.
TracedRun run_traced(const std::string& workload, std::uint64_t seed, Size size = Size::kFull);

/// The spans and layer metrics of a traced run as a Chrome trace-event JSON
/// document (opens in Perfetto or chrome://tracing).
std::string trace_json(const TracedRun& run, const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
