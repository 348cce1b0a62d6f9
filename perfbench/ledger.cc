#include "ledger.h"

#include <memory>
#include <sstream>

#include "cluster/cluster.h"
#include "core/experiment.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "metrics/collector.h"
#include "metrics/perf_counters.h"
#include "probes.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

UntracedRun run_untraced(Inputs& inputs) {
  UntracedRun run;
  const std::uint64_t start = now_ns();
  run.report =
      vrc::core::run_experiment(*inputs.source, inputs.config, *inputs.policy, inputs.options);
  run.run_s = seconds(now_ns() - start);
  return run;
}

TracedRun run_traced(const std::string& workload, std::uint64_t seed, Size size) {
  using vrc::metrics::PerfCounters;
  TracedRun run;
  const std::uint64_t origin = now_ns();
  auto span = [&](const char* name, const char* parent, std::uint64_t start, std::uint64_t end) {
    run.spans.push_back(Span{name, parent, start - origin, end - origin});
  };

  Inputs inputs = make_inputs(workload, seed, size);
  const std::uint64_t setup_end = now_ns();
  span("setup", "traced_run", origin, setup_end);
  run.expected_jobs = inputs.expected_jobs;

  CountingPolicy policy(*inputs.policy);
  CountingSource source(*inputs.source);
  vrc::metrics::set_perf_capture_enabled(true);
  vrc::metrics::take_perf_aggregate();  // drop anything an earlier capture left

  // The body below mirrors core::run_experiment's streaming overload step for
  // step; the fingerprint comparison against the untraced run checks that it
  // still does.
  const std::uint64_t build_start = now_ns();
  std::uint64_t loop_start = 0;
  std::uint64_t loop_end = 0;
  std::uint64_t policy_loop_ns = 0;
  std::uint64_t pull_loop_ns = 0;
  std::uint64_t report_end = 0;
  std::uint64_t migrations_started = 0;
  {
    vrc::metrics::ScopedPerfCapture capture;
    vrc::sim::Simulator sim;
    vrc::cluster::Cluster cluster(sim, inputs.config, policy);
    vrc::metrics::Collector collector(cluster, inputs.options.collector);
    const vrc::faults::FaultPlan plan = vrc::faults::FaultPlan::materialize(
        inputs.options.fault_entries, inputs.config, inputs.options.max_sim_time);
    std::unique_ptr<vrc::faults::FaultInjector> injector;
    if (!plan.empty()) injector = std::make_unique<vrc::faults::FaultInjector>(sim, cluster, plan);
    cluster.submit_source(source);

    loop_start = now_ns();
    const std::uint64_t policy_before = policy.total_ns();
    const std::uint64_t pull_before = source.pull_ns();
    sim.run_until(inputs.options.max_sim_time);
    loop_end = now_ns();
    policy_loop_ns = policy.total_ns() - policy_before;
    pull_loop_ns = source.pull_ns() - pull_before;

    vrc::metrics::perf_add(&PerfCounters::events_executed, sim.executed_events());
    collector.stop();
    run.report = collector.report(source.name(), policy.name());
    run.report.peak_live_specs = cluster.peak_live_specs();
    run.report.policy_stats = policy.stats();
    run.report.streamed = true;
    migrations_started = cluster.migrations_started();
    report_end = now_ns();
  }
  const std::uint64_t teardown_end = now_ns();
  vrc::metrics::set_perf_capture_enabled(false);
  const PerfCounters perf = vrc::metrics::take_perf_aggregate();

  span("cluster_build", "traced_run", build_start, loop_start);
  span("event_loop", "traced_run", loop_start, loop_end);
  span("report", "traced_run", loop_end, report_end);
  span("teardown", "traced_run", report_end, teardown_end);
  span("traced_run", "", origin, teardown_end);
  run.run_s = seconds(teardown_end - build_start);
  run.job_identity_violations = policy.identity_violations();

  // Completion and pressure hooks are raised from inside Cluster::handle_tick,
  // so the tick wall time includes them; the tick bucket excludes them.
  const HookStat& completed = policy.hook(CountingPolicy::kJobCompleted);
  const HookStat& pressure = policy.hook(CountingPolicy::kNodePressure);
  const double build_s = seconds(loop_start - build_start);
  const double loop_s = seconds(loop_end - loop_start);
  const double report_s = seconds(report_end - loop_end);
  const double tick_s = seconds(perf.tick_wall_ns - completed.ns - pressure.ns);
  const double exchange_s = seconds(perf.exchange_wall_ns);
  const double policy_s = seconds(policy.total_ns());
  const double pull_s = seconds(source.pull_ns());
  // Policy and pull time outside the event loop (attach, the first peek)
  // already sits inside the cluster_build span.
  const double loop_buckets_s =
      tick_s + exchange_s + seconds(policy_loop_ns) + seconds(pull_loop_ns);
  const double residual_s = loop_s - loop_buckets_s;
  const double attributed = build_s + loop_buckets_s + report_s;
  const auto node_ticks = static_cast<double>(perf.node_ticks);
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const auto hook_s = [&](CountingPolicy::Hook h) { return seconds(policy.hook(h).ns); };
  const auto hook_calls = [&](CountingPolicy::Hook h) { return count(policy.hook(h).calls); };

  run.layers = {
      {"sim.events", count(perf.events_executed), "count"},
      {"sim.residual_s", residual_s, "s"},
      {"cluster.build_s", build_s, "s"},
      {"cluster.tick_s", tick_s, "s"},
      {"cluster.tick_rounds", count(perf.tick_rounds), "count"},
      {"cluster.node_ticks", node_ticks, "count"},
      {"cluster.ns_per_node_tick", ratio(tick_s * 1e9, node_ticks), "ns"},
      {"cluster.exchange_s", exchange_s, "s"},
      {"cluster.snapshots_published", count(perf.snapshots_published), "count"},
      {"cluster.immediate_publishes", count(perf.immediate_publishes), "count"},
      {"cluster.index.upserts", count(perf.heap_upserts), "count"},
      {"cluster.index.erases", count(perf.heap_erases), "count"},
      {"cluster.index.best_queries", count(perf.heap_best_queries), "count"},
      {"cluster.index.upserts_per_node_tick", ratio(count(perf.heap_upserts), node_ticks),
       "ratio"},
      {"cluster.pressure_callbacks", count(perf.pressure_callbacks), "count"},
      {"cluster.migrations_started", count(migrations_started), "count"},
      {"core.policy_s", policy_s, "s"},
      {"core.on_job_arrival_s", hook_s(CountingPolicy::kJobArrival), "s"},
      {"core.on_job_arrival_calls", hook_calls(CountingPolicy::kJobArrival), "count"},
      {"core.on_periodic_s", hook_s(CountingPolicy::kPeriodic), "s"},
      {"core.on_periodic_calls", hook_calls(CountingPolicy::kPeriodic), "count"},
      {"core.on_node_pressure_s", hook_s(CountingPolicy::kNodePressure), "s"},
      {"core.on_node_pressure_calls", hook_calls(CountingPolicy::kNodePressure), "count"},
      {"core.on_job_completed_s", hook_s(CountingPolicy::kJobCompleted), "s"},
      {"core.on_job_completed_calls", hook_calls(CountingPolicy::kJobCompleted), "count"},
      {"core.on_node_failed_calls", hook_calls(CountingPolicy::kNodeFailed), "count"},
      {"core.on_node_recovered_calls", hook_calls(CountingPolicy::kNodeRecovered), "count"},
      {"core.on_transfer_failed_calls", hook_calls(CountingPolicy::kTransferFailed), "count"},
      {"core.submission_scans", count(perf.submission_scans), "count"},
      {"core.migration_scans", count(perf.migration_scans), "count"},
      {"core.reservation_scans", count(perf.reservation_scans), "count"},
      {"core.migration_yield", ratio(count(migrations_started), count(perf.migration_scans)),
       "ratio"},
      {"workload.pull_s", pull_s, "s"},
      {"workload.arrivals", count(source.arrivals()), "count"},
      {"workload.swf_lines", count(inputs.swf ? inputs.swf->line_number() : 0), "count"},
      {"workload.swf_skipped", count(inputs.swf ? inputs.swf->skipped() : 0), "count"},
      {"workload.peak_live_specs", count(run.report.peak_live_specs), "count"},
      {"faults.node_crashes", count(run.report.node_crashes), "count"},
      {"faults.crashes_after_finish", count(policy.crashes_after_finish()), "count"},
      {"faults.downtime_node_s", run.report.downtime_node_seconds, "node-s"},
      {"metrics.report_s", report_s, "s"},
      {"metrics.completed_records", count(run.report.jobs.size()), "count"},
      {"ledger.unattributed_share", ratio(run.run_s - attributed, run.run_s), "ratio"},
  };
  return run;
}

std::string trace_json(const TracedRun& run, const std::string& workload, std::uint64_t seed) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"metadata\":{\"workload\":\"" << workload
      << "\",\"seed\":" << seed << ",\"layers\":{";
  for (std::size_t i = 0; i < run.layers.size(); ++i) {
    out << (i ? "," : "") << '"' << run.layers[i].name << "\":" << run.layers[i].value;
  }
  out << "}},\"traceEvents\":[";
  for (std::size_t i = 0; i < run.spans.size(); ++i) {
    const Span& s = run.spans[i];
    out << (i ? "," : "") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"parent\":\"" << s.parent << "\"}}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace perfbench
