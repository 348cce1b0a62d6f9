// Experiment runner: one (workload, cluster, policy) simulation end to end.
//
// Every run is fed the same way: an ArrivalSource pumped through
// Cluster::submit_source by run_experiment. Policies are named by
// PolicySpec. The entry points the examples and bench binaries use:
//
//   auto trace = workload::standard_trace(WorkloadGroup::kSpec, 3);
//   auto report = core::run_policy_on_trace(core::PolicySpec("v-reconf"),
//                                           trace, ClusterConfig::paper_cluster1());
//
//   auto source = workload::TraceSpec::parse("swf:file=log.swf")->make_source(32);
//   auto streamed = core::run_policy_on_source(core::PolicySpec("v-reconf"),
//                                              *source, ClusterConfig::paper_cluster1());
#pragma once

#include <memory>

#include "cluster/cluster.h"
#include "cluster/config.h"
#include "core/baselines.h"
#include "faults/fault_plan.h"
#include "core/g_load_sharing.h"
#include "core/oracle.h"
#include "core/policy_registry.h"
#include "core/v_reconfiguration.h"
#include "metrics/collector.h"
#include "workload/trace.h"

namespace vrc::core {

/// Knobs for one experiment run.
struct ExperimentOptions {
  metrics::CollectorOptions collector;
  /// Safety cap on simulated time; a run that has not drained by then is
  /// reported with the jobs completed so far (jobs_completed <
  /// jobs_submitted flags it).
  SimTime max_sim_time = 500000.0;
  /// Explicit failure windows (scenario `fault` directives). Combined with
  /// the stochastic generator (config.fault_mtbf) by FaultPlan::materialize;
  /// when both are empty no fault machinery is instantiated at all, keeping
  /// fault-free runs bit-identical to pre-fault builds.
  std::vector<faults::FaultEntry> fault_entries;
};

/// Runs `source` (consumed) on a cluster built from `config` under `policy`.
/// Arrivals are pumped through Cluster::submit_source, so live JobSpec
/// storage is O(concurrent jobs) regardless of stream length (DESIGN.md §14);
/// the report's `streamed` / `peak_live_specs` fields record the pump
/// statistics. Wrap a materialized Trace in workload::MaterializedTraceSource.
metrics::RunReport run_experiment(workload::ArrivalSource& source,
                                  const cluster::ClusterConfig& config,
                                  cluster::SchedulerPolicy& policy,
                                  const ExperimentOptions& options = {});

/// Runs `trace` under the policy named by `spec`: wraps the trace in a
/// MaterializedTraceSource and calls run_policy_on_source. Returns
/// std::nullopt and fills *error when the spec names an unknown policy or
/// carries bad params.
std::optional<metrics::RunReport> run_policy_on_trace(const PolicySpec& spec,
                                                      const workload::Trace& trace,
                                                      const cluster::ClusterConfig& config,
                                                      const ExperimentOptions& options = {},
                                                      std::string* error = nullptr);

/// Constructs the policy from the registry and pumps `source` (consumed)
/// through it. Returns std::nullopt and fills *error on an unknown policy or
/// bad params.
std::optional<metrics::RunReport> run_policy_on_source(const PolicySpec& spec,
                                                       workload::ArrivalSource& source,
                                                       const cluster::ClusterConfig& config,
                                                       const ExperimentOptions& options = {},
                                                       std::string* error = nullptr);

/// The paper's testbed for a workload group: cluster 1 for the SPEC group,
/// cluster 2 for the application group.
cluster::ClusterConfig paper_cluster_for(workload::WorkloadGroup group, std::size_t nodes = 32);

/// Side-by-side comparison of two runs of the same trace (baseline first),
/// with the relative reductions the paper quotes.
struct Comparison {
  metrics::RunReport baseline;
  metrics::RunReport ours;

  double execution_reduction() const;
  double queue_reduction() const;
  double slowdown_reduction() const;
  double idle_memory_reduction() const;
  double balance_skew_reduction() const;
};

/// Runs the same trace under two policies and returns the comparison.
/// Returns std::nullopt and fills *error when either spec is unknown or
/// carries bad params; both specs resolve before either run starts.
std::optional<Comparison> compare_policies(const PolicySpec& baseline, const PolicySpec& ours,
                                           const workload::Trace& trace,
                                           const cluster::ClusterConfig& config,
                                           const ExperimentOptions& options = {},
                                           std::string* error = nullptr);

}  // namespace vrc::core
