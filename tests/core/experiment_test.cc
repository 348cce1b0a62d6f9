#include "core/experiment.h"

#include <string>
#include <utility>

#include "workload/trace_generator.h"

#include <gtest/gtest.h>

namespace vrc::core {
namespace {

workload::Trace tiny_trace(std::size_t jobs, workload::WorkloadGroup group) {
  workload::TraceParams params;
  params.name = "tiny";
  params.group = group;
  params.num_jobs = jobs;
  params.duration = 600.0;
  params.num_nodes = 4;
  params.seed = 99;
  return workload::generate_trace(params);
}

TEST(ExperimentTest, PolicyNamesRoundTrip) {
  const std::pair<const char*, const char*> names[] = {{"g-loadsharing", "G-Loadsharing"},
                                                       {"v-reconf", "V-Reconfiguration"},
                                                       {"local-only", "Local-Only"},
                                                       {"suspension", "Job-Suspension"}};
  for (const auto& [spec, display] : names) {
    auto policy = make_policy(PolicySpec(spec), nullptr);
    ASSERT_NE(policy, nullptr) << spec;
    EXPECT_STREQ(policy->name(), display);
  }
}

TEST(ExperimentTest, PaperClusterSelection) {
  const auto c1 = paper_cluster_for(workload::WorkloadGroup::kSpec);
  EXPECT_EQ(c1.num_nodes(), 32u);
  EXPECT_EQ(c1.nodes[0].memory, megabytes(384));
  EXPECT_EQ(c1.reference_mhz, 400.0);
  const auto c2 = paper_cluster_for(workload::WorkloadGroup::kApps, 8);
  EXPECT_EQ(c2.num_nodes(), 8u);
  EXPECT_EQ(c2.nodes[0].memory, megabytes(128));
  EXPECT_EQ(c2.reference_mhz, 233.0);
}

TEST(ExperimentTest, RunCompletesAllJobs) {
  const auto trace = tiny_trace(20, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const auto report = run_policy_on_trace(PolicySpec("g-loadsharing"), trace, config).value();
  EXPECT_EQ(report.jobs_submitted, 20u);
  EXPECT_EQ(report.jobs_completed, 20u);
  EXPECT_EQ(report.policy, "G-Loadsharing");
  EXPECT_EQ(report.trace, "tiny");
  EXPECT_GT(report.total_execution, 0.0);
  EXPECT_GT(report.avg_slowdown, 0.99);
  EXPECT_EQ(report.jobs.size(), 20u);
}

TEST(ExperimentTest, ReportBreakdownSumsToExecution) {
  const auto trace = tiny_trace(25, workload::WorkloadGroup::kApps);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kApps, 4);
  const auto report = run_policy_on_trace(PolicySpec("v-reconf"), trace, config).value();
  EXPECT_NEAR(report.total_cpu + report.total_page + report.total_queue + report.total_migration,
              report.total_execution, 0.05 * static_cast<double>(report.jobs_completed));
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  const auto trace = tiny_trace(15, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const auto a = run_policy_on_trace(PolicySpec("v-reconf"), trace, config).value();
  const auto b = run_policy_on_trace(PolicySpec("v-reconf"), trace, config).value();
  EXPECT_EQ(a.total_execution, b.total_execution);
  EXPECT_EQ(a.avg_slowdown, b.avg_slowdown);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(ExperimentTest, MaxSimTimeCapsRun) {
  const auto trace = tiny_trace(30, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 1);
  ExperimentOptions options;
  options.max_sim_time = 5.0;  // far too short
  const auto report = run_policy_on_trace(PolicySpec("local-only"), trace, config, options).value();
  EXPECT_LT(report.jobs_completed, report.jobs_submitted);
}

TEST(ExperimentTest, ComparisonComputesReductions) {
  const auto trace = tiny_trace(30, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const auto comparison =
      compare_policies(PolicySpec("local-only"), PolicySpec("g-loadsharing"), trace, config)
          .value();
  EXPECT_EQ(comparison.baseline.policy, "Local-Only");
  EXPECT_EQ(comparison.ours.policy, "G-Loadsharing");
  const double expected = metrics::reduction(comparison.baseline.total_execution,
                                             comparison.ours.total_execution);
  EXPECT_DOUBLE_EQ(comparison.execution_reduction(), expected);
}

TEST(ExperimentTest, ComparisonReportsUnknownPolicyLikeRunPolicyOnSource) {
  const auto trace = tiny_trace(5, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  std::string direct;
  workload::MaterializedTraceSource source(trace);
  EXPECT_FALSE(run_policy_on_source(PolicySpec("no-such-policy"), source, config, {}, &direct));
  ASSERT_FALSE(direct.empty());
  for (const bool baseline_unknown : {true, false}) {
    std::string error;
    const PolicySpec known("g-loadsharing");
    const PolicySpec unknown("no-such-policy");
    const auto comparison = compare_policies(baseline_unknown ? unknown : known,
                                             baseline_unknown ? known : unknown, trace, config,
                                             {}, &error);
    EXPECT_FALSE(comparison.has_value());
    EXPECT_EQ(error, direct);
  }
}

TEST(ExperimentTest, MultipleSamplingIntervalsReported) {
  const auto trace = tiny_trace(20, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  ExperimentOptions options;
  options.collector.sampling_intervals = {1.0, 10.0, 30.0};
  const auto report =
      run_policy_on_trace(PolicySpec("g-loadsharing"), trace, config, options).value();
  ASSERT_EQ(report.idle_memory_mb.size(), 3u);
  ASSERT_EQ(report.balance_skew.size(), 3u);
  EXPECT_EQ(report.idle_memory_mb[0].interval, 1.0);
  EXPECT_EQ(report.idle_memory_mb[2].interval, 30.0);
  // The paper's insensitivity claim: averages close across intervals.
  EXPECT_NEAR(report.idle_memory_mb[1].average, report.idle_memory_mb[0].average,
              0.15 * report.idle_memory_mb[0].average + 1.0);
}

TEST(ExperimentTest, PolicyStatsLandInReport) {
  const auto trace = tiny_trace(20, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 4);
  const auto report = run_policy_on_trace(PolicySpec("v-reconf"), trace, config).value();
  EXPECT_FALSE(report.policy_stats.empty());
}

// Regression: attach() must reset every statistic, so a policy object
// reused across experiments (safe reuse under the sweep runner) reports
// per-run counters instead of carrying totals over.
TEST(ExperimentTest, ReusedPolicyObjectDoesNotCarryStatsOver) {
  const auto trace = tiny_trace(40, workload::WorkloadGroup::kSpec);
  const auto config = paper_cluster_for(workload::WorkloadGroup::kSpec, 2);
  for (const char* name : {"g-loadsharing", "v-reconf", "suspension"}) {
    auto policy = make_policy(PolicySpec(name), nullptr);
    workload::MaterializedTraceSource first_source(trace);
    workload::MaterializedTraceSource second_source(trace);
    const auto first = run_experiment(first_source, config, *policy);
    const auto second = run_experiment(second_source, config, *policy);
    ASSERT_EQ(first.policy_stats.size(), second.policy_stats.size());
    for (std::size_t i = 0; i < first.policy_stats.size(); ++i) {
      EXPECT_EQ(first.policy_stats[i].first, second.policy_stats[i].first);
      EXPECT_DOUBLE_EQ(first.policy_stats[i].second, second.policy_stats[i].second)
          << name << " stat " << first.policy_stats[i].first
          << " accumulated across runs";
    }
    EXPECT_EQ(first.total_execution, second.total_execution) << name;
  }
}

}  // namespace
}  // namespace vrc::core
