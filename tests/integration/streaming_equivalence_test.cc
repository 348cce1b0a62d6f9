// Equivalence of the ways a job can enter a cluster (DESIGN.md §14).
//
// Every run is pumped through Cluster::submit_source; what may differ is
// the source. Generating jobs on the fly (GeneratedStreamSource) must
// produce the bit-identical run to building the trace up front and pumping
// it through a MaterializedTraceSource, and injecting the same trace job by
// job through Cluster::submit_job must match the pump too. These tests hold
// the shared FNV-1a report fingerprint (tests/common/report_fingerprint.h)
// equal across those paths for all five standard shapes of both workload
// groups, and bound the pump's live JobSpec storage on a million-job
// stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>

#include "../common/report_fingerprint.h"
#include "cluster/cluster.h"
#include "core/experiment.h"
#include "metrics/collector.h"
#include "metrics/report.h"
#include "sim/simulator.h"
#include "workload/arrival_source.h"
#include "workload/trace_generator.h"
#include "workload/trace_spec.h"

namespace vrc {
namespace {

using testutil::fingerprint;

// Every standard shape of both groups, generated on the fly and built up
// front, must land on the same fingerprint: if the generated source ever
// reorders arrivals, drops a job, or perturbs the RNG draw order, one of
// these ten pairs diverges.
TEST(StreamingEquivalenceTest, AllStandardTracesMatchMaterialized) {
  const core::PolicySpec policy("v-reconf");
  for (workload::WorkloadGroup group :
       {workload::WorkloadGroup::kSpec, workload::WorkloadGroup::kApps}) {
    for (int index = 1; index <= 5; ++index) {
      const workload::TraceSpec spec = workload::TraceSpec::standard(group, index);
      const auto config = core::paper_cluster_for(group, 32);

      const workload::Trace trace = spec.build(32);
      const auto materialized = core::run_policy_on_trace(policy, trace, config);
      ASSERT_TRUE(materialized.has_value()) << trace.name();

      std::unique_ptr<workload::ArrivalSource> source = spec.make_source(32);
      const auto streamed = core::run_policy_on_source(policy, *source, config);
      ASSERT_TRUE(streamed.has_value()) << trace.name();

      EXPECT_EQ(fingerprint(*streamed), fingerprint(*materialized))
          << trace.name() << ": generated run diverged from materialized";
      EXPECT_EQ(streamed->jobs_submitted, trace.size());
      // The pump never holds more live specs than jobs in flight, which is
      // far below the trace size on these shapes.
      EXPECT_GT(streamed->peak_live_specs, 0u) << trace.name();
      EXPECT_LE(streamed->peak_live_specs, trace.size()) << trace.name();
    }
  }
}

// Injecting a trace job by job through Cluster::submit_job (every arrival
// scheduled up front) must match pumping the same trace through a
// MaterializedTraceSource (one arrival outstanding at a time): both entry
// points feed the cluster the same arrivals in the same event order.
TEST(StreamingEquivalenceTest, SubmitJobInjectionMatchesMaterializedPump) {
  const workload::Trace trace = workload::standard_trace(workload::WorkloadGroup::kSpec, 2, 32);
  const auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, 32);
  const core::PolicySpec spec("g-loadsharing");
  const core::ExperimentOptions options;

  const auto pumped = core::run_policy_on_trace(spec, trace, config, options);
  ASSERT_TRUE(pumped.has_value());

  // run_experiment's body, with submit_job in place of submit_source.
  const auto policy = core::make_policy(spec, nullptr);
  ASSERT_NE(policy, nullptr);
  sim::Simulator sim;
  cluster::Cluster cluster(sim, config, *policy);
  metrics::Collector collector(cluster, options.collector);
  for (const workload::JobSpec& job : trace.jobs()) cluster.submit_job(job);
  sim.run_until(options.max_sim_time);
  collector.stop();
  const metrics::RunReport injected = collector.report(trace.name(), policy->name());

  EXPECT_EQ(injected.jobs_completed, trace.size());
  EXPECT_EQ(fingerprint(injected), fingerprint(*pumped));
}

// Cheap deterministic firehose: `total` short uniform jobs arriving at a
// rate the cluster can absorb, so only a handful are ever in flight. No RNG
// and no per-job allocations beyond the spec itself — the point is to make
// a million-job stream affordable in a unit test.
class UniformFirehose final : public workload::ArrivalSource {
 public:
  UniformFirehose(std::uint64_t total, std::uint32_t nodes, SimTime window)
      : total_(total), nodes_(nodes), window_(window) {}

  std::optional<workload::JobSpec> next() override {
    if (emitted_ == total_) return std::nullopt;
    workload::JobSpec spec;
    spec.id = static_cast<workload::JobId>(emitted_ + 1);
    spec.program = "uniform";
    spec.submit_time = arrival_time(emitted_);
    spec.home_node = static_cast<workload::NodeId>(emitted_ % nodes_);
    spec.cpu_seconds = 1.0;
    spec.touch_rate = 0.0;  // no paging: exercise the pump, not fault service
    spec.memory = workload::MemoryProfile::constant(megabytes(50));
    ++emitted_;
    return spec;
  }

  std::optional<SimTime> peek_time() override {
    if (emitted_ == total_) return std::nullopt;
    return arrival_time(emitted_);
  }

  const std::string& name() const override { return name_; }
  workload::WorkloadGroup group() const override { return workload::WorkloadGroup::kSpec; }
  std::optional<std::size_t> total_jobs() const override { return total_; }

 private:
  SimTime arrival_time(std::uint64_t index) const {
    return window_ * static_cast<double>(index) / static_cast<double>(total_);
  }

  std::uint64_t total_;
  std::uint32_t nodes_;
  SimTime window_;
  std::uint64_t emitted_ = 0;
  std::string name_ = "uniform-firehose";
};

// The headline memory claim: a million-job stream completes with live
// JobSpec storage bounded by the number of jobs in flight, not the stream
// length. Mirrors BM_EndToEndLargeRun's shape (short uniform jobs spread
// across many homes) so service keeps pace with arrivals and the free-list
// recycles nearly every slot.
TEST(StreamingEquivalenceTest, MillionJobStreamBoundsLiveSpecStorage) {
  constexpr std::uint64_t kJobs = 1'000'000;
  constexpr std::uint32_t kNodes = 2048;
  // ~488 arrivals/s across 2048 nodes at 1 cpu-second each: per-node
  // utilization ~24%, so the in-flight population stays small.
  UniformFirehose source(kJobs, kNodes, /*window=*/2048.0);

  auto config = core::paper_cluster_for(workload::WorkloadGroup::kSpec, kNodes);
  config.tick = 0.1;                  // coarse ticks: measure the pump, not accounting
  config.load_exchange_period = 5.0;  // a 2k-node board refresh per second is wasted work

  core::ExperimentOptions options;
  options.max_sim_time = 50000.0;
  options.collector.sampling_intervals = {60.0};

  const auto report =
      core::run_policy_on_source(core::PolicySpec("local-only"), source, config, options);
  ASSERT_TRUE(report.has_value());

  EXPECT_TRUE(report->streamed);
  EXPECT_EQ(report->jobs_submitted, kJobs);
  EXPECT_EQ(report->jobs_completed, kJobs);
  EXPECT_GT(report->peak_live_specs, 0u);
  // The bound that makes streaming worthwhile: peak live storage is a tiny
  // fraction of the stream (in practice a few thousand specs, ~0.5%). A
  // materialized run would hold all 1M specs for the whole run.
  EXPECT_LT(report->peak_live_specs, kJobs / 100)
      << "pump retained " << report->peak_live_specs << " live specs";
}

}  // namespace
}  // namespace vrc
