#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.h"
#include "workload/trace_generator.h"

namespace perfbench {

namespace {

using vrc::workload::JobSpec;
using vrc::workload::WorkloadGroup;

// Per-workload salts keep the three seeded streams independent of each other.
constexpr std::uint64_t kRelabelSalt = 0x1ABE100000000001ull;
constexpr std::uint64_t kScaleSalt = 0x5CA1E10000000001ull;
constexpr std::uint64_t kSwfSalt = 0x5F0000000000C0DEull;
constexpr std::uint64_t kFaultSalt = 0xFA17000000000001ull;

std::unique_ptr<vrc::cluster::SchedulerPolicy> policy_named(const std::string& name) {
  std::string error;
  auto policy = vrc::core::make_policy(vrc::core::PolicySpec(name), &error);
  if (!policy) throw std::invalid_argument("perfbench: policy " + name + ": " + error);
  return policy;
}

// The paper's regime: cluster 1, SPEC trace 5 (777 jobs), V-Reconfiguration.
// Tick integration dominates the run. The trace itself is always the paper's
// trace 5; the seed relabels the homogeneous nodes it is submitted to. A
// regenerated trace 5 would not do: its simulated length, and so the host
// time of a run, varies more than twofold from seed to seed.
Inputs paper_spec5(std::uint64_t seed, Size size) {
  const vrc::workload::StandardTraceShape shape = vrc::workload::standard_trace_shape(5);
  vrc::workload::TraceParams params;
  params.name = "SPEC-Trace-5";
  params.group = WorkloadGroup::kSpec;
  params.sigma = shape.sigma;
  params.mu = shape.mu;
  params.num_jobs = size == Size::kFull ? shape.num_jobs : 60;
  params.duration = size == Size::kFull ? shape.duration : 300.0;
  params.num_nodes = size == Size::kFull ? 32 : 8;
  params.seed = vrc::workload::standard_trace_seed(WorkloadGroup::kSpec, 5);

  Inputs inputs;
  inputs.config = vrc::core::paper_cluster_for(WorkloadGroup::kSpec, params.num_nodes);
  inputs.policy = policy_named("v-reconf");
  inputs.expected_jobs = params.num_jobs;
  const std::uint32_t nodes = params.num_nodes;
  inputs.source = std::make_unique<RelabeledSource>(
      std::make_unique<vrc::workload::GeneratedStreamSource>(std::move(params)), nodes,
      seed ^ kRelabelSalt);
  return inputs;
}

// The BM_EndToEndLargeRun/10240 shape: 100 one-second jobs per node, homed on
// the first n/32 nodes, so nearly every placement goes through the board's
// indexed submission scan. Placement and memory bound.
Inputs scale_10k(std::uint64_t seed, Size size) {
  const std::size_t nodes = size == Size::kFull ? 10240 : 256;
  Inputs inputs;
  inputs.config = vrc::core::paper_cluster_for(WorkloadGroup::kSpec, nodes);
  inputs.config.tick = 0.1;
  inputs.config.load_exchange_period = 5.0;
  inputs.policy = policy_named("g-loadsharing");
  inputs.expected_jobs = nodes * 100;
  inputs.source = std::make_unique<ScaleSource>(
      inputs.expected_jobs, static_cast<std::uint32_t>(nodes / 32), 200.0, seed ^ kScaleSalt);
  return inputs;
}

// Archive replay under stochastic node faults, the only workload that drives
// src/faults and the SWF parser. It keeps the default max_sim_time on
// purpose: FaultPlan draws failure windows up to that horizon and the run
// keeps firing them after its last job, a known cost this workload shows.
Inputs faults_churn(std::uint64_t seed, Size size) {
  const std::uint32_t nodes = size == Size::kFull ? 1024 : 64;
  const std::size_t lines = size == Size::kFull ? 103000 : 2000;
  const double rate = size == Size::kFull ? 50.0 : 2.0;
  std::size_t accepted = 0;
  std::string log = synthesize_swf_log(seed ^ kSwfSalt, lines, rate, &accepted);

  Inputs inputs;
  inputs.config = vrc::core::paper_cluster_for(WorkloadGroup::kSpec, nodes);
  inputs.config.tick = 0.1;
  inputs.config.fault_mtbf = 1000.0;
  inputs.config.fault_mttr = 60.0;
  inputs.config.fault_restart = "resubmit";
  inputs.config.fault_seed = vrc::sim::Rng(seed ^ kFaultSalt).next_u64() | 1u;
  inputs.policy = policy_named("v-reconf");
  inputs.expected_jobs = accepted;
  vrc::workload::SwfOptions swf;
  swf.num_nodes = nodes;
  auto source = std::make_unique<vrc::workload::SwfTraceSource>(
      "churn", std::istringstream(std::move(log)), swf);
  inputs.swf = source.get();
  inputs.source = std::move(source);
  return inputs;
}

class Fnv1a {
 public:
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void mix(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper-spec5", "scale-10k", "faults-churn"};
  return names;
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed, Size size) {
  if (workload == "paper-spec5") return paper_spec5(seed, size);
  if (workload == "scale-10k") return scale_10k(seed, size);
  if (workload == "faults-churn") return faults_churn(seed, size);
  throw std::invalid_argument("perfbench: unknown workload '" + workload + "'");
}

std::optional<std::uint64_t> recorded_fingerprint(const std::string& workload) {
  if (workload == "paper-spec5") return 0x960ed4813ee8bbf2ull;
  if (workload == "scale-10k") return 0x9d39a3f78213a480ull;
  if (workload == "faults-churn") return 0x8ca2a273411023c0ull;
  return std::nullopt;
}

std::uint64_t fingerprint(const vrc::metrics::RunReport& report) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(report.jobs_submitted));
  h.mix(static_cast<std::uint64_t>(report.jobs_completed));
  for (const double value :
       {report.makespan, report.total_execution, report.total_cpu, report.total_page,
        report.total_queue, report.total_migration, report.avg_slowdown, report.median_slowdown,
        report.p95_slowdown, report.max_slowdown, report.avg_idle_memory_mb,
        report.avg_balance_skew, report.total_faults, report.work_lost_cpu_seconds,
        report.width_time_product}) {
    h.mix(value);
  }
  for (const std::uint64_t value :
       {report.migrations, report.remote_submits, report.local_placements, report.jobs_killed,
        report.job_restarts, report.transfer_failures, report.malleable_jobs, report.resizes,
        report.resizes_aborted}) {
    h.mix(value);
  }
  return h.value();
}

std::string check_report(const vrc::metrics::RunReport& report, std::size_t expected_jobs) {
  std::ostringstream why;
  if (report.jobs_submitted != expected_jobs) {
    why << "submitted " << report.jobs_submitted << " jobs, expected " << expected_jobs << "; ";
  }
  if (report.jobs_completed != report.jobs_submitted) {
    why << "completed " << report.jobs_completed << " of " << report.jobs_submitted << " jobs; ";
  }
  const double parts =
      report.total_cpu + report.total_page + report.total_queue + report.total_migration;
  if (!(std::abs(report.total_execution - parts) <= 1e-6 * std::max(1.0, report.total_execution))) {
    why.precision(17);
    why << "T_exe " << report.total_execution << " != T_cpu+T_page+T_que+T_mig " << parts << "; ";
  }
  return why.str();
}

RelabeledSource::RelabeledSource(std::unique_ptr<vrc::workload::ArrivalSource> inner,
                                 std::uint32_t nodes, std::uint64_t seed)
    : inner_(std::move(inner)), label_(nodes) {
  for (std::uint32_t i = 0; i < nodes; ++i) label_[i] = i;
  vrc::sim::Rng rng(seed);
  for (std::uint32_t i = nodes; i > 1; --i) {
    std::swap(label_[i - 1], label_[rng.uniform_index(i)]);
  }
}

std::optional<JobSpec> RelabeledSource::next() {
  std::optional<JobSpec> job = inner_->next();
  if (job) job->home_node = label_[job->home_node % label_.size()];
  return job;
}

ScaleSource::ScaleSource(std::size_t jobs, std::uint32_t homes, SimTime window,
                         std::uint64_t seed)
    : jobs_(jobs), homes_(homes), window_(window), rng_(seed) {
  draw();
}

void ScaleSource::draw() {
  if (next_ >= jobs_) return;
  next_time_ = window_ * (static_cast<double>(next_) + 0.5 * rng_.uniform()) /
               static_cast<double>(jobs_);
  next_home_ = static_cast<vrc::workload::NodeId>(rng_.uniform_index(homes_));
}

std::optional<SimTime> ScaleSource::peek_time() {
  if (next_ >= jobs_) return std::nullopt;
  return next_time_;
}

std::optional<JobSpec> ScaleSource::next() {
  if (next_ >= jobs_) return std::nullopt;
  JobSpec spec;
  spec.id = static_cast<vrc::workload::JobId>(next_ + 1);
  spec.program = "uniform";
  spec.submit_time = next_time_;
  spec.home_node = next_home_;
  spec.cpu_seconds = 1.0;
  spec.touch_rate = 0.0;  // no paging: measure scheduling, not fault service
  spec.memory = vrc::workload::MemoryProfile::constant(vrc::megabytes(50));
  ++next_;
  draw();
  return spec;
}

std::string synthesize_swf_log(std::uint64_t seed, std::size_t lines, double jobs_per_second,
                               std::size_t* accepted) {
  vrc::sim::Rng rng(seed);
  std::string log = "; Synthetic archive-shaped log (perfbench faults-churn)\n";
  log += "; MaxProcs: 1\n; UnixStartTime: 0\n";
  log.reserve(log.size() + lines * 64);
  double clock = 0.0;
  std::size_t kept = 0;
  char line[160];
  for (std::size_t job = 1; job <= lines; ++job) {
    clock += rng.exponential(jobs_per_second);
    const long submit = static_cast<long>(clock);
    const long run = std::lround(std::clamp(rng.lognormal(std::log(12.0), 0.8), 1.0, 300.0));
    const long mem_kb = static_cast<long>(16 + rng.uniform_index(112)) * 1024;
    const long exe = static_cast<long>(1 + rng.uniform_index(12));
    const int status = rng.uniform() < 0.03 ? 5 : 1;
    if (status == 1) ++kept;
    // job submit wait run alloc avg_cpu used_mem req_procs req_time req_mem
    // status user group exe queue partition preceding think
    std::snprintf(line, sizeof(line), "%zu %ld 0 %ld 1 %ld %ld 1 %ld %ld %d %ld 1 %ld 1 -1 -1 -1\n",
                  job, submit, run, run, mem_kb, 2 * run, mem_kb, status, exe % 7, exe);
    log += line;
  }
  *accepted = kept;
  return log;
}

}  // namespace perfbench
