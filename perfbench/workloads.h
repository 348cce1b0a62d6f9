// The benchmark's workloads: seeded input builders, the report fingerprint
// and the correctness checks every run must pass.
//
// Each workload is a (cluster config, policy, arrival source, options) tuple
// built from a seed alone. The simulator receives only these generated
// inputs; README.md records why each workload was chosen and which layer it
// stresses.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/policy.h"
#include "core/experiment.h"
#include "metrics/report.h"
#include "sim/rng.h"
#include "workload/arrival_source.h"
#include "workload/swf_source.h"

namespace perfbench {

using vrc::SimTime;

/// Seed whose report fingerprints are recorded (recorded_fingerprint).
inline constexpr std::uint64_t kDefaultSeed = 0;

/// Full is the measured size; tiny runs the same shapes in well under a
/// second, for the benchmark's own tests.
enum class Size { kFull, kTiny };

/// Everything one run consumes. A policy and a source are single-use, so each
/// run gets a fresh Inputs.
struct Inputs {
  vrc::cluster::ClusterConfig config;
  vrc::core::ExperimentOptions options;
  std::unique_ptr<vrc::cluster::SchedulerPolicy> policy;
  std::unique_ptr<vrc::workload::ArrivalSource> source;
  /// The source again when it replays an SWF log (parser counters), else null.
  const vrc::workload::SwfTraceSource* swf = nullptr;
  /// Jobs the source will deliver; every one must complete.
  std::size_t expected_jobs = 0;
};

/// paper-spec5, scale-10k, faults-churn.
const std::vector<std::string>& workload_names();

/// Builds the inputs of `workload` from `seed`. Throws std::invalid_argument
/// on an unknown workload name.
Inputs make_inputs(const std::string& workload, std::uint64_t seed, Size size = Size::kFull);

/// Report fingerprint recorded for (workload, kDefaultSeed, Size::kFull).
std::optional<std::uint64_t> recorded_fingerprint(const std::string& workload);

/// FNV-1a over the report's aggregates: job outcomes, the §5 sums, slowdown
/// quantiles, mechanism counters and the sampled signals. Per-job records are
/// left out so that making them optional keeps the value. Policy stats and the
/// fault counters that keep growing after the last job completes
/// (node_crashes, recoveries, downtime, availability) are left out so that
/// cutting the fault horizon to the run keeps it too.
std::uint64_t fingerprint(const vrc::metrics::RunReport& report);

/// Checks one run's report: every expected job was submitted and completed,
/// and the §5 identity T_exe = T_cpu + T_page + T_que + T_mig holds on the
/// sums. Returns an empty string when the report passes, else the reason.
std::string check_report(const vrc::metrics::RunReport& report, std::size_t expected_jobs);

/// Passes another source's jobs through with their home nodes relabelled by
/// a seeded permutation of [0, nodes). On a homogeneous cluster this gives
/// an equivalent workload under a different node numbering.
class RelabeledSource final : public vrc::workload::ArrivalSource {
 public:
  RelabeledSource(std::unique_ptr<vrc::workload::ArrivalSource> inner, std::uint32_t nodes,
                  std::uint64_t seed);

  std::optional<SimTime> peek_time() override { return inner_->peek_time(); }
  std::optional<vrc::workload::JobSpec> next() override;
  std::optional<std::size_t> total_jobs() const override { return inner_->total_jobs(); }
  const std::string& name() const override { return inner_->name(); }
  vrc::workload::WorkloadGroup group() const override { return inner_->group(); }

 private:
  std::unique_ptr<vrc::workload::ArrivalSource> inner_;
  std::vector<vrc::workload::NodeId> label_;  // old home node -> new home node
};

/// The scale-10k arrival stream, generated lazily: `jobs` one-second,
/// non-paging 50 MB jobs spread over `window` seconds, each homed on one of
/// the first `homes` nodes. Arrival i lands in [i, i + 0.5) * window / jobs,
/// so the stream is sorted without materializing it.
class ScaleSource final : public vrc::workload::ArrivalSource {
 public:
  ScaleSource(std::size_t jobs, std::uint32_t homes, SimTime window, std::uint64_t seed);

  std::optional<SimTime> peek_time() override;
  std::optional<vrc::workload::JobSpec> next() override;
  std::optional<std::size_t> total_jobs() const override { return jobs_; }
  const std::string& name() const override { return name_; }
  vrc::workload::WorkloadGroup group() const override {
    return vrc::workload::WorkloadGroup::kSpec;
  }

 private:
  void draw();  // fills next_time_ / next_home_ for job index next_

  std::string name_ = "scale-stream";
  std::size_t jobs_;
  std::uint32_t homes_;
  SimTime window_;
  vrc::sim::Rng rng_;
  std::size_t next_ = 0;
  SimTime next_time_ = 0.0;
  vrc::workload::NodeId next_home_ = 0;
};

/// An archive-shaped SWF log body synthesized from `seed`: Poisson arrivals
/// at `jobs_per_second` with whole-second submit times, lognormal short
/// runtimes, single-CPU jobs, used memory in every line and about 3%
/// cancelled (status 5) lines. `accepted` receives the number of lines the
/// replay will turn into jobs.
std::string synthesize_swf_log(std::uint64_t seed, std::size_t lines, double jobs_per_second,
                               std::size_t* accepted);

}  // namespace perfbench
