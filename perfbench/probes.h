// Forwarding decorators that measure the policy and arrival layers from
// outside: every call is passed straight through to the wrapped object, and
// the decorator records its count and host time. Wrapping changes no
// decision, so a traced run reports the same results as an untraced one.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/policy.h"
#include "workload/arrival_source.h"

namespace perfbench {

/// Calls into one hook and the host time they took.
struct HookStat {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// SchedulerPolicy decorator counting and timing every hook. The cluster never
/// raises a hook from inside another, so hook times do not overlap. It also
/// checks the §5 identity on every completed job and counts node failures
/// that arrive after the cluster finished its last job.
class CountingPolicy final : public vrc::cluster::SchedulerPolicy {
 public:
  enum Hook {
    kAttach,
    kJobArrival,
    kJobCompleted,
    kNodePressure,
    kPeriodic,
    kMigrationComplete,
    kResizeComplete,
    kNodeFailed,
    kNodeRecovered,
    kTransferFailed,
    kHookCount,
  };

  /// Per-job tolerance of the §5 identity: accounting is integrated per tick.
  static constexpr double kJobIdentityTolerance = 0.05;

  explicit CountingPolicy(vrc::cluster::SchedulerPolicy& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  void attach(vrc::cluster::Cluster& cluster) override;
  void on_job_arrival(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override;
  void on_job_completed(vrc::cluster::Cluster& cluster,
                        const vrc::cluster::CompletedJob& record) override;
  void on_node_pressure(vrc::cluster::Cluster& cluster, vrc::cluster::Workstation& node) override;
  void on_periodic(vrc::cluster::Cluster& cluster) override;
  void on_migration_complete(vrc::cluster::Cluster& cluster,
                             vrc::cluster::RunningJob& job) override;
  void on_resize_complete(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override;
  void on_node_failed(vrc::cluster::Cluster& cluster, vrc::cluster::NodeId node) override;
  void on_node_recovered(vrc::cluster::Cluster& cluster, vrc::cluster::NodeId node) override;
  void on_transfer_failed(vrc::cluster::Cluster& cluster, vrc::cluster::RunningJob& job) override;
  std::vector<std::pair<std::string, double>> stats() const override { return inner_.stats(); }

  const HookStat& hook(Hook which) const { return hooks_[which]; }
  /// Host time inside the policy, all hooks together.
  std::uint64_t total_ns() const { return total_ns_; }
  /// Completed jobs whose t_cpu + t_page + t_que + t_mig missed their wall
  /// clock by more than kJobIdentityTolerance.
  std::uint64_t identity_violations() const { return identity_violations_; }
  /// on_node_failed calls made after the cluster had finished.
  std::uint64_t crashes_after_finish() const { return crashes_after_finish_; }

 private:
  class Scope;

  vrc::cluster::SchedulerPolicy& inner_;
  std::array<HookStat, kHookCount> hooks_{};
  std::uint64_t total_ns_ = 0;
  std::uint64_t identity_violations_ = 0;
  std::uint64_t crashes_after_finish_ = 0;
};

/// ArrivalSource decorator counting pulled jobs and timing every pull.
class CountingSource final : public vrc::workload::ArrivalSource {
 public:
  explicit CountingSource(vrc::workload::ArrivalSource& inner) : inner_(inner) {}

  std::optional<vrc::SimTime> peek_time() override;
  std::optional<vrc::workload::JobSpec> next() override;
  std::optional<std::size_t> total_jobs() const override { return inner_.total_jobs(); }
  const std::string& name() const override { return inner_.name(); }
  vrc::workload::WorkloadGroup group() const override { return inner_.group(); }

  /// Host time inside peek_time() and next().
  std::uint64_t pull_ns() const { return pull_ns_; }
  /// Jobs next() handed out.
  std::uint64_t arrivals() const { return arrivals_; }

 private:
  vrc::workload::ArrivalSource& inner_;
  std::uint64_t pull_ns_ = 0;
  std::uint64_t arrivals_ = 0;
};

/// Monotonic host nanoseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace perfbench
