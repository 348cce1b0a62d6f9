#include "probes.h"

#include <cmath>

#include "cluster/cluster.h"

namespace perfbench {

/// Counts one hook call and times it.
class CountingPolicy::Scope {
 public:
  Scope(CountingPolicy& owner, Hook which)
      : owner_(owner), stat_(owner.hooks_[which]), start_(now_ns()) {}
  ~Scope() {
    const std::uint64_t spent = now_ns() - start_;
    ++stat_.calls;
    stat_.ns += spent;
    owner_.total_ns_ += spent;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  CountingPolicy& owner_;
  HookStat& stat_;
  std::uint64_t start_;
};

void CountingPolicy::attach(vrc::cluster::Cluster& cluster) {
  Scope scope(*this, kAttach);
  inner_.attach(cluster);
}

void CountingPolicy::on_job_arrival(vrc::cluster::Cluster& cluster,
                                    vrc::cluster::RunningJob& job) {
  Scope scope(*this, kJobArrival);
  inner_.on_job_arrival(cluster, job);
}

void CountingPolicy::on_job_completed(vrc::cluster::Cluster& cluster,
                                      const vrc::cluster::CompletedJob& record) {
  const double parts = record.t_cpu + record.t_page + record.t_queue + record.t_mig;
  if (!(std::abs(parts - record.wall_clock()) <= kJobIdentityTolerance)) ++identity_violations_;
  Scope scope(*this, kJobCompleted);
  inner_.on_job_completed(cluster, record);
}

void CountingPolicy::on_node_pressure(vrc::cluster::Cluster& cluster,
                                      vrc::cluster::Workstation& node) {
  Scope scope(*this, kNodePressure);
  inner_.on_node_pressure(cluster, node);
}

void CountingPolicy::on_periodic(vrc::cluster::Cluster& cluster) {
  Scope scope(*this, kPeriodic);
  inner_.on_periodic(cluster);
}

void CountingPolicy::on_migration_complete(vrc::cluster::Cluster& cluster,
                                           vrc::cluster::RunningJob& job) {
  Scope scope(*this, kMigrationComplete);
  inner_.on_migration_complete(cluster, job);
}

void CountingPolicy::on_resize_complete(vrc::cluster::Cluster& cluster,
                                        vrc::cluster::RunningJob& job) {
  Scope scope(*this, kResizeComplete);
  inner_.on_resize_complete(cluster, job);
}

void CountingPolicy::on_node_failed(vrc::cluster::Cluster& cluster, vrc::cluster::NodeId node) {
  if (cluster.finished()) ++crashes_after_finish_;
  Scope scope(*this, kNodeFailed);
  inner_.on_node_failed(cluster, node);
}

void CountingPolicy::on_node_recovered(vrc::cluster::Cluster& cluster,
                                       vrc::cluster::NodeId node) {
  Scope scope(*this, kNodeRecovered);
  inner_.on_node_recovered(cluster, node);
}

void CountingPolicy::on_transfer_failed(vrc::cluster::Cluster& cluster,
                                        vrc::cluster::RunningJob& job) {
  Scope scope(*this, kTransferFailed);
  inner_.on_transfer_failed(cluster, job);
}

std::optional<vrc::SimTime> CountingSource::peek_time() {
  const std::uint64_t start = now_ns();
  std::optional<vrc::SimTime> when = inner_.peek_time();
  pull_ns_ += now_ns() - start;
  return when;
}

std::optional<vrc::workload::JobSpec> CountingSource::next() {
  const std::uint64_t start = now_ns();
  std::optional<vrc::workload::JobSpec> job = inner_.next();
  pull_ns_ += now_ns() - start;
  if (job) ++arrivals_;
  return job;
}

}  // namespace perfbench
