// Fault injector: drives a Cluster through a FaultPlan.
//
// Pure event plumbing — the state transitions (killing jobs, dropping
// reservations, board updates) live in Cluster::fail_node / recover_node.
// Construct one next to the Cluster before running the simulator; runs
// without faults simply never construct an injector, which keeps the
// no-faults event stream bit-identical to builds predating this subsystem.
#pragma once

#include <vector>

#include "faults/fault_plan.h"
#include "sim/simulator.h"

namespace vrc::cluster {
class Cluster;
}

namespace vrc::faults {

/// Keeps one armed event per node: the fail event at the start of the node's
/// next window, then its recover event at the window's end, then the fail
/// event of the window after, drawn from its own copy of the plan. Event-queue
/// population and memory are O(nodes) however many windows the run spans.
/// Cancels its armed events on destruction, so tearing down an injector
/// mid-run never leaves a callback aimed at a dead cluster.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, cluster::Cluster& cluster, const FaultPlan& plan);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Windows whose fail event has been armed so far.
  std::size_t windows_scheduled() const { return windows_armed_; }

 private:
  /// Arms the fail event of `node`'s next window, if it has one.
  void arm_failure(NodeId node);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  FaultPlan plan_;                   // own cursor over the per-node streams
  std::uint64_t first_seq_ = 0;      // node i's events all tie-break as first_seq_ + i
  std::vector<sim::EventId> armed_;  // per node: the pending event, if any
  std::size_t windows_armed_ = 0;
};

}  // namespace vrc::faults
