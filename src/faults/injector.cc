#include "faults/injector.h"

#include "cluster/cluster.h"

namespace vrc::faults {

FaultInjector::FaultInjector(sim::Simulator& sim, cluster::Cluster& cluster,
                             const FaultPlan& plan)
    : sim_(sim),
      cluster_(cluster),
      plan_(plan),
      first_seq_(sim.reserve_sequences(plan.num_nodes())),
      armed_(plan.num_nodes(), sim::kInvalidEventId) {
  for (std::size_t i = 0; i < armed_.size(); ++i) arm_failure(static_cast<NodeId>(i));
}

FaultInjector::~FaultInjector() {
  for (const sim::EventId id : armed_) sim_.cancel(id);
}

void FaultInjector::arm_failure(NodeId node) {
  const std::optional<FaultEntry> window = plan_.next_window(node);
  if (!window) {
    armed_[node] = sim::kInvalidEventId;
    return;
  }
  ++windows_armed_;
  // Every event of this node carries the node's reserved sequence number, so
  // each breaks timestamp ties exactly where the whole schedule, armed up
  // front in (node, time) order, would have put it (DESIGN.md §10.1). Each
  // callback arms the node's next event before applying its transition, as
  // the arrival pump does.
  const std::uint64_t seq = first_seq_ + node;
  const SimTime end = window->at + window->duration;
  armed_[node] = sim_.schedule_at_sequence(window->at, seq, [this, node, seq, end] {
    armed_[node] = sim_.schedule_at_sequence(end, seq, [this, node] {
      arm_failure(node);
      cluster_.recover_node(node);
    });
    cluster_.fail_node(node);
  });
}

}  // namespace vrc::faults
