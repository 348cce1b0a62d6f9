#include "faults/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "sim/rng.h"

namespace vrc::faults {

namespace {

/// Mixes the cluster seed into a distinct stream id for the fault schedule,
/// so faults and workload randomness never share a stream even when
/// fault_seed is left at its derive-from-seed default.
constexpr std::uint64_t kFaultStreamSalt = 0xFA17FA17FA17FA17ULL;

bool windows_overlap(const FaultEntry& a, const FaultEntry& b) {
  return a.node == b.node && a.at < b.at + b.duration && b.at < a.at + a.duration;
}

}  // namespace

bool FaultPlan::validate(const std::vector<FaultEntry>& entries, std::size_t num_nodes,
                         std::string* error) {
  for (const FaultEntry& entry : entries) {
    std::ostringstream message;
    if (static_cast<std::size_t>(entry.node) >= num_nodes) {
      message << "fault: node " << entry.node << " out of range (cluster has " << num_nodes
              << " nodes)";
    } else if (entry.at < 0.0) {
      message << "fault: node " << entry.node << " crash time " << entry.at
              << " must be >= 0";
    } else if (entry.duration <= 0.0) {
      message << "fault: node " << entry.node << " duration " << entry.duration
              << " must be > 0";
    } else {
      continue;
    }
    if (error != nullptr) *error = message.str();
    return false;
  }
  // Overlap check per node among the explicit windows: two overlapping
  // scenario entries are almost certainly a typo, so reject instead of
  // silently merging.
  std::vector<FaultEntry> sorted = entries;
  std::sort(sorted.begin(), sorted.end(), [](const FaultEntry& a, const FaultEntry& b) {
    return a.node != b.node ? a.node < b.node : a.at < b.at;
  });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (windows_overlap(sorted[i - 1], sorted[i])) {
      if (error != nullptr) {
        std::ostringstream message;
        message << "fault: node " << sorted[i].node << " windows at t=" << sorted[i - 1].at
                << " and t=" << sorted[i].at << " overlap";
        *error = message.str();
      }
      return false;
    }
  }
  return true;
}

FaultPlan FaultPlan::materialize(const std::vector<FaultEntry>& entries,
                                 const cluster::ClusterConfig& config, SimTime horizon) {
  if (config.fault_mtbf > 0.0 && !std::isfinite(horizon)) {
    throw std::invalid_argument("fault plan: horizon must be finite when fault.mtbf > 0");
  }
  FaultPlan plan;
  plan.mtbf_ = config.fault_mtbf;
  plan.mttr_ = config.fault_mttr;
  plan.horizon_ = horizon;
  plan.explicit_ = entries;
  std::sort(plan.explicit_.begin(), plan.explicit_.end(),
            [](const FaultEntry& a, const FaultEntry& b) {
              return a.node != b.node ? a.node < b.node : a.at < b.at;
            });
  plan.streams_.resize(config.num_nodes());
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < plan.streams_.size(); ++i) {
    plan.streams_[i].next_explicit = cursor;
    while (cursor < plan.explicit_.size() && plan.explicit_[cursor].node == i) ++cursor;
    plan.streams_[i].end_explicit = cursor;
  }

  plan.empty_ = plan.explicit_.empty();
  if (config.fault_mtbf > 0.0 && horizon > 0.0) {
    const std::uint64_t seed =
        config.fault_seed != 0 ? config.fault_seed : config.seed ^ kFaultStreamSalt;
    sim::Rng root(seed);
    for (std::size_t i = 0; i < config.num_nodes(); ++i) {
      NodeStream& stream = plan.streams_[i];
      stream.rng = root.fork();
      plan.draw(stream, static_cast<NodeId>(i));
      if (stream.drawn) plan.empty_ = false;
    }
  }
  return plan;
}

void FaultPlan::draw(NodeStream& stream, NodeId node) {
  stream.drawn.reset();
  stream.clock += stream.rng.exponential(1.0 / mtbf_);
  if (stream.clock >= horizon_) return;
  const SimTime repair = stream.rng.exponential(1.0 / mttr_);
  stream.drawn = FaultEntry{node, stream.clock, repair};
  stream.clock += repair;
}

const FaultEntry* FaultPlan::peek(const NodeStream& stream) const {
  const FaultEntry* entry =
      stream.next_explicit < stream.end_explicit ? &explicit_[stream.next_explicit] : nullptr;
  if (!stream.drawn) return entry;
  return entry != nullptr && entry->at <= stream.drawn->at ? entry : &*stream.drawn;
}

FaultEntry FaultPlan::pop(NodeStream& stream, NodeId node) {
  const FaultEntry* head = peek(stream);
  const FaultEntry window = *head;
  if (stream.drawn && head == &*stream.drawn) {
    // An exhausted generator leaves `drawn` empty, so it is never drawn again.
    draw(stream, node);
  } else {
    ++stream.next_explicit;
  }
  return window;
}

std::optional<FaultEntry> FaultPlan::next_window(NodeId node) {
  NodeStream& stream = streams_[node];
  if (peek(stream) == nullptr) return std::nullopt;
  FaultEntry merged = pop(stream, node);
  // Merge overlapping/touching windows (an explicit entry may land inside a
  // generated outage): the node is simply down for the union. Both sources
  // are sorted by start, so the next candidate is the earlier of their heads.
  for (const FaultEntry* next = peek(stream);
       next != nullptr && next->at <= merged.at + merged.duration; next = peek(stream)) {
    const FaultEntry window = pop(stream, node);
    const SimTime end = std::max(merged.at + merged.duration, window.at + window.duration);
    merged.duration = end - merged.at;
  }
  return merged;
}

std::vector<FaultEntry> FaultPlan::windows() const {
  FaultPlan cursor = *this;
  std::vector<FaultEntry> all;
  for (std::size_t i = 0; i < cursor.num_nodes(); ++i) {
    while (const std::optional<FaultEntry> window = cursor.next_window(static_cast<NodeId>(i))) {
      all.push_back(*window);
    }
  }
  return all;
}

}  // namespace vrc::faults
