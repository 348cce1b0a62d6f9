// Failure schedule of one simulation run.
//
// A FaultPlan is the fully deterministic set of per-node failure windows a
// run will experience: explicit scenario entries ("crash node 2 at t=100 for
// 60 s") plus windows drawn from a seeded per-node exponential MTBF/MTTR
// generator. The generator uses its own RNG stream, independent of the
// workload and paging randomness, so matched-pairs policy comparisons see
// identical failure schedules (DESIGN.md §10).
//
// The schedule is never materialized: each node owns a stream that draws its
// windows on demand and merges them with the node's explicit entries, so a
// plan holds O(nodes + explicit entries) state however long the horizon.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "sim/rng.h"
#include "util/units.h"
#include "workload/job.h"

namespace vrc::faults {

using workload::NodeId;

/// One failure window: `node` is down during [at, at + duration).
struct FaultEntry {
  NodeId node = 0;
  SimTime at = 0.0;
  SimTime duration = 0.0;

  bool operator==(const FaultEntry&) const = default;
};

/// The failure schedule as per-node streams of sorted, non-overlapping
/// windows. Empty plan == no faults (a run with an empty plan is bit-identical
/// to one without any fault machinery). A plan is a value: copies advance
/// independently, which is how FaultInjector takes its own cursor.
class FaultPlan {
 public:
  /// Checks explicit entries against a cluster of `num_nodes` workstations:
  /// node index in range, at >= 0, duration > 0, and no two windows on the
  /// same node overlapping. On failure writes a precise message to `error`.
  static bool validate(const std::vector<FaultEntry>& entries, std::size_t num_nodes,
                       std::string* error = nullptr);

  /// Builds the schedule: `entries` (whose nodes must be in range, as
  /// validate() checks) plus, when config.fault_mtbf > 0, per-node
  /// exponential up/down windows over [0, horizon). The generator stream is
  /// seeded from config.fault_seed (or derived from config.seed when 0) and
  /// forked once per node in node order, so one node's schedule does not
  /// perturb another's. Overlapping or touching windows on a node are merged.
  /// Throws std::invalid_argument when the generator is on and `horizon` is
  /// not finite (the schedule would never end).
  static FaultPlan materialize(const std::vector<FaultEntry>& entries,
                               const cluster::ClusterConfig& config, SimTime horizon);

  /// True when no node has any window: no explicit entry, and no node's
  /// first generated failure falls before the horizon.
  bool empty() const { return empty_; }

  std::size_t num_nodes() const { return streams_.size(); }

  /// Advances `node`'s stream: its next merged window in time order, or
  /// nullopt once the node has none left. Draws at most the generated
  /// windows that the merge has to look at.
  std::optional<FaultEntry> next_window(NodeId node);

  /// The whole schedule sorted by (node, at), drained from a copy of the
  /// streams. O(windows) time and memory: for tests only, never on a run path.
  std::vector<FaultEntry> windows() const;

 private:
  /// One node's cursor: the generator clock and its lookahead window, plus
  /// the position in the node's slice of `explicit_`.
  struct NodeStream {
    sim::Rng rng;
    SimTime clock = 0.0;              // end of the last generated window
    std::optional<FaultEntry> drawn;  // next generated window, not yet merged
    std::size_t next_explicit = 0;    // index into explicit_
    std::size_t end_explicit = 0;     // one past the node's last entry
  };

  /// Draws the node's next generated window into `drawn`, or leaves it empty
  /// once the generator clock reaches the horizon.
  void draw(NodeStream& stream, NodeId node);
  /// The earlier of the node's two candidate windows (the explicit entry on
  /// a tie); nullptr when both sources are exhausted.
  const FaultEntry* peek(const NodeStream& stream) const;
  /// Removes and returns peek(stream), which must not be nullptr.
  FaultEntry pop(NodeStream& stream, NodeId node);

  std::vector<FaultEntry> explicit_;  // sorted by (node, at)
  std::vector<NodeStream> streams_;
  double mtbf_ = 0.0;
  double mttr_ = 0.0;
  SimTime horizon_ = 0.0;
  bool empty_ = true;
};

}  // namespace vrc::faults
