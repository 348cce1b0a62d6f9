// FaultPlan: validation of explicit failure windows and the deterministic
// per-node schedule streams (explicit entries + the seeded per-node
// exponential MTBF/MTTR generator). The generator runs on its own RNG stream,
// so the same fault_seed must yield the same schedule regardless of the
// workload seed (matched-pairs comparisons). An oracle pins the lazy streams
// bit-for-bit to the eager draw-sort-merge schedule they replace.
#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "cluster/config.h"
#include "sim/rng.h"

namespace vrc::faults {
namespace {

using cluster::ClusterConfig;

ClusterConfig no_generator_config(std::size_t nodes = 4) {
  ClusterConfig config = ClusterConfig::paper_cluster1(nodes);
  config.fault_mtbf = 0.0;  // explicit entries only
  return config;
}

ClusterConfig generator_config(std::size_t nodes = 4, std::uint64_t fault_seed = 99) {
  ClusterConfig config = ClusterConfig::paper_cluster1(nodes);
  config.fault_mtbf = 500.0;
  config.fault_mttr = 50.0;
  config.fault_seed = fault_seed;
  return config;
}

TEST(FaultPlanValidateTest, AcceptsDisjointWindows) {
  std::string error;
  EXPECT_TRUE(FaultPlan::validate({{0, 10.0, 5.0}, {0, 15.0, 5.0}, {1, 10.0, 100.0}},
                                  /*num_nodes=*/4, &error))
      << error;
  EXPECT_TRUE(FaultPlan::validate({}, 4, &error)) << error;
}

TEST(FaultPlanValidateTest, RejectsOutOfRangeNode) {
  std::string error;
  EXPECT_FALSE(FaultPlan::validate({{7, 10.0, 5.0}}, /*num_nodes=*/4, &error));
  EXPECT_NE(error.find("node 7 out of range (cluster has 4 nodes)"), std::string::npos)
      << error;
}

TEST(FaultPlanValidateTest, RejectsBadTimes) {
  std::string error;
  EXPECT_FALSE(FaultPlan::validate({{1, -2.0, 5.0}}, 4, &error));
  EXPECT_NE(error.find("crash time -2 must be >= 0"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::validate({{1, 2.0, 0.0}}, 4, &error));
  EXPECT_NE(error.find("duration 0 must be > 0"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::validate({{1, 2.0, -1.0}}, 4, &error));
  EXPECT_NE(error.find("must be > 0"), std::string::npos) << error;
}

TEST(FaultPlanValidateTest, RejectsOverlapOnlyOnTheSameNode) {
  // Same interval on two different nodes is fine; on one node it is almost
  // certainly a scenario typo and must be rejected, not silently merged.
  std::string error;
  EXPECT_TRUE(FaultPlan::validate({{0, 100.0, 60.0}, {1, 100.0, 60.0}}, 4, &error)) << error;
  EXPECT_FALSE(FaultPlan::validate({{2, 100.0, 60.0}, {2, 120.0, 10.0}}, 4, &error));
  EXPECT_NE(error.find("node 2 windows at t=100 and t=120 overlap"), std::string::npos)
      << error;
  // Entry order must not matter: the check sorts per node first.
  EXPECT_FALSE(FaultPlan::validate({{2, 120.0, 10.0}, {2, 100.0, 60.0}}, 4, &error));
}

TEST(FaultPlanMaterializeTest, EmptyInputsYieldEmptyPlan) {
  const FaultPlan plan = FaultPlan::materialize({}, no_generator_config(), 1000.0);
  EXPECT_TRUE(plan.empty());
  // Generator configured but zero horizon: still nothing to schedule.
  EXPECT_TRUE(FaultPlan::materialize({}, generator_config(), 0.0).empty());
}

TEST(FaultPlanMaterializeTest, KeepsExplicitEntriesSortedWhenGeneratorOff) {
  const FaultPlan plan = FaultPlan::materialize({{2, 300.0, 10.0}, {0, 100.0, 60.0}},
                                                no_generator_config(), 1000.0);
  ASSERT_EQ(plan.windows().size(), 2u);
  EXPECT_EQ(plan.windows()[0], (FaultEntry{0, 100.0, 60.0}));
  EXPECT_EQ(plan.windows()[1], (FaultEntry{2, 300.0, 10.0}));
}

TEST(FaultPlanMaterializeTest, MergesOverlappingAndTouchingWindows) {
  // An explicit window landing inside or against another: the node is simply
  // down for the union. (validate() rejects this for scenario input, but
  // materialize() must still merge because generated windows can collide
  // with explicit ones.)
  const FaultPlan plan = FaultPlan::materialize(
      {{1, 100.0, 60.0}, {1, 130.0, 100.0}, {1, 230.0, 10.0}, {1, 500.0, 5.0}},
      no_generator_config(), 1000.0);
  ASSERT_EQ(plan.windows().size(), 2u);
  EXPECT_EQ(plan.windows()[0], (FaultEntry{1, 100.0, 140.0}));
  EXPECT_EQ(plan.windows()[1], (FaultEntry{1, 500.0, 5.0}));
}

TEST(FaultPlanMaterializeTest, GeneratorProducesWellFormedSchedule) {
  const SimTime horizon = 10000.0;
  const FaultPlan plan = FaultPlan::materialize({}, generator_config(4), horizon);
  ASSERT_FALSE(plan.empty());
  SimTime last_end = -1.0;
  NodeId last_node = 0;
  for (const FaultEntry& window : plan.windows()) {
    EXPECT_LT(static_cast<std::size_t>(window.node), 4u);
    EXPECT_GE(window.at, 0.0);
    EXPECT_GT(window.duration, 0.0);
    EXPECT_LT(window.at, horizon);  // crashes only before the horizon
    if (window.node == last_node) {
      EXPECT_GT(window.at, last_end);  // sorted and disjoint per node
    }
    last_node = window.node;
    last_end = window.at + window.duration;
  }
}

TEST(FaultPlanMaterializeTest, SameSeedSameSchedule) {
  const FaultPlan a = FaultPlan::materialize({{0, 5.0, 1.0}}, generator_config(), 5000.0);
  const FaultPlan b = FaultPlan::materialize({{0, 5.0, 1.0}}, generator_config(), 5000.0);
  EXPECT_EQ(a.windows(), b.windows());
}

TEST(FaultPlanMaterializeTest, FaultSeedIsIndependentOfWorkloadSeed) {
  // Matched pairs: changing the cluster's workload/paging seed must not move
  // the failure schedule as long as fault_seed is pinned.
  ClusterConfig a = generator_config(4, 99);
  ClusterConfig b = generator_config(4, 99);
  a.seed = 1;
  b.seed = 123456;
  EXPECT_EQ(FaultPlan::materialize({}, a, 5000.0).windows(),
            FaultPlan::materialize({}, b, 5000.0).windows());

  // Different fault seeds draw different schedules.
  ClusterConfig c = generator_config(4, 100);
  EXPECT_NE(FaultPlan::materialize({}, a, 5000.0).windows(),
            FaultPlan::materialize({}, c, 5000.0).windows());
}

TEST(FaultPlanMaterializeTest, ZeroFaultSeedDerivesFromClusterSeed) {
  ClusterConfig a = generator_config(4, 0);
  ClusterConfig b = generator_config(4, 0);
  a.seed = 1;
  b.seed = 2;
  // Derived stream: same cluster seed reproduces, different seed diverges.
  EXPECT_EQ(FaultPlan::materialize({}, a, 5000.0).windows(),
            FaultPlan::materialize({}, a, 5000.0).windows());
  EXPECT_NE(FaultPlan::materialize({}, a, 5000.0).windows(),
            FaultPlan::materialize({}, b, 5000.0).windows());
}

/// The eager schedule the per-node streams replace, kept verbatim as the
/// reference: draw every generated window up to the horizon, sort all windows
/// by (node, at), then merge overlapping or touching ones per node.
std::vector<FaultEntry> reference_schedule(const std::vector<FaultEntry>& entries,
                                           const ClusterConfig& config, SimTime horizon) {
  std::vector<FaultEntry> windows = entries;
  if (config.fault_mtbf > 0.0 && horizon > 0.0) {
    const std::uint64_t seed =
        config.fault_seed != 0 ? config.fault_seed : config.seed ^ 0xFA17FA17FA17FA17ULL;
    sim::Rng root(seed);
    for (std::size_t i = 0; i < config.num_nodes(); ++i) {
      sim::Rng stream = root.fork();
      SimTime t = 0.0;
      while (true) {
        t += stream.exponential(1.0 / config.fault_mtbf);
        if (t >= horizon) break;
        const SimTime repair = stream.exponential(1.0 / config.fault_mttr);
        windows.push_back({static_cast<NodeId>(i), t, repair});
        t += repair;
      }
    }
  }
  std::sort(windows.begin(), windows.end(), [](const FaultEntry& a, const FaultEntry& b) {
    return a.node != b.node ? a.node < b.node : a.at < b.at;
  });
  std::vector<FaultEntry> merged;
  for (const FaultEntry& window : windows) {
    if (!merged.empty() && merged.back().node == window.node &&
        window.at <= merged.back().at + merged.back().duration) {
      const SimTime end =
          std::max(merged.back().at + merged.back().duration, window.at + window.duration);
      merged.back().duration = end - merged.back().at;
    } else {
      merged.push_back(window);
    }
  }
  return merged;
}

/// Drains `plan` one window per node in round-robin order, highest node
/// first (an injector interleaves nodes too), then regroups by node: one node's stream must
/// not depend on how far the others have advanced.
std::vector<FaultEntry> drain_interleaved(FaultPlan plan) {
  std::vector<std::vector<FaultEntry>> per_node(plan.num_nodes());
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = plan.num_nodes(); i-- > 0;) {
      if (const std::optional<FaultEntry> window = plan.next_window(static_cast<NodeId>(i))) {
        per_node[i].push_back(*window);
        any = true;
      }
    }
  }
  std::vector<FaultEntry> all;
  for (const std::vector<FaultEntry>& windows : per_node) {
    all.insert(all.end(), windows.begin(), windows.end());
  }
  return all;
}

/// Explicit entries placed against the generated windows of `generated`,
/// two per node: one overlapping a window's end, one touching a window's end
/// exactly, one inside a window, one bridging two windows, one ending at a
/// window's start, one alone in a gap; a node with few windows gets one
/// early entry. None starts exactly where another window starts: the
/// reference's unstable sort leaves the order of equal starts unspecified.
std::vector<FaultEntry> entries_against(const std::vector<FaultEntry>& generated,
                                        std::size_t nodes) {
  std::vector<std::vector<FaultEntry>> per_node(nodes);
  for (const FaultEntry& window : generated) per_node[window.node].push_back(window);
  std::vector<FaultEntry> entries;
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeId node = static_cast<NodeId>(i);
    const std::vector<FaultEntry>& windows = per_node[i];
    if (windows.size() < 4) {
      entries.push_back({node, 7.0 + static_cast<double>(i), 3.0});
      continue;
    }
    const FaultEntry& a = windows[0];
    const FaultEntry& b = windows[1];
    const FaultEntry& c = windows[2];
    const FaultEntry& d = windows[3];
    const SimTime b_end = b.at + b.duration;
    switch (i % 3) {
      case 0:
        entries.push_back({node, a.at + a.duration / 2, a.duration});
        entries.push_back({node, b_end, 5.0});
        break;
      case 1:
        entries.push_back({node, a.at + a.duration / 4, a.duration / 4});
        entries.push_back({node, b.at + b.duration / 3, c.at - b.at});
        break;
      default:
        entries.push_back({node, (b_end + c.at) / 2, (c.at - b_end) / 8});
        entries.push_back({node, d.at - 4.0, 4.0});
        break;
    }
  }
  // Unsorted input: the plan sorts per node itself.
  std::reverse(entries.begin(), entries.end());
  return entries;
}

TEST(FaultPlanOracleTest, StreamsMatchTheEagerScheduleBitForBit) {
  int compared = 0;
  for (const std::uint64_t seed : {1ull, 7919ull, 0xC0FFEEull}) {
    for (const std::size_t nodes : {1u, 3u, 16u}) {
      for (const SimTime horizon : {0.0, 250.0, 5000.0, 60000.0}) {
        ClusterConfig config = generator_config(nodes, seed);
        config.fault_mtbf = 300.0;
        config.fault_mttr = 40.0;
        const std::vector<FaultEntry> generated = reference_schedule({}, config, 60000.0);
        for (const bool with_entries : {false, true}) {
          const std::vector<FaultEntry> entries =
              with_entries ? entries_against(generated, nodes) : std::vector<FaultEntry>{};
          const std::vector<FaultEntry> expected = reference_schedule(entries, config, horizon);
          const FaultPlan plan = FaultPlan::materialize(entries, config, horizon);
          const std::string label = "seed " + std::to_string(seed) + ", " +
                                    std::to_string(nodes) + " nodes, horizon " +
                                    std::to_string(horizon) + (with_entries ? ", entries" : "");
          EXPECT_EQ(plan.empty(), expected.empty()) << label;
          // FaultEntry::operator== compares the doubles with ==.
          EXPECT_EQ(drain_interleaved(plan), expected) << label;
          EXPECT_EQ(plan.windows(), expected) << label;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 72);
}

TEST(FaultPlanOracleTest, MergesExplicitEntriesIntoGeneratedWindows) {
  // The grid above must actually exercise the merge: with entries placed
  // against the generated windows, some merged windows differ from both
  // sources.
  ClusterConfig config = generator_config(3, 7919);
  config.fault_mtbf = 300.0;
  config.fault_mttr = 40.0;
  const std::vector<FaultEntry> generated = reference_schedule({}, config, 60000.0);
  const std::vector<FaultEntry> entries = entries_against(generated, 3);
  const std::vector<FaultEntry> merged =
      FaultPlan::materialize(entries, config, 60000.0).windows();
  EXPECT_LT(merged.size(), generated.size() + entries.size());
  auto contains = [](const std::vector<FaultEntry>& windows, const FaultEntry& window) {
    return std::find(windows.begin(), windows.end(), window) != windows.end();
  };
  int widened = 0;
  for (const FaultEntry& window : merged) {
    if (!contains(generated, window) && !contains(entries, window)) ++widened;
  }
  EXPECT_GE(widened, 3);
}

TEST(FaultPlanOracleTest, EmptyAgreesWhenEveryFirstDrawMissesTheHorizon) {
  ClusterConfig config = generator_config(8, 3);
  const SimTime horizon = 1e-3;  // mtbf 500 s: every node's first failure is later
  ASSERT_TRUE(reference_schedule({}, config, horizon).empty());
  const FaultPlan plan = FaultPlan::materialize({}, config, horizon);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.windows().empty());
  // One explicit entry makes the plan non-empty even though nothing is drawn.
  EXPECT_FALSE(FaultPlan::materialize({{5, 1.0, 1.0}}, config, horizon).empty());
}

TEST(FaultPlanMaterializeTest, RejectsANonFiniteHorizonWhileGenerating) {
  const ClusterConfig config = generator_config();
  EXPECT_THROW(FaultPlan::materialize({}, config, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::materialize({}, config, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  // With the generator off the horizon is never read.
  EXPECT_TRUE(FaultPlan::materialize({}, no_generator_config(),
                                     std::numeric_limits<double>::infinity())
                  .empty());
}

}  // namespace
}  // namespace vrc::faults
