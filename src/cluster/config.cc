#include "cluster/config.h"

namespace vrc::cluster {

std::optional<RestartPolicy> parse_restart_policy(const std::string& text) {
  if (text == "lose") return RestartPolicy::kLose;
  if (text == "resubmit") return RestartPolicy::kResubmit;
  return std::nullopt;
}

ClusterConfig ClusterConfig::homogeneous(std::size_t count, const NodeConfig& node,
                                         double reference_mhz) {
  ClusterConfig config;
  config.nodes.assign(count, node);
  config.reference_mhz = reference_mhz;
  return config;
}

ClusterConfig ClusterConfig::paper_cluster1(std::size_t count) {
  NodeConfig node;
  node.cpu_mhz = 400.0;
  node.memory = megabytes(384);
  node.swap = megabytes(380);
  return homogeneous(count, node, 400.0);
}

ClusterConfig ClusterConfig::paper_cluster2(std::size_t count) {
  NodeConfig node;
  node.cpu_mhz = 233.0;
  node.memory = megabytes(128);
  node.swap = megabytes(128);
  ClusterConfig config = homogeneous(count, node, 233.0);
  config.admission_demand_estimate = megabytes(18);
  return config;
}

namespace {

// The "expected ..." fragment of a malformed value's message, per value type.
constexpr const char* kDouble = "double, e.g. 0.85";
constexpr const char* kInt = "int, e.g. 5";
constexpr const char* kUint64 = "uint64, e.g. 42";
constexpr const char* kBool = "bool, e.g. 1";
constexpr const char* kBytes = "bytes with optional unit suffix, e.g. 128MB";
constexpr const char* kDuration = "duration with optional unit suffix, e.g. 10ms";

/// One override assignment attempt: `parsed` passes through, and a false one
/// leaves `type` in *expected.
bool expect(bool parsed, const char* type, std::string* expected) {
  if (!parsed) *expected = type;
  return parsed;
}

/// Narrows a parsed value to > 0: false + `example` in *expected otherwise.
/// Zero periods never advance simulated time, zero speeds or bandwidths
/// are divided by, and a node with no job slots never runs a job, so those
/// keys reject them here.
bool require_positive(double parsed, const char* example, std::string* expected) {
  if (parsed > 0.0) return true;
  *expected = example;
  return false;
}

/// Applies one `node.<i>.<field>` / `node.*.<field>` override to `config`.
bool apply_node_override(ClusterConfig& config, const std::string& key,
                         const std::string& value, std::string* error) {
  const std::string rest = key.substr(5);  // past "node."
  const std::size_t dot = rest.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
    *error = "config override '" + key +
             "': per-node keys are node.<index>.<field> or node.*.<field> "
             "(fields: cpu_mhz, memory, swap, kernel_reserved)";
    return false;
  }
  const std::string index_text = rest.substr(0, dot);
  const std::string field = rest.substr(dot + 1);

  std::size_t first = 0;
  std::size_t last = config.nodes.size();  // exclusive
  if (index_text != "*") {
    std::size_t index = 0;
    if (!parse_int(index_text, &index)) {
      *error = "config override '" + key + "': node index must be a number or '*'";
      return false;
    }
    if (index >= config.nodes.size()) {
      *error = "config override '" + key + "': node index " + index_text +
               " out of range (cluster has " + std::to_string(config.nodes.size()) + " nodes)";
      return false;
    }
    first = index;
    last = first + 1;
  }

  std::string expected;
  for (std::size_t i = first; i < last; ++i) {
    NodeConfig& node = config.nodes[i];
    bool ok = true;
    if (field == "cpu_mhz") {
      ok = expect(parse_real(value, &node.cpu_mhz), kDouble, &expected);
    } else if (field == "memory") {
      ok = expect(parse_bytes(value, &node.memory), kBytes, &expected);
    } else if (field == "swap") {
      ok = expect(parse_bytes(value, &node.swap), kBytes, &expected);
    } else if (field == "kernel_reserved") {
      ok = expect(parse_bytes(value, &node.kernel_reserved), kBytes, &expected);
    } else {
      *error = "config override '" + key + "': unknown node field '" + field +
               "' (known fields: cpu_mhz, memory, swap, kernel_reserved)";
      return false;
    }
    if (!ok) {
      *error = "config override '" + key + "': invalid value '" + value + "' (expected " +
               expected + ")";
      return false;
    }
  }
  return true;
}

}  // namespace

bool ClusterConfig::apply_overrides(const std::map<std::string, std::string>& overrides,
                                    std::string* error) {
  std::string local_error;
  std::string* err = error ? error : &local_error;
  ClusterConfig updated = *this;

  auto fail_value = [err](const std::string& key, const std::string& value,
                          const std::string& expected) {
    *err = "config override '" + key + "': invalid value '" + value + "' (expected " +
           expected + ")";
    return false;
  };

  // Scalar keys first (including a `nodes` resize), so per-node overrides in
  // the same map always target the final node count.
  for (const auto& [key, value] : overrides) {
    if (key.rfind("node.", 0) == 0) continue;
    std::string expected;
    bool ok = true;
    if (key == "nodes") {
      int count = 0;
      ok = expect(parse_int(value, &count), kInt, &expected) &&
           require_positive(count, "positive int, e.g. 32", &expected);
      if (ok) {
        if (updated.nodes.empty()) {
          *err = "config override 'nodes': cannot resize a cluster with no node template";
          return false;
        }
        updated.nodes.assign(static_cast<std::size_t>(count), updated.nodes[0]);
      }
    } else if (key == "reference_mhz") {
      ok = expect(parse_real(value, &updated.reference_mhz), kDouble, &expected) &&
           require_positive(updated.reference_mhz, "positive double, e.g. 400", &expected);
    } else if (key == "page_size") {
      ok = expect(parse_bytes(value, &updated.page_size), kBytes, &expected);
    } else if (key == "page_fault_service") {
      ok = expect(parse_duration(value, &updated.page_fault_service), kDuration, &expected);
    } else if (key == "context_switch") {
      ok = expect(parse_duration(value, &updated.context_switch), kDuration, &expected);
    } else if (key == "quantum") {
      ok = expect(parse_duration(value, &updated.quantum), kDuration, &expected) &&
           require_positive(updated.quantum, "positive duration, e.g. 100ms", &expected);
    } else if (key == "tick") {
      ok = expect(parse_duration(value, &updated.tick), kDuration, &expected) &&
           require_positive(updated.tick, "positive duration, e.g. 10ms", &expected);
    } else if (key == "network_mbps") {
      ok = expect(parse_real(value, &updated.network_mbps), kDouble, &expected) &&
           require_positive(updated.network_mbps, "positive double, e.g. 10", &expected);
    } else if (key == "remote_submit_cost") {
      ok = expect(parse_duration(value, &updated.remote_submit_cost), kDuration, &expected);
    } else if (key == "network_contention") {
      ok = expect(parse_bool(value, &updated.network_contention), kBool, &expected);
    } else if (key == "cpu_threshold") {
      ok = expect(parse_int(value, &updated.cpu_threshold), kInt, &expected) &&
           require_positive(updated.cpu_threshold, "positive int, e.g. 4", &expected);
    } else if (key == "memory_threshold") {
      ok = expect(parse_real(value, &updated.memory_threshold), kDouble, &expected);
    } else if (key == "admission_demand_estimate") {
      ok = expect(parse_bytes(value, &updated.admission_demand_estimate), kBytes, &expected);
    } else if (key == "fault_rate_threshold") {
      ok = expect(parse_real(value, &updated.fault_rate_threshold), kDouble, &expected);
    } else if (key == "fault_rate_tau") {
      ok = expect(parse_duration(value, &updated.fault_rate_tau), kDuration, &expected);
    } else if (key == "load_exchange_period") {
      ok = expect(parse_duration(value, &updated.load_exchange_period), kDuration, &expected) &&
           require_positive(updated.load_exchange_period, "positive duration, e.g. 1s", &expected);
    } else if (key == "policy_period") {
      ok = expect(parse_duration(value, &updated.policy_period), kDuration, &expected) &&
           require_positive(updated.policy_period, "positive duration, e.g. 1s", &expected);
    } else if (key == "pressure_callback_interval") {
      ok = expect(parse_duration(value, &updated.pressure_callback_interval), kDuration,
                  &expected);
    } else if (key == "migration_cooldown") {
      ok = expect(parse_duration(value, &updated.migration_cooldown), kDuration, &expected);
    } else if (key == "resize.fixed_cost") {
      ok = expect(parse_duration(value, &updated.resize_fixed_cost), kDuration, &expected);
    } else if (key == "resize.per_slot_cost") {
      ok = expect(parse_duration(value, &updated.resize_per_slot_cost), kDuration, &expected);
    } else if (key == "resize.min_interval") {
      ok = expect(parse_duration(value, &updated.resize_min_interval), kDuration, &expected);
    } else if (key == "fault_exposure_knee") {
      ok = expect(parse_real(value, &updated.fault_exposure_knee), kDouble, &expected);
    } else if (key == "stochastic_faults") {
      ok = expect(parse_bool(value, &updated.stochastic_faults), kBool, &expected);
    } else if (key == "seed") {
      ok = expect(parse_int(value, &updated.seed), kUint64, &expected);
    } else if (key == "fault.mtbf") {
      ok = expect(parse_duration(value, &updated.fault_mtbf), kDuration, &expected);
    } else if (key == "fault.mttr") {
      ok = expect(parse_duration(value, &updated.fault_mttr), kDuration, &expected) &&
           require_positive(updated.fault_mttr, "positive duration, e.g. 60s", &expected);
    } else if (key == "fault.seed") {
      ok = expect(parse_int(value, &updated.fault_seed), kUint64, &expected);
    } else if (key == "fault.restart") {
      if (parse_restart_policy(value)) {
        updated.fault_restart = value;
      } else {
        ok = false;
        expected = "'lose' or 'resubmit'";
      }
    } else {
      std::string known;
      for (const OverrideKeyDoc& doc : override_keys()) {
        known += (known.empty() ? "" : ", ") + doc.key;
      }
      *err = "unknown config override '" + key + "' (known keys: " + known + ")";
      return false;
    }
    if (!ok) return fail_value(key, value, expected);
  }

  for (const auto& [key, value] : overrides) {
    if (key.rfind("node.", 0) != 0) continue;
    if (!apply_node_override(updated, key, value, err)) return false;
  }

  *this = std::move(updated);
  return true;
}

const std::vector<ClusterConfig::OverrideKeyDoc>& ClusterConfig::override_keys() {
  static const std::vector<OverrideKeyDoc>* keys = new std::vector<OverrideKeyDoc>{
      {"nodes", "int", "workstation count (replicates the first node's hardware)"},
      {"reference_mhz", "double", "CPU speed the workload lifetimes were measured at"},
      {"page_size", "bytes", "VM page size (paper: 4KB)"},
      {"page_fault_service", "duration", "page-fault service time (paper: 10ms)"},
      {"context_switch", "duration", "context-switch cost (paper: 0.1ms)"},
      {"quantum", "duration", "round-robin quantum of the local scheduler"},
      {"tick", "duration", "simulation tick (paper trace granularity: 10ms)"},
      {"network_mbps", "double", "Ethernet bandwidth (paper: 10)"},
      {"remote_submit_cost", "duration", "fixed remote submission cost r (paper: 0.1s)"},
      {"network_contention", "bool", "serialize migrations on the shared segment"},
      {"cpu_threshold", "int", "CPU threshold: max job slots per workstation"},
      {"memory_threshold", "double", "memory threshold of [3], fraction of user memory"},
      {"admission_demand_estimate", "bytes", "assumed demand of an unknown incoming job"},
      {"fault_rate_threshold", "double", "page-fault rate (faults/s EMA) marking pressure"},
      {"fault_rate_tau", "duration", "EMA time constant of the fault-rate monitor"},
      {"load_exchange_period", "duration", "load-index exchange period"},
      {"policy_period", "duration", "periodic policy pulse (pending retries, drains)"},
      {"pressure_callback_interval", "duration", "min spacing of on_node_pressure per node"},
      {"migration_cooldown", "duration", "min time between outgoing migrations per node"},
      {"resize.fixed_cost", "duration", "fixed malleable-resize pause; overrides job contracts"},
      {"resize.per_slot_cost", "duration",
       "per-slot malleable-resize pause; overrides job contracts"},
      {"resize.min_interval", "duration", "min spacing of resize starts per node (0 = off)"},
      {"fault_exposure_knee", "double", "knee of the fault-exposure curve (DESIGN.md §5)"},
      {"stochastic_faults", "bool", "Poisson-sample per-tick faults instead of expectation"},
      {"seed", "uint64", "cluster-internal RNG seed (stochastic faults)"},
      {"fault.mtbf", "duration", "per-node mean time between failures; 0 = generator off"},
      {"fault.mttr", "duration", "per-node mean time to repair"},
      {"fault.seed", "uint64", "fault-schedule RNG seed; 0 derives it from `seed`"},
      {"fault.restart", "string", "restart policy for killed jobs: lose | resubmit"},
      {"node.<i>.cpu_mhz", "double", "per-node CPU speed; <i> is an index or '*'"},
      {"node.<i>.memory", "bytes", "per-node physical memory, e.g. node.3.memory=128MB"},
      {"node.<i>.swap", "bytes", "per-node swap space"},
      {"node.<i>.kernel_reserved", "bytes", "per-node kernel/daemon memory"},
  };
  return *keys;
}

}  // namespace vrc::cluster

