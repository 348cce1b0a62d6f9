#include "workload/trace_spec.h"

#include <map>
#include <sstream>

#include "util/units.h"
#include "workload/swf_source.h"

namespace vrc::workload {

TraceSpec TraceSpec::standard(WorkloadGroup group, int index) {
  TraceSpec spec;
  spec.group = group;
  spec.standard_index = index;
  return spec;
}

TraceSpec TraceSpec::swf(std::string file) {
  TraceSpec spec;
  spec.swf_file = std::move(file);
  return spec;
}

std::string TraceSpec::print() const {
  std::ostringstream out;
  if (is_swf()) {
    out << "swf:file=" << swf_file;
    if (swf_scale != 1.0) {
      std::ostringstream scale;
      scale << swf_scale;
      out << ",scale=" << scale.str();
    }
    if (swf_max_jobs > 0) out << ",max_jobs=" << swf_max_jobs;
    if (swf_min_runtime > 0.0) {
      std::ostringstream min_rt;
      min_rt << swf_min_runtime;
      out << ",min_runtime=" << min_rt.str();
    }
    if (group != WorkloadGroup::kSpec) out << ",group=" << to_string(group);
    if (!swf_profile.empty()) out << ",profile=" << swf_profile;
    if (num_nodes != 0) out << ",nodes=" << num_nodes;
    if (!name.empty()) out << ",name=" << name;
    return out.str();
  }
  out << to_string(group);
  // Canonical key order; only non-default fields are emitted.
  std::vector<std::pair<std::string, std::string>> items;
  if (standard_index > 0) items.emplace_back("trace", std::to_string(standard_index));
  if (num_jobs > 0) {
    items.emplace_back("jobs", std::to_string(num_jobs));
    std::ostringstream dur;
    dur << duration;
    items.emplace_back("duration", dur.str());
  }
  if (arrival_scale != 1.0) {
    std::ostringstream scale;
    scale << arrival_scale;
    items.emplace_back("arrival_scale", scale.str());
  }
  if (seed != 0) items.emplace_back("seed", std::to_string(seed));
  if (malleable_fraction > 0.0) {
    std::ostringstream fraction;
    fraction << malleable_fraction;
    items.emplace_back("malleable", fraction.str());
    if (malleable_min_width != 1) {
      items.emplace_back("malleable_min", std::to_string(malleable_min_width));
    }
    if (malleable_max_width != 2) {
      items.emplace_back("malleable_max", std::to_string(malleable_max_width));
    }
    if (malleable_speedup_alpha != 0.8) {
      std::ostringstream alpha;
      alpha << malleable_speedup_alpha;
      items.emplace_back("malleable_alpha", alpha.str());
    }
  }
  if (num_nodes != 0) items.emplace_back("nodes", std::to_string(num_nodes));
  if (!name.empty()) items.emplace_back("name", name);
  for (std::size_t i = 0; i < items.size(); ++i) {
    out << (i == 0 ? ':' : ',') << items[i].first << '=' << items[i].second;
  }
  return out.str();
}

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Splits `text` (the params after the colon) into keys, rejecting a
/// malformed item or a repeated key.
bool parse_key_values(const std::string& text, const std::string& whole,
                      std::map<std::string, std::string>* out, std::string* error) {
  ParamPairs pairs;
  std::string bad;
  if (!split_params(text, &pairs, &bad)) {
    return fail(error, "trace spec '" + whole + "': param '" + bad + "' is not key=value");
  }
  for (auto& [key, value] : pairs) {
    if (!out->emplace(key, std::move(value)).second) {
      return fail(error, "trace spec '" + whole + "': duplicate param '" + key + "'");
    }
  }
  return true;
}

bool value_error(std::string* error, const std::string& whole, const std::string& key,
                 const std::string& value, const std::string& type, const std::string& example) {
  return fail(error, "trace spec '" + whole + "': invalid value '" + value + "' for '" + key +
                         "' (expected " + type + ", e.g. " + key + "=" + example + ")");
}

}  // namespace

std::optional<TraceSpec> TraceSpec::parse(const std::string& text, std::string* error) {
  const std::size_t colon = text.find(':');
  const std::string group_name = text.substr(0, colon);
  TraceSpec spec;
  const bool swf = group_name == "swf";
  if (!swf && !parse_workload_group(group_name, &spec.group)) {
    fail(error, "trace spec '" + text + "': unknown workload group '" + group_name +
                    "' (expected spec, apps, or swf)");
    return std::nullopt;
  }
  std::map<std::string, std::string> params;
  if (colon != std::string::npos) {
    if (!parse_key_values(text.substr(colon + 1), text, &params, error)) return std::nullopt;
  }

  for (const auto& [key, value] : params) {
    // The expected type and an example value, set when `value` is rejected.
    const char* type = nullptr;
    const char* example = nullptr;
    auto reject = [&](const char* expected_type, const char* example_value) {
      type = expected_type;
      example = example_value;
    };
    if (key == "nodes") {
      if (!parse_int(value, &spec.num_nodes) || spec.num_nodes == 0) reject("positive int", "32");
    } else if (key == "name") {
      spec.name = value;
      if (value.empty()) reject("non-empty string", swf ? "nasa-replay" : "my-trace");
    } else if (swf && key == "file") {
      spec.swf_file = value;
      if (value.empty()) reject("path", "tests/data/swf/NASA-iPSC-1993-3.swf");
    } else if (swf && key == "scale") {
      if (!parse_real(value, &spec.swf_scale) || spec.swf_scale <= 0.0) {
        reject("positive double", "0.1");
      }
    } else if (swf && key == "max_jobs") {
      if (!parse_int(value, &spec.swf_max_jobs) || spec.swf_max_jobs == 0) {
        reject("positive int", "200");
      }
    } else if (swf && key == "min_runtime") {
      if (!parse_duration(value, &spec.swf_min_runtime)) reject("non-negative duration", "10");
    } else if (swf && key == "group") {
      if (!parse_workload_group(value, &spec.group)) reject("spec or apps", "apps");
    } else if (swf && key == "profile") {
      spec.swf_profile = value;
      if (value != "flat" && value != "ramp") reject("flat or ramp", "ramp");
    } else if (!swf && key == "trace") {
      if (!parse_int(value, &spec.standard_index)) reject("int 1..5", "3");
    } else if (!swf && key == "jobs") {
      if (!parse_int(value, &spec.num_jobs) || spec.num_jobs == 0) reject("positive int", "400");
    } else if (!swf && key == "duration") {
      if (!parse_duration(value, &spec.duration) || spec.duration <= 0.0) {
        reject("positive duration", "1800");
      }
    } else if (!swf && key == "arrival_scale") {
      if (!parse_real(value, &spec.arrival_scale) || spec.arrival_scale <= 0.0) {
        reject("positive double", "1.5");
      }
    } else if (!swf && key == "seed") {
      if (!parse_int(value, &spec.seed)) reject("uint64", "9");
    } else if (!swf && key == "malleable") {
      if (!parse_real(value, &spec.malleable_fraction) || spec.malleable_fraction < 0.0 ||
          spec.malleable_fraction > 1.0) {
        reject("double in [0, 1]", "0.5");
      }
    } else if (!swf && key == "malleable_min") {
      if (!parse_int(value, &spec.malleable_min_width) || spec.malleable_min_width < 1) {
        reject("int >= 1", "1");
      }
    } else if (!swf && key == "malleable_max") {
      if (!parse_int(value, &spec.malleable_max_width) || spec.malleable_max_width < 1) {
        reject("int >= 1", "3");
      }
    } else if (!swf && key == "malleable_alpha") {
      if (!parse_real(value, &spec.malleable_speedup_alpha) ||
          spec.malleable_speedup_alpha < 0.0 || spec.malleable_speedup_alpha > 1.0) {
        reject("double in [0, 1]", "0.8");
      }
    } else {
      fail(error, "trace spec '" + text + "': unknown key '" + key +
                      (swf ? "' (known swf keys: file, scale, max_jobs, min_runtime, group, "
                             "profile, nodes, name)"
                           : "' (known keys: trace, jobs, duration, arrival_scale, seed, "
                             "malleable, malleable_min, malleable_max, malleable_alpha, nodes, "
                             "name)"));
      return std::nullopt;
    }
    if (type != nullptr) {
      value_error(error, text, key, value, type, example);
      return std::nullopt;
    }
  }

  std::string semantic;
  if (!spec.validate(&semantic)) {
    fail(error, "trace spec '" + text + "': " + semantic);
    return std::nullopt;
  }
  return spec;
}

bool TraceSpec::validate(std::string* error) const {
  if (is_swf()) {
    if (standard_index != 0 || num_jobs != 0) {
      return fail(error, "an swf spec cannot also set trace= or jobs=");
    }
    if (swf_scale <= 0.0) return fail(error, "swf scale must be > 0");
    if (swf_min_runtime < 0.0) return fail(error, "swf min_runtime must be >= 0");
    if (!swf_profile.empty() && swf_profile != "flat" && swf_profile != "ramp") {
      return fail(error, "swf profile must be flat or ramp");
    }
    if (malleable_fraction != 0.0) {
      return fail(error, "malleable= applies to generated traces, not swf replays");
    }
    return true;
  }
  if (swf_scale != 1.0 || swf_max_jobs != 0 || swf_min_runtime != 0.0 || !swf_profile.empty()) {
    return fail(error, "swf options need the swf group (swf:file=...)");
  }
  if (malleable_fraction < 0.0 || malleable_fraction > 1.0) {
    return fail(error, "malleable fraction must be in [0, 1]");
  }
  if (malleable_min_width < 1 || malleable_max_width < malleable_min_width) {
    return fail(error, "malleable widths need 1 <= malleable_min <= malleable_max");
  }
  if (standard_index != 0 && num_jobs != 0) {
    return fail(error, "trace= and jobs= are mutually exclusive");
  }
  if (standard_index == 0 && num_jobs == 0) {
    return fail(error, "one of trace=1..5 or jobs=N is required");
  }
  if (standard_index != 0 && (standard_index < 1 || standard_index > 5)) {
    return fail(error,
                "trace index " + std::to_string(standard_index) + " out of range (1..5)");
  }
  return true;
}

namespace {

SwfOptions swf_options_of(const TraceSpec& spec, std::uint32_t default_nodes) {
  SwfOptions options;
  options.scale = spec.swf_scale;
  options.max_jobs = spec.swf_max_jobs;
  options.min_runtime = spec.swf_min_runtime;
  options.num_nodes = spec.num_nodes != 0 ? spec.num_nodes : default_nodes;
  options.group = spec.group;
  options.name = spec.name;
  options.synthesize_profile = spec.swf_profile == "ramp";
  return options;
}

}  // namespace

TraceParams TraceSpec::to_params(std::uint32_t default_nodes) const {
  const std::uint32_t nodes = num_nodes != 0 ? num_nodes : default_nodes;
  TraceParams params;
  params.group = group;
  params.num_nodes = nodes;
  params.time_scale = 60.0 * arrival_scale;
  params.malleable_fraction = malleable_fraction;
  params.malleable_min_width = malleable_min_width;
  params.malleable_max_width = malleable_max_width;
  params.malleable_speedup_alpha = malleable_speedup_alpha;
  if (standard_index > 0) {
    const StandardTraceShape shape = standard_trace_shape(standard_index);
    params.sigma = shape.sigma;
    params.mu = shape.mu;
    params.num_jobs = shape.num_jobs;
    params.duration = shape.duration;
    params.name = !name.empty()
                      ? name
                      : (group == WorkloadGroup::kSpec ? std::string("SPEC-Trace-")
                                                       : std::string("App-Trace-")) +
                            std::to_string(standard_index);
    // Default to the standard replayed-trace seed so a seed-free spec stays
    // the collect-once trace even when name/scale overrides force this path.
    params.seed = seed != 0 ? seed : standard_trace_seed(group, standard_index);
  } else {
    params.num_jobs = num_jobs;
    params.duration = duration;
    params.name = !name.empty() ? name : "generated";
    params.seed = seed != 0 ? seed : 1;
  }
  return params;
}

Trace TraceSpec::build(std::uint32_t default_nodes) const {
  if (is_swf()) {
    SwfTraceSource source(swf_file, swf_options_of(*this, default_nodes));
    return materialize(source);
  }
  const std::uint32_t nodes = num_nodes != 0 ? num_nodes : default_nodes;
  if (standard_index > 0 && seed == 0 && arrival_scale == 1.0 && name.empty() &&
      malleable_fraction == 0.0) {
    // The exact enum-era path: byte-identical standard traces.
    return standard_trace(group, standard_index, nodes);
  }
  return generate_trace(to_params(default_nodes));
}

std::unique_ptr<ArrivalSource> TraceSpec::make_source(std::uint32_t default_nodes) const {
  if (is_swf()) {
    return std::make_unique<SwfTraceSource>(swf_file, swf_options_of(*this, default_nodes));
  }
  // GeneratedStreamSource replays generate_trace's RNG stream job-for-job, so
  // this source and build() above are fingerprint-interchangeable (including
  // the standard-trace fast path, which is generate_trace on the published
  // shape params to_params() reproduces).
  return std::make_unique<GeneratedStreamSource>(to_params(default_nodes));
}

}  // namespace vrc::workload
