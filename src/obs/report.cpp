#include "finser/obs/report.hpp"

#include <cstdio>
#include <initializer_list>

#include "finser/util/error.hpp"
#include "finser/util/io.hpp"

namespace finser::obs {

namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

util::JsonValue build_info() {
  util::JsonValue b = util::JsonValue::object();
  b["finser_version"] =
#ifdef FINSER_VERSION_STRING
      FINSER_VERSION_STRING;
#else
      "unknown";
#endif
  b["build_type"] =
#ifdef FINSER_BUILD_TYPE
      FINSER_BUILD_TYPE;
#else
      "unknown";
#endif
  b["sanitizer"] =
#ifdef FINSER_SANITIZE_STRING
      FINSER_SANITIZE_STRING;
#else
      "";
#endif
#ifdef __VERSION__
  b["compiler"] = __VERSION__;
#else
  b["compiler"] = "unknown";
#endif
  b["cxx_standard"] = static_cast<std::int64_t>(__cplusplus);
  return b;
}

}  // namespace

util::JsonValue metrics_json(const Snapshot& snapshot) {
  util::JsonValue m = util::JsonValue::object();
  util::JsonValue counters = util::JsonValue::object();
  for (const auto& c : snapshot.counters) counters[c.name] = c.total;
  m["counters"] = std::move(counters);

  util::JsonValue histograms = util::JsonValue::object();
  for (const auto& h : snapshot.histograms) {
    util::JsonValue row = util::JsonValue::object();
    row["count"] = h.count;
    row["sum"] = h.sum;
    row["min"] = h.min;
    row["max"] = h.max;
    // Trailing zero buckets are trimmed: the payload stays compact and the
    // serialization still round-trips (absent buckets are zero).
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    util::JsonValue buckets = util::JsonValue::array();
    for (std::size_t b = 0; b < last; ++b) buckets.push_back(h.buckets[b]);
    row["pow2_buckets"] = std::move(buckets);
    histograms[h.name] = std::move(row);
  }
  m["histograms"] = std::move(histograms);
  return m;
}

util::JsonValue build_run_report(const Snapshot& snapshot, const RunInfo& info) {
  util::JsonValue doc = util::JsonValue::object();
  doc["schema"] = "finser.run_report";
  doc["version"] = static_cast<std::int64_t>(kRunReportVersion);
  doc["build"] = build_info();

  util::JsonValue run = util::JsonValue::object();
  run["tool"] = info.tool;
  run["command"] = info.command;
  run["seed"] = info.seed;
  run["threads"] = static_cast<std::uint64_t>(info.threads);
  run["lanes"] = static_cast<std::uint64_t>(info.lanes);
  run["mc_scale"] = info.mc_scale;
  run["config_fingerprint"] = hex_u64(info.config_fingerprint);
  doc["run"] = std::move(run);

  doc["metrics"] = metrics_json(snapshot);

  util::JsonValue timing = util::JsonValue::object();
  timing["wall_seconds"] = seconds(now_ns());
  util::JsonValue spans = util::JsonValue::object();
  for (const auto& d : snapshot.durations) {
    util::JsonValue row = util::JsonValue::object();
    row["count"] = d.count;
    row["total_s"] = seconds(d.total_ns);
    row["min_s"] = seconds(d.min_ns);
    row["max_s"] = seconds(d.max_ns);
    spans[d.name] = std::move(row);
  }
  timing["spans"] = std::move(spans);

  util::JsonValue gauges = util::JsonValue::object();
  for (const auto& g : snapshot.gauges) {
    util::JsonValue row = util::JsonValue::object();
    row["value"] = g.value;
    row["max"] = g.max;
    gauges[g.name] = std::move(row);
  }
  timing["gauges"] = std::move(gauges);

  // Derived rates: events per busy-second of the spans that time every path
  // producing them (busy-seconds sum across parallel workers, so at 1
  // thread this is a wall rate and at N threads an aggregate-throughput
  // rate). The spans of one rate never nest, so no time counts twice.
  const auto counter_total = [&](const char* name) -> std::uint64_t {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) return c.total;
    }
    return 0;
  };
  const auto busy_s = [&](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) {
      for (const auto& d : snapshot.durations) {
        if (d.name == name) total += seconds(d.total_ns);
      }
    }
    return total;
  };
  const auto rate = [](std::uint64_t events, double busy) {
    return busy > 0.0 ? static_cast<double>(events) / busy : 0.0;
  };
  util::JsonValue derived = util::JsonValue::object();
  const std::uint64_t particles = counter_total("core.array_mc.strikes") +
                                  counter_total("core.neutron_mc.histories") +
                                  counter_total("phys.fin_mc.samples");
  derived["particles"] = particles;
  derived["particles_per_second"] =
      rate(particles, busy_s({"core.array_mc.run", "core.neutron_mc.run",
                              "phys.fin_mc.run"}));
  // spice.tran.runs counts scalar transients and every lane of a batched
  // one alike, so both engines' spans are the denominator.
  derived["transients_per_second"] =
      rate(counter_total("spice.tran.runs"),
           busy_s({"spice.tran.run", "spice.tran.run_batch"}));
  timing["derived"] = std::move(derived);

  const Registry& reg = Registry::global();
  timing["trace_events"] = static_cast<std::uint64_t>(reg.trace_events().size());
  timing["dropped_trace_events"] = reg.dropped_trace_events();
  doc["timing"] = std::move(timing);
  return doc;
}

void write_run_report(const std::string& path, const RunInfo& info,
                      const util::JsonValue* shard) {
  util::JsonValue doc =
      build_run_report(Registry::global().snapshot(), info);
  // Optional "shard" section (sharded campaigns: outcome + per-stage
  // failure records). The validator tolerates extra top-level keys, so
  // non-sharded consumers are unaffected.
  if (shard != nullptr) doc["shard"] = *shard;
  const std::string text = doc.dump(2);
  std::string error;
  if (!util::atomic_write_file(path, text.data(), text.size(), &error)) {
    throw util::Error("write_run_report: " + error);
  }
}

util::JsonValue build_chrome_trace(const Registry& registry) {
  util::JsonValue doc = util::JsonValue::object();
  util::JsonValue events = util::JsonValue::array();
  for (const TraceEvent& ev : registry.trace_events()) {
    util::JsonValue e = util::JsonValue::object();
    e["name"] = ev.name;
    e["cat"] = "finser";
    e["ph"] = "X";
    // Chrome tracing wants microseconds; keep sub-µs precision as a double.
    e["ts"] = static_cast<double>(ev.start_ns) * 1e-3;
    e["dur"] = static_cast<double>(ev.dur_ns) * 1e-3;
    e["pid"] = static_cast<std::int64_t>(1);
    e["tid"] = static_cast<std::int64_t>(ev.tid);
    events.push_back(std::move(e));
  }
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

void write_chrome_trace(const std::string& path) {
  const std::string text = build_chrome_trace(Registry::global()).dump(0);
  std::string error;
  if (!util::atomic_write_file(path, text.data(), text.size(), &error)) {
    throw util::Error("write_chrome_trace: " + error);
  }
}

std::string validate_run_report(const util::JsonValue& doc) {
  try {
    if (!doc.is_object()) return "document is not an object";
    if (doc.at("schema").as_string() != "finser.run_report") {
      return "schema marker mismatch";
    }
    if (doc.at("version").as_int() != kRunReportVersion) {
      return "unsupported version";
    }
    for (const char* key : {"build", "run", "metrics", "timing"}) {
      if (!doc.contains(key) || !doc.at(key).is_object()) {
        return std::string("missing section \"") + key + "\"";
      }
    }
    const util::JsonValue& run = doc.at("run");
    for (const char* key : {"tool", "seed", "threads", "config_fingerprint"}) {
      if (!run.contains(key)) return std::string("run section missing \"") + key + "\"";
    }
    const util::JsonValue& metrics = doc.at("metrics");
    if (!metrics.contains("counters") || !metrics.at("counters").is_object()) {
      return "metrics section missing counters";
    }
    if (!metrics.contains("histograms") || !metrics.at("histograms").is_object()) {
      return "metrics section missing histograms";
    }
    const util::JsonValue& timing = doc.at("timing");
    for (const char* key : {"wall_seconds", "spans", "derived"}) {
      if (!timing.contains(key)) {
        return std::string("timing section missing \"") + key + "\"";
      }
    }
    for (const auto& [name, row] : metrics.at("counters").items()) {
      if (!row.is_number()) return "counter \"" + name + "\" is not a number";
    }
    for (const auto& [name, row] : metrics.at("histograms").items()) {
      for (const char* key : {"count", "sum", "min", "max", "pow2_buckets"}) {
        if (!row.contains(key)) {
          return "histogram \"" + name + "\" missing \"" + key + "\"";
        }
      }
    }
  } catch (const util::Error& e) {
    return e.what();
  }
  return {};
}

}  // namespace finser::obs
