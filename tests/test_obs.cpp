/// \file test_obs.cpp
/// \brief finser::obs unit tests: metric primitives, the registry, the JSON
/// layer's round-trip guarantees, the RunReport schema, and the headline
/// contract — the report's "metrics" section is byte-identical across
/// thread counts for the same seed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <thread>

#include "finser/core/array_mc.hpp"
#include "finser/obs/obs.hpp"
#include "finser/obs/report.hpp"
#include "finser/util/error.hpp"
#include "finser/util/json.hpp"

namespace finser::obs {
namespace {

/// Every test runs with a clean registry and leaves collection off, so the
/// tests compose in one process in any order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_trace_enabled(false);
    set_enabled(false);
    Registry::global().reset();
  }
};

TEST_F(ObsTest, CounterAccumulatesAcrossThreads) {
  Counter& c = Registry::global().counter("t.counter");
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.total(), 8 * kPerThread);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST_F(ObsTest, IntHistogramBucketsByBitWidth) {
  IntHistogram& h = Registry::global().int_histogram("t.hist");
  h.record(0);   // bit_width 0 -> bucket 0
  h.record(1);   // bucket 1
  h.record(2);   // bucket 2
  h.record(3);   // bucket 2
  h.record(7);   // bucket 3
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 13u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  const auto b = h.buckets();
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 2u);
  EXPECT_EQ(b[3], 1u);
}

TEST_F(ObsTest, MacrosAreNoOpsWhenDisabled) {
  set_enabled(false);
  FINSER_OBS_COUNT("t.disabled", 5);
  FINSER_OBS_RECORD("t.disabled_hist", 5);
  set_enabled(true);
  const Snapshot s = Registry::global().snapshot();
  for (const auto& c : s.counters) EXPECT_NE(c.name, "t.disabled");
  for (const auto& h : s.histograms) EXPECT_NE(h.name, "t.disabled_hist");
}

TEST_F(ObsTest, ScopedSpanRecordsDuration) {
  { ScopedSpan span("t.span"); }
  { ScopedSpan span("t.span"); }
  const Snapshot s = Registry::global().snapshot();
  ASSERT_EQ(s.durations.size(), 1u);
  EXPECT_EQ(s.durations[0].name, "t.span");
  EXPECT_EQ(s.durations[0].count, 2u);
  EXPECT_GE(s.durations[0].max_ns, s.durations[0].min_ns);
}

TEST_F(ObsTest, TraceEventsBufferOnlyWhenTracing) {
  { ScopedSpan span("t.untraced"); }
  EXPECT_TRUE(Registry::global().trace_events().empty());

  set_trace_enabled(true);
  { ScopedSpan span("t.traced", "t.traced label=1"); }
  const auto events = Registry::global().trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "t.traced label=1");

  // The aggregate stat keys off the static name, not the trace label.
  bool found = false;
  for (const auto& d : Registry::global().snapshot().durations) {
    found = found || d.name == "t.traced";
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, ChromeTraceDocumentShape) {
  set_trace_enabled(true);
  { ScopedSpan span("t.ev"); }
  const util::JsonValue doc = build_chrome_trace(Registry::global());
  ASSERT_TRUE(doc.contains("traceEvents"));
  const util::JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 1u);
  const util::JsonValue& e = events.at(0);
  EXPECT_EQ(e.at("ph").as_string(), "X");
  EXPECT_EQ(e.at("name").as_string(), "t.ev");
  EXPECT_GE(e.at("dur").as_double(), 0.0);
  for (const char* key : {"ts", "pid", "tid"}) EXPECT_TRUE(e.contains(key));
  // The serialized document must survive a parse round-trip unchanged.
  EXPECT_EQ(util::JsonValue::parse(doc.dump(0)), doc);
}

TEST_F(ObsTest, ConfigureFromEnv) {
  set_enabled(false);
  ::setenv("FINSER_METRICS", "0", 1);
  EXPECT_EQ(configure_from_env(), "0");
  EXPECT_FALSE(enabled());
  ::setenv("FINSER_METRICS", "out/metrics.json", 1);
  EXPECT_EQ(configure_from_env(), "out/metrics.json");
  EXPECT_TRUE(enabled());
  ::unsetenv("FINSER_METRICS");
  set_enabled(false);
  EXPECT_EQ(configure_from_env(), "");
  EXPECT_FALSE(enabled());
}

TEST_F(ObsTest, JsonRoundTripPreservesDocument) {
  util::JsonValue doc = util::JsonValue::object();
  doc["int"] = std::int64_t{-42};
  doc["uint"] = std::uint64_t{0xFFFFFFFFFFFFFFFFull};
  doc["pi"] = 3.141592653589793;
  doc["tiny"] = 4.9e-324;  // Denormal min: stresses %.17g fidelity.
  doc["flag"] = true;
  doc["none"] = util::JsonValue();
  doc["text"] = "quote \" slash \\ newline \n unicode é";
  util::JsonValue arr = util::JsonValue::array();
  for (int i = 0; i < 4; ++i) arr.push_back(i);
  doc["arr"] = std::move(arr);

  for (const int indent : {0, 2}) {
    const util::JsonValue back = util::JsonValue::parse(doc.dump(indent));
    EXPECT_EQ(back, doc) << "indent=" << indent;
    EXPECT_EQ(back.at("uint").as_uint(), 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(back.at("int").as_int(), -42);
    EXPECT_EQ(back.at("pi").as_double(), 3.141592653589793);
  }
}

TEST_F(ObsTest, JsonParserRejectsMalformedInput) {
  EXPECT_THROW(util::JsonValue::parse("{\"a\": 1,}"), util::Error);
  EXPECT_THROW(util::JsonValue::parse("{\"a\": 1} junk"), util::Error);
  EXPECT_THROW(util::JsonValue::parse("{\"a\": 1, \"a\": 2}"), util::Error);
  EXPECT_THROW(util::JsonValue::parse("[1, 2"), util::Error);
  EXPECT_THROW(util::JsonValue::parse(""), util::Error);
}

TEST_F(ObsTest, RunReportValidatesAndRoundTrips) {
  FINSER_OBS_COUNT("t.report_counter", 7);
  FINSER_OBS_RECORD("t.report_hist", 12);
  { ScopedSpan span("t.report_span"); }

  RunInfo info;
  info.tool = "test";
  info.command = "unit";
  info.seed = 99;
  info.threads = 4;
  info.mc_scale = 0.5;
  info.config_fingerprint = 0xDEADBEEFCAFEF00Dull;
  const util::JsonValue doc =
      build_run_report(Registry::global().snapshot(), info);

  EXPECT_EQ(validate_run_report(doc), "");
  EXPECT_EQ(doc.at("run").at("config_fingerprint").as_string(),
            "0xdeadbeefcafef00d");
  EXPECT_EQ(doc.at("run").at("seed").as_uint(), 99u);
  EXPECT_EQ(
      doc.at("metrics").at("counters").at("t.report_counter").as_uint(), 7u);

  // Serialized round trip: parse(dump) is the same document and still valid.
  const util::JsonValue back = util::JsonValue::parse(doc.dump(2));
  EXPECT_EQ(back, doc);
  EXPECT_EQ(validate_run_report(back), "");

  // Validation rejects structural damage.
  util::JsonValue broken = doc;
  broken["schema"] = "not.a.run.report";
  EXPECT_NE(validate_run_report(broken), "");
  EXPECT_NE(validate_run_report(util::JsonValue::parse("{}")), "");
}

TEST_F(ObsTest, DerivedRatesMatchReportSpansAndCounters) {
  // Every event path: scalar and lane-batched transients, array and neutron
  // MC and the device-level fin MC.
  Registry& reg = Registry::global();
  reg.counter("spice.tran.runs").add(900);
  reg.duration("spice.tran.run").record_ns(1'000'000'000);
  reg.duration("spice.tran.run_batch").record_ns(2'000'000'000);
  reg.counter("core.array_mc.strikes").add(3000);
  reg.counter("core.neutron_mc.histories").add(500);
  reg.counter("phys.fin_mc.samples").add(200);
  reg.duration("core.array_mc.run").record_ns(2'000'000'000);
  reg.duration("core.neutron_mc.run").record_ns(500'000'000);
  reg.duration("phys.fin_mc.run").record_ns(500'000'000);

  const util::JsonValue doc = build_run_report(reg.snapshot(), RunInfo{});
  const util::JsonValue& counters = doc.at("metrics").at("counters");
  const util::JsonValue& spans = doc.at("timing").at("spans");
  const util::JsonValue& derived = doc.at("timing").at("derived");
  const auto count = [&](const char* name) {
    return static_cast<double>(counters.at(name).as_uint());
  };
  const auto busy = [&](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) {
      total += spans.at(name).at("total_s").as_double();
    }
    return total;
  };

  const double particles = count("core.array_mc.strikes") +
                           count("core.neutron_mc.histories") +
                           count("phys.fin_mc.samples");
  EXPECT_EQ(derived.at("particles").as_uint(), 3700u);
  EXPECT_DOUBLE_EQ(derived.at("particles_per_second").as_double(),
                   particles / busy({"core.array_mc.run",
                                     "core.neutron_mc.run",
                                     "phys.fin_mc.run"}));
  EXPECT_DOUBLE_EQ(derived.at("transients_per_second").as_double(),
                   count("spice.tran.runs") /
                       busy({"spice.tran.run", "spice.tran.run_batch"}));
  EXPECT_DOUBLE_EQ(derived.at("transients_per_second").as_double(), 300.0);
  // A new derived rate must be recomputed here too.
  EXPECT_EQ(derived.size(), 3u);
}

// ---------------------------------------------------------------------------
// The determinism contract: same seed, different thread counts, identical
// "metrics" JSON bytes. Exercises the full wired pipeline (exec + geom +
// core counters) through ArrayMc with a synthetic SPICE-free cell model.
// ---------------------------------------------------------------------------

sram::CellSoftErrorModel threshold_model(double vdd, double q_thresh_fc) {
  sram::PofTable t;
  t.vdd_v = vdd;
  t.q_max_fc = 0.4;
  for (auto& s : t.singles) {
    s.nominal_qcrit_fc = q_thresh_fc;
    s.total_samples = 2;
    s.qcrit_samples_fc = {0.8 * q_thresh_fc, 1.2 * q_thresh_fc};
  }
  const util::Axis axis({0.0, q_thresh_fc, 0.4});
  std::vector<double> v2(9, 1.0);
  v2[0] = 0.0;
  for (int p = 0; p < 3; ++p) {
    t.pairs_pv[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v2);
    t.pairs_nominal[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v2);
  }
  std::vector<double> v3(27, 1.0);
  v3[0] = 0.0;
  t.triple_pv = util::Grid3(axis, axis, axis, v3);
  t.triple_nominal = util::Grid3(axis, axis, axis, v3);
  sram::CellSoftErrorModel m;
  m.tables.push_back(std::move(t));
  return m;
}

std::string metrics_bytes_at(std::size_t threads) {
  Registry::global().reset();
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  const sram::CellSoftErrorModel model = threshold_model(0.8, 0.05);
  core::ArrayMcConfig cfg;
  cfg.strikes = 6000;
  cfg.threads = threads;
  core::ArrayMc mc(layout, model, cfg);
  (void)mc.run(phys::Species::kAlpha, 2.0, 20140601);
  return metrics_json(Registry::global().snapshot()).dump(2);
}

TEST_F(ObsTest, MetricsSectionByteIdenticalAcrossThreadCounts) {
  const std::string at1 = metrics_bytes_at(1);
  const std::string at4 = metrics_bytes_at(4);
  EXPECT_EQ(at1, at4);

  // And the section is non-trivial: the wired counters actually fired.
  const util::JsonValue m = util::JsonValue::parse(at1);
  const util::JsonValue& counters = m.at("counters");
  EXPECT_EQ(counters.at("core.array_mc.strikes").as_uint(), 6000u);
  EXPECT_GT(counters.at("core.array_mc.strike_hits").as_uint(), 0u);
  EXPECT_GT(counters.at("exec.chunks").as_uint(), 0u);
  EXPECT_EQ(counters.at("exec.items").as_uint(), 6000u);
  EXPECT_GT(counters.at("geom.grid_queries").as_uint(), 0u);
}

}  // namespace
}  // namespace finser::obs
