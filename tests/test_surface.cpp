/// \file test_surface.cpp
/// \brief finser::surface unit tests: from_sweep channel copies, the
/// byte-stable query contract (exact nodes bitwise, clamped edges bitwise),
/// the versioned codec, the hoisted cell-model codec, surface fingerprints,
/// the SurfaceProvider cache under a concurrent refine, and the ServeSession
/// NDJSON loop against synthetic lookup/refine hooks.

#include "finser/surface/response_surface.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <gtest/gtest.h>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "finser/core/array_engine.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/pipeline/surface_provider.hpp"
#include "finser/surface/serve.hpp"
#include "finser/util/error.hpp"
#include "finser/util/json.hpp"

namespace finser::surface {
namespace {

bool bits_eq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Synthetic finished sweep with distinct, deterministic channel values —
/// value(b, v, m) is injective so a copy/transpose bug cannot cancel out.
core::EnergySweepResult make_sweep(std::size_t nv = 3, std::size_t nb = 4) {
  core::EnergySweepResult s;
  s.species = phys::Species::kAlpha;
  for (std::size_t v = 0; v < nv; ++v) {
    s.vdds.push_back(0.7 + 0.1 * static_cast<double>(v));
  }
  for (std::size_t b = 0; b < nb; ++b) {
    env::EnergyBin bin;
    bin.e_rep_mev = std::pow(2.0, static_cast<double>(b));  // geometric
    bin.e_lo_mev = bin.e_rep_mev / 1.5;
    bin.e_hi_mev = bin.e_rep_mev * 1.5;
    bin.integral_flux_per_cm2_s = 1.0 + static_cast<double>(b);
    s.bins.push_back(bin);
  }
  s.per_bin.resize(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    s.per_bin[b].vdds = s.vdds;
    s.per_bin[b].est.resize(nv);
    for (std::size_t v = 0; v < nv; ++v) {
      for (std::size_t m = 0; m < 2; ++m) {
        const double base = 0.001 * static_cast<double>(100 * b + 10 * v + m + 1);
        core::PofEstimate& e = s.per_bin[b].est[v][m];
        e.tot = base;
        e.seu = base * 0.75;
        e.mbu = base * 0.25;
        e.tot_se = base * 0.01;
      }
    }
  }
  s.fit.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t m = 0; m < 2; ++m) {
      const double base = 10.0 * static_cast<double>(10 * v + m + 1);
      s.fit[v][m].fit_tot = base;
      s.fit[v][m].fit_seu = base * 0.8;
      s.fit[v][m].fit_mbu = base * 0.2;
    }
  }
  return s;
}

ResponseSurface make_surface(std::size_t nv = 3, std::size_t nb = 4) {
  return ResponseSurface::from_sweep("scen", 300.0, 0x1234abcdu,
                                     make_sweep(nv, nb));
}

TEST(ResponseSurface, FromSweepCopiesChannelsBitExact) {
  const core::EnergySweepResult sweep = make_sweep();
  const ResponseSurface s = make_surface();
  EXPECT_EQ(s.scenario, "scen");
  EXPECT_EQ(s.species, "alpha");
  EXPECT_EQ(s.n_vdd(), 3u);
  EXPECT_EQ(s.n_bins(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t v = 0; v < 3; ++v) {
      for (const std::size_t m : {core::kModeNominal, core::kModeWithPv}) {
        const core::PofEstimate& e = sweep.per_bin[b].est[v][m];
        const int mi = static_cast<int>(m);
        EXPECT_TRUE(bits_eq(s.pof_at(s.pof_tot, mi, b, v), e.tot));
        EXPECT_TRUE(bits_eq(s.pof_at(s.pof_seu, mi, b, v), e.seu));
        EXPECT_TRUE(bits_eq(s.pof_at(s.pof_mbu, mi, b, v), e.mbu));
        EXPECT_TRUE(bits_eq(s.pof_at(s.pof_tot_se, mi, b, v), e.tot_se));
      }
    }
  }
  for (std::size_t v = 0; v < 3; ++v) {
    for (const std::size_t m : {core::kModeNominal, core::kModeWithPv}) {
      EXPECT_TRUE(bits_eq(s.fit_tot[m][v], sweep.fit[v][m].fit_tot));
      EXPECT_TRUE(bits_eq(s.fit_seu[m][v], sweep.fit[v][m].fit_seu));
      EXPECT_TRUE(bits_eq(s.fit_mbu[m][v], sweep.fit[v][m].fit_mbu));
    }
  }
}

TEST(ResponseSurface, GridPointQueriesReturnNodeValuesBitwise) {
  const ResponseSurface s = make_surface();
  for (std::size_t b = 0; b < s.n_bins(); ++b) {
    for (std::size_t v = 0; v < s.n_vdd(); ++v) {
      EXPECT_TRUE(s.is_grid_vdd(s.vdds[v]));
      EXPECT_TRUE(s.is_grid_energy(s.bins[b].e_rep_mev));
      for (const bool with_pv : {false, true}) {
        const int m = with_pv ? static_cast<int>(core::kModeWithPv)
                              : static_cast<int>(core::kModeNominal);
        const PofSample p = s.pof(s.vdds[v], s.bins[b].e_rep_mev, with_pv);
        EXPECT_TRUE(bits_eq(p.tot, s.pof_at(s.pof_tot, m, b, v)));
        EXPECT_TRUE(bits_eq(p.seu, s.pof_at(s.pof_seu, m, b, v)));
        EXPECT_TRUE(bits_eq(p.mbu, s.pof_at(s.pof_mbu, m, b, v)));
        EXPECT_TRUE(bits_eq(p.tot_se, s.pof_at(s.pof_tot_se, m, b, v)));
        const FitSample f = s.fit(s.vdds[v], with_pv);
        const std::size_t mu = static_cast<std::size_t>(m);
        EXPECT_TRUE(bits_eq(f.tot, s.fit_tot[mu][v]));
        EXPECT_TRUE(bits_eq(f.seu, s.fit_seu[mu][v]));
        EXPECT_TRUE(bits_eq(f.mbu, s.fit_mbu[mu][v]));
      }
    }
  }
  EXPECT_FALSE(s.is_grid_vdd(0.75));
  EXPECT_FALSE(s.is_grid_energy(3.0));
}

TEST(ResponseSurface, InteriorQueriesStayWithinCornerValues) {
  const ResponseSurface s = make_surface();
  const PofSample p = s.pof(0.75, 3.0, true);  // between v0/v1 and b1/b2
  const int m = static_cast<int>(core::kModeWithPv);
  double lo = 1.0, hi = 0.0;
  for (std::size_t b = 1; b <= 2; ++b) {
    for (std::size_t v = 0; v <= 1; ++v) {
      lo = std::min(lo, s.pof_at(s.pof_tot, m, b, v));
      hi = std::max(hi, s.pof_at(s.pof_tot, m, b, v));
    }
  }
  EXPECT_GE(p.tot, lo);
  EXPECT_LE(p.tot, hi);
  // FIT between the two nodes:
  const FitSample f = s.fit(0.75, true);
  EXPECT_GT(f.tot, std::min(s.fit_tot[1][0], s.fit_tot[1][1]));
  EXPECT_LT(f.tot, std::max(s.fit_tot[1][0], s.fit_tot[1][1]));
}

TEST(ResponseSurface, OutOfRangeClampsToEdgeNodesBitwise) {
  const ResponseSurface s = make_surface();
  const int m = static_cast<int>(core::kModeWithPv);
  const std::size_t last_v = s.n_vdd() - 1;
  const std::size_t last_b = s.n_bins() - 1;
  EXPECT_TRUE(bits_eq(s.pof(0.1, 0.01, true).tot, s.pof_at(s.pof_tot, m, 0, 0)));
  EXPECT_TRUE(bits_eq(s.pof(5.0, 1e6, true).tot,
                      s.pof_at(s.pof_tot, m, last_b, last_v)));
  EXPECT_TRUE(bits_eq(s.fit(0.1, true).tot, s.fit_tot[1][0]));
  EXPECT_TRUE(bits_eq(s.fit(5.0, true).tot, s.fit_tot[1][last_v]));
}

TEST(ResponseSurface, DegenerateSingleNodeAxesCollapse) {
  const ResponseSurface s = make_surface(1, 1);
  const int m = static_cast<int>(core::kModeWithPv);
  // Every query — on, below, above the lone node — answers the node.
  for (const double vdd : {0.1, 0.7, 9.0}) {
    for (const double e : {0.01, 1.0, 1e4}) {
      EXPECT_TRUE(bits_eq(s.pof(vdd, e, true).tot, s.pof_at(s.pof_tot, m, 0, 0)));
    }
    EXPECT_TRUE(bits_eq(s.fit(vdd, true).tot, s.fit_tot[1][0]));
  }
}

TEST(ResponseSurface, CodecRoundTripIsByteStable) {
  const ResponseSurface s = make_surface();
  const std::vector<std::uint8_t> blob = s.encode();
  const ResponseSurface d = ResponseSurface::decode(blob);
  EXPECT_EQ(d.scenario, s.scenario);
  EXPECT_EQ(d.species, s.species);
  EXPECT_TRUE(bits_eq(d.temp_k, s.temp_k));
  EXPECT_EQ(d.fingerprint, s.fingerprint);
  // Re-encoding the decoded surface must reproduce the exact payload: the
  // warm-restart byte-identity contract is this round trip.
  EXPECT_EQ(d.encode(), blob);
  // And decoded queries answer bitwise like the original.
  const PofSample a = s.pof(0.75, 3.0, true);
  const PofSample b = d.pof(0.75, 3.0, true);
  EXPECT_TRUE(bits_eq(a.tot, b.tot));
  EXPECT_TRUE(bits_eq(a.seu, b.seu));
  EXPECT_TRUE(bits_eq(a.mbu, b.mbu));
  EXPECT_TRUE(bits_eq(a.tot_se, b.tot_se));
}

TEST(ResponseSurface, DecodeRejectsMalformedBlobs) {
  const std::vector<std::uint8_t> blob = make_surface().encode();
  // Truncation at any of a few depths throws, never crashes.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{16}, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(ResponseSurface::decode(cut), util::Error);
  }
  // Unknown codec version.
  std::vector<std::uint8_t> wrong = blob;
  wrong[0] = 0xEE;
  EXPECT_THROW(ResponseSurface::decode(wrong), util::Error);
  // Trailing garbage.
  std::vector<std::uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_THROW(ResponseSurface::decode(padded), util::Error);
}

TEST(ResponseSurface, ValidateRejectsChannelSizeMismatch) {
  ResponseSurface s = make_surface();
  EXPECT_NO_THROW(s.validate());
  s.pof_tot[0].pop_back();
  EXPECT_THROW(s.validate(), util::Error);
}

TEST(CellModelCodec, RoundTripsAndRestoresFingerprintFromKey) {
  sram::CellSoftErrorModel model;
  model.config_fingerprint = 0xfeedbeef;  // *not* serialized: key carries it
  const std::vector<std::uint8_t> blob = encode_cell_model(model);
  const sram::CellSoftErrorModel back = decode_cell_model(blob, 0x1111);
  EXPECT_TRUE(back.tables.empty());
  EXPECT_EQ(back.config_fingerprint, 0x1111u);
  std::vector<std::uint8_t> padded = blob;
  padded.push_back(7);
  EXPECT_THROW(decode_cell_model(padded, 0), util::Error);
}

TEST(SurfaceFingerprint, StableAndSensitiveToSpeciesPosition) {
  pipeline::ScenarioSpec scen;
  scen.name = "s";
  scen.species = {"alpha", "proton"};
  const std::uint64_t a0 = pipeline::response_surface_fingerprint(scen, 0);
  const std::uint64_t a1 = pipeline::response_surface_fingerprint(scen, 1);
  EXPECT_EQ(a0, pipeline::response_surface_fingerprint(scen, 0));
  // Same scenario, different position in the sweep order: different seeds
  // were consumed before this species, so the identity must differ.
  EXPECT_NE(a0, a1);
  // Any physics knob shifts the identity...
  pipeline::ScenarioSpec warm = scen;
  warm.flow.cell_design.temp_k += 50.0;
  EXPECT_NE(a0, pipeline::response_surface_fingerprint(warm, 0));
  // ...but the scenario display name does not change the physics hash used
  // here beyond the campaign document (name is part of the document).
  EXPECT_THROW(pipeline::response_surface_fingerprint(scen, 2),
               util::InvalidArgument);
}

/// Turns metric collection on and zeroes the registry for one test, then
/// restores the previous switch.
class ObsOn {
 public:
  ObsOn() : was_(obs::enabled()) {
    obs::set_enabled(true);
    obs::Registry::global().reset();
  }
  ~ObsOn() { obs::set_enabled(was_); }

  static std::uint64_t counter(const std::string& name) {
    return obs::Registry::global().counter(name).total();
  }

 private:
  bool was_;
};

// lookup() from four threads while refine() of the same scenario runs: the
// store is seeded with a synthetic surface under the scenario's real
// identity, so lookup serves it and the refinement then builds a different
// surface for the same key. First writer wins: every pointer handed out
// before the refine must still read the seeded bytes after it.
TEST(SurfaceProvider, LookupPointersSurviveAConcurrentRefine) {
  const ObsOn obs_on;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "finser_surface_provider_mt")
          .string();
  std::filesystem::remove_all(dir);

  core::SerFlowConfig flow;
  flow.array_rows = 2;
  flow.array_cols = 2;
  flow.characterization.vdds = {0.8};
  flow.characterization.pv_samples_single = 6;
  flow.characterization.pair_grid_points = 6;
  flow.characterization.triple_grid_points = 6;
  flow.characterization.pv_samples_grid = 4;
  flow.array_mc.strikes = 1000;
  flow.alpha_bins = 3;
  flow.seed = 11;
  pipeline::CampaignSpec spec =
      pipeline::single_scenario_campaign(flow, {"alpha"}, "", "tiny");
  spec.artifact_dir = dir;

  pipeline::ScenarioSpec resolved = spec.scenarios[0];
  pipeline::resolve_flow_for_execution(resolved.flow);
  ResponseSurface seeded = make_surface();
  seeded.fingerprint = pipeline::response_surface_fingerprint(resolved, 0);
  ASSERT_TRUE(pipeline::ArtifactStore(dir).put(
      pipeline::ArtifactKey{kResponseSurfaceKind, seeded.fingerprint},
      seeded.encode()));

  pipeline::SurfaceProvider provider(spec, 2);
  const ResponseSurface* first = provider.lookup("tiny", "alpha");
  ASSERT_NE(first, nullptr);
  const std::vector<std::uint8_t> bytes = first->encode();
  ASSERT_EQ(bytes, seeded.encode());

  std::atomic<bool> done{false};
  std::atomic<int> lookups{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      do {
        const ResponseSurface* p = provider.lookup("tiny", "alpha");
        if (p != first || p->encode() != bytes) ++mismatches;
        ++lookups;
      } while (!done.load());
    });
  }
  const ResponseSurface* refined = nullptr;
  std::string refine_error;
  try {
    refined = provider.refine("tiny", "alpha");
  } catch (const std::exception& e) {
    refine_error = e.what();
  }
  done = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(refine_error, "");

  EXPECT_GT(lookups.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(refined, first);  // the refinement did not replace the entry
  EXPECT_EQ(first->encode(), bytes);
  EXPECT_EQ(ObsOn::counter("surface.builds"), 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ServeSession against synthetic hooks: no simulation, pure protocol.
// ---------------------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream split(text);
  std::string l;
  while (std::getline(split, l)) lines.push_back(l);
  return lines;
}

std::vector<std::string> run_session(const std::string& input,
                                     ServeSession& session, int& rc) {
  std::istringstream in(input);
  std::ostringstream out;
  rc = session.run(in, out);
  return split_lines(out.str());
}

std::vector<ServeScenario> one_scenario_catalog() {
  ServeScenario sc;
  sc.name = "scen";
  sc.species = {"alpha"};
  sc.temp_k = 300.0;
  return {sc};
}

TEST(ServeSession, CacheHitsAnswerWithoutRefinementAndDrainCleanly) {
  const ResponseSurface surf = make_surface();
  int refines = 0;
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [&surf](const std::string&, const std::string&) { return &surf; },
      [&refines](const std::string&, const std::string&) -> const ResponseSurface* {
        ++refines;
        return nullptr;
      },
      nullptr);
  int rc = -1;
  const auto lines = run_session(
      "{\"id\": 1, \"op\": \"pof\", \"species\": \"alpha\", \"vdd\": 0.7, "
      "\"energy_mev\": 2.0}\n"
      "{\"id\": 2, \"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.7, "
      "\"with_pv\": false}\n"
      "{\"op\":\"shutdown\"}\n",
      session, rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(refines, 0);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"grid_point\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"pof_tot\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"fit_tot\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"op\":\"shutdown\""), std::string::npos);
}

TEST(ServeSession, RepeatedQueriesAreByteIdenticalAcrossCacheStates) {
  const ResponseSurface surf = make_surface();
  const std::string query =
      "{\"id\": \"q\", \"op\": \"pof\", \"species\": \"alpha\", "
      "\"vdd\": 0.8, \"energy_mev\": 2.0}\n";

  // Session A: every lookup hits. Session B: first lookup misses and the
  // surface arrives via refine. The response *bytes* must match — replies
  // carry no provenance, so cache state is unobservable.
  ServeSession hit(
      one_scenario_catalog(), ServeConfig{},
      [&surf](const std::string&, const std::string&) { return &surf; },
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;
      },
      nullptr);
  bool refined = false;
  ServeSession miss(
      one_scenario_catalog(), ServeConfig{},
      [&surf, &refined](const std::string&,
                        const std::string&) -> const ResponseSurface* {
        return refined ? &surf : nullptr;
      },
      [&surf, &refined](const std::string&, const std::string&) {
        refined = true;
        return &surf;
      },
      nullptr);
  int rc_a = -1, rc_b = -1;
  const auto a = run_session(query, hit, rc_a);
  const auto b = run_session(query, miss, rc_b);
  EXPECT_EQ(rc_a, 0);
  EXPECT_EQ(rc_b, 0);
  EXPECT_TRUE(refined);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0], b[0]);
}

/// The `ok` reply to \p req built the way the serve loop once built it: a
/// util::JsonValue object, dumped. The oracle of the direct reply writer.
std::string dom_reply(const util::JsonValue& req, const ResponseSurface& s) {
  util::JsonValue r = util::JsonValue::object();
  if (req.contains("id")) r["id"] = req.at("id");
  r["status"] = "ok";
  const std::string op = req.at("op").as_string();
  const double vdd = req.at("vdd").as_double();
  const bool with_pv =
      req.contains("with_pv") ? req.at("with_pv").as_bool() : true;
  r["op"] = op;
  r["scenario"] = req.contains("scenario") ? req.at("scenario").as_string()
                                           : std::string("scen");
  r["species"] = req.at("species").as_string();
  r["vdd"] = vdd;
  if (op == "pof") {
    const double e = req.at("energy_mev").as_double();
    r["energy_mev"] = e;
    r["with_pv"] = with_pv;
    r["grid_point"] = s.is_grid_vdd(vdd) && s.is_grid_energy(e);
    const PofSample p = s.pof(vdd, e, with_pv);
    r["pof_tot"] = p.tot;
    r["pof_seu"] = p.seu;
    r["pof_mbu"] = p.mbu;
    r["pof_tot_se"] = p.tot_se;
  } else {
    r["with_pv"] = with_pv;
    r["grid_point"] = s.is_grid_vdd(vdd);
    const FitSample f = s.fit(vdd, with_pv);
    r["fit_tot"] = f.tot;
    r["fit_seu"] = f.seu;
    r["fit_mbu"] = f.mbu;
  }
  return r.dump();
}

TEST(ServeSession, OkRepliesMatchTheDomOracleByteForByte) {
  const ResponseSurface surf = make_surface();
  const char* ids[] = {nullptr,
                       "7",
                       "-42",
                       "18446744073709551615",
                       "2.5",
                       "\"a\\\"b\\\\c\\n\\u0001\\u00e9/\"",
                       "null",
                       "{\"k\": [1, {\"n\": null}], \"s\": \"x\", \"d\": 1e-5}"};
  // Grid node, off-grid interior, and clamped beyond both axes.
  const char* points[][2] = {{"0.8", "2.0"}, {"0.7300001", "1.3"},
                             {"1.5", "100"}};
  const char* with_pv[] = {nullptr, "true", "false"};
  std::string input;
  std::vector<std::string> expected;
  int n = 0;
  for (const char* op : {"pof", "fit"}) {
    for (const auto& pt : points) {
      for (const char* pv : with_pv) {
        for (const char* id : ids) {
          std::string q = "{";
          if (id != nullptr) q += std::string("\"id\": ") + id + ", ";
          q += std::string("\"op\": \"") + op + "\", ";
          if (++n % 2 == 0) q += "\"scenario\": \"scen\", ";
          q += std::string("\"species\": \"alpha\", \"vdd\": ") + pt[0];
          if (std::string(op) == "pof") {
            q += std::string(", \"energy_mev\": ") + pt[1];
          }
          if (pv != nullptr) q += std::string(", \"with_pv\": ") + pv;
          q += "}";
          input += q + "\n";
          expected.push_back(dom_reply(util::JsonValue::parse(q), surf));
        }
      }
    }
  }

  // Inline hits, and the same queries answered by the refiner as misses.
  ServeSession hits(
      one_scenario_catalog(), ServeConfig{},
      [&surf](const std::string&, const std::string&) { return &surf; },
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;
      },
      nullptr);
  ServeSession misses(
      one_scenario_catalog(), ServeConfig{expected.size()},
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;
      },
      [&surf](const std::string&, const std::string&) { return &surf; },
      nullptr);
  for (ServeSession* session : {&hits, &misses}) {
    int rc = -1;
    const auto lines = run_session(input, *session, rc);
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(lines.size(), expected.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i], expected[i]);
    }
  }
}

TEST(ServeSession, MalformedAndUnknownRequestsDegradeButKeepServing) {
  const ResponseSurface surf = make_surface();
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [&surf](const std::string&, const std::string&) { return &surf; },
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;
      },
      nullptr);
  int rc = -1;
  const auto lines = run_session(
      "this is not json\n"
      "{\"op\": \"frobnicate\"}\n"
      "{\"op\": \"pof\", \"species\": \"muon\", \"vdd\": 0.8, "
      "\"energy_mev\": 1.0}\n"
      "{\"op\": \"pof\", \"species\": \"alpha\", \"vdd\": \"high\", "
      "\"energy_mev\": 1.0}\n"
      "{\"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.8}\n",
      session, rc);
  EXPECT_EQ(rc, 6);  // degraded: errors occurred, but the loop kept going
  ASSERT_EQ(lines.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NE(lines[i].find("\"status\":\"error\""), std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines[4].find("\"status\":\"ok\""), std::string::npos);
}

TEST(ServeSession, ShedsWhenPendingQueueIsFull) {
  const ResponseSurface surf = make_surface();
  bool built = false;
  ServeConfig cfg;
  cfg.max_pending = 1;
  ServeSession session(
      one_scenario_catalog(), cfg,
      [&surf, &built](const std::string&,
                      const std::string&) -> const ResponseSurface* {
        return built ? &surf : nullptr;
      },
      [&surf, &built](const std::string&, const std::string&) {
        built = true;
        return &surf;
      },
      nullptr);
  int rc = -1;
  const auto lines = run_session(
      "{\"id\": 1, \"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.8}\n"
      "{\"id\": 2, \"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.9}\n",
      session, rc);
  EXPECT_EQ(rc, 6);  // a shed reply is a degraded run
  ASSERT_EQ(lines.size(), 2u);
  // The shed reply is immediate, so it precedes the queued answer.
  EXPECT_NE(lines[0].find("\"status\":\"shed\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":1"), std::string::npos);
}

TEST(ServeSession, CancelledTokenDrainsWithCacheOnlyAnswers) {
  const ResponseSurface surf = make_surface();
  exec::CancelToken cancel;
  cancel.cancel();
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;  // nothing cached
      },
      [&surf](const std::string&, const std::string&) {
        ADD_FAILURE() << "refine must not run after cancellation";
        return &surf;
      },
      &cancel);
  int rc = -1;
  const auto lines = run_session(
      "{\"id\": 9, \"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.8}\n",
      session, rc);
  // Pre-cancelled token: the loop exits before reading; no replies, clean.
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(lines.empty());
}


/// A one-shot gate: open() once, wait() until opened or \p timeout passes
/// (a timeout is a test failure, never a hang).
class Gate {
 public:
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  bool wait(std::chrono::seconds timeout = std::chrono::seconds(30)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Input that hands out one line per read, like a client writing requests
/// one at a time: after each line in_avail() is 0, so every line is a
/// blocking boundary. \p on_eof runs once, on the reading thread, when the
/// lines run out.
class LineFeed final : public std::streambuf {
 public:
  LineFeed(std::vector<std::string> lines, std::function<void()> on_eof)
      : lines_(std::move(lines)), on_eof_(std::move(on_eof)) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == lines_.size()) {
      if (on_eof_) std::exchange(on_eof_, nullptr)();
      return traits_type::eof();
    }
    current_ = lines_[next_++] + "\n";
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  std::function<void()> on_eof_;
  std::size_t next_ = 0;
  std::string current_;
};

std::string fit_query(int id, const char* species) {
  return "{\"id\": " + std::to_string(id) +
         ", \"op\": \"fit\", \"species\": \"" + species +
         "\", \"vdd\": 0.8}";
}

TEST(ServeSession, HitsAreAnsweredWhileARefinementRuns) {
  const ResponseSurface surf = make_surface();
  ServeScenario sc;
  sc.name = "scen";
  sc.species = {"alpha", "proton"};
  Gate refine_may_finish;
  std::atomic<bool> refined{false};
  int refines = 0;
  ServeSession session(
      {sc}, ServeConfig{},
      [&surf, &refined](const std::string&,
                        const std::string& sp) -> const ResponseSurface* {
        return sp == "alpha" || refined.load() ? &surf : nullptr;
      },
      [&](const std::string&, const std::string&) {
        ++refines;
        EXPECT_TRUE(refine_may_finish.wait());
        refined = true;
        return &surf;
      },
      nullptr);
  // One proton miss, then five alpha hits, each line its own read.
  std::vector<std::string> input = {fit_query(0, "proton")};
  for (int id = 1; id <= 5; ++id) input.push_back(fit_query(id, "alpha"));
  std::ostringstream out;
  std::string before_open;  // the replies written while refine was held
  LineFeed feed(input, [&] {
    before_open = out.str();
    refine_may_finish.open();
  });
  std::istream in(&feed);
  const int rc = session.run(in, out);

  EXPECT_EQ(rc, 0);
  EXPECT_EQ(refines, 1);
  const auto held = split_lines(before_open);
  ASSERT_EQ(held.size(), 5u);
  for (int id = 1; id <= 5; ++id) {
    EXPECT_NE(held[id - 1].find("\"id\":" + std::to_string(id) + ","),
              std::string::npos)
        << held[id - 1];
    EXPECT_NE(held[id - 1].find("\"status\":\"ok\""), std::string::npos);
  }
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(std::vector<std::string>(lines.begin(), lines.begin() + 5), held);
  EXPECT_NE(lines[5].find("\"id\":0,"), std::string::npos) << lines[5];
  EXPECT_NE(lines[5].find("\"status\":\"ok\""), std::string::npos);
}

TEST(ServeSession, HitBurstOverTheBoundIsNotShed) {
  const ResponseSurface surf = make_surface();
  ServeConfig cfg;
  cfg.max_pending = 64;
  ServeSession session(
      one_scenario_catalog(), cfg,
      [&surf](const std::string&, const std::string&) { return &surf; },
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        ADD_FAILURE() << "a hit burst must not refine";
        return nullptr;
      },
      nullptr);
  std::string burst;
  for (int id = 0; id < 2048; ++id) burst += fit_query(id, "alpha") + "\n";
  int rc = -1;
  const auto lines = run_session(burst, session, rc);
  EXPECT_EQ(rc, 0);
  ASSERT_EQ(lines.size(), 2048u);
  std::size_t ok = 0;
  for (const std::string& l : lines) {
    ok += l.find("\"status\":\"ok\"") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(ok, 2048u);
}

TEST(ServeSession, CancelDuringARefinementCancelsTheWaitingMisses) {
  const ResponseSurface surf = make_surface();
  exec::CancelToken cancel;
  Gate refine_started;
  int refines = 0;
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;  // nothing cached
      },
      [&](const std::string&, const std::string&) -> const ResponseSurface* {
        ++refines;
        refine_started.open();
        // Cooperative cancellation, as a CampaignRunner polls its token.
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!cancel.cancelled() &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw util::Cancelled("refinement cancelled");
      },
      &cancel);
  // Miss 1 starts the refinement, miss 2 queues behind it; the "signal"
  // arrives once both are in, while the refinement is still running.
  LineFeed feed({fit_query(1, "alpha"), fit_query(2, "alpha")}, [&] {
    EXPECT_TRUE(refine_started.wait());
    cancel.cancel();
  });
  std::istream in(&feed);
  std::ostringstream out;
  const int rc = session.run(in, out);

  EXPECT_EQ(rc, 6);
  EXPECT_EQ(refines, 1);  // no second refinement after the cancel
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  for (int id = 1; id <= 2; ++id) {
    EXPECT_NE(lines[id - 1].find("\"id\":" + std::to_string(id) + ","),
              std::string::npos)
        << lines[id - 1];
    EXPECT_NE(lines[id - 1].find("\"status\":\"cancelled\""),
              std::string::npos)
        << lines[id - 1];
  }
}

TEST(ServeSession, StatsSettlesBehindAnInFlightMiss) {
  const ObsOn obs_on;
  const ResponseSurface surf = make_surface();
  std::atomic<bool> refined{false};
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [&surf, &refined](const std::string&,
                        const std::string&) -> const ResponseSurface* {
        return refined.load() ? &surf : nullptr;
      },
      [&surf, &refined](const std::string&, const std::string&) {
        // Long enough that `stats` arrives while this is in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        refined = true;
        return &surf;
      },
      nullptr);
  LineFeed feed({fit_query(1, "alpha"), "{\"id\": 2, \"op\": \"stats\"}"},
                nullptr);
  std::istream in(&feed);
  std::ostringstream out;
  const int rc = session.run(in, out);

  EXPECT_EQ(rc, 0);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\":1,"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  const util::JsonValue stats = util::JsonValue::parse(lines[1]);
  EXPECT_EQ(stats.at("id").as_uint(), 2u);
  EXPECT_EQ(stats.at("counters").at("serve.refines").as_uint(), 1u);
  EXPECT_EQ(stats.at("counters").at("serve.batches").as_uint(), 1u);
  const util::JsonValue& hists = stats.at("histograms");
  EXPECT_EQ(hists.at("serve.refine_ms").at("count").as_uint(), 1u);
  EXPECT_GE(hists.at("serve.refine_ms").at("max").as_uint(), 50u);
  EXPECT_EQ(hists.at("serve.miss_wait_ms").at("count").as_uint(), 1u);
}

TEST(ServeSession, EachInlineHitRecordsItsLatency) {
  const ObsOn obs_on;
  const ResponseSurface surf = make_surface();
  std::atomic<bool> refined{false};
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [&surf, &refined](const std::string&,
                        const std::string&) -> const ResponseSurface* {
        return refined.load() ? &surf : nullptr;
      },
      [&surf, &refined](const std::string&, const std::string&) {
        refined = true;
        return &surf;
      },
      nullptr);
  int rc = -1;
  // One miss (refined, not an inline hit), then three hits and a stats.
  const auto lines = run_session(
      fit_query(1, "alpha") + "\n{\"op\": \"stats\"}\n" +
          fit_query(2, "alpha") + "\n" + fit_query(3, "alpha") + "\n" +
          fit_query(4, "alpha") + "\n{\"op\": \"stats\"}\n",
      session, rc);
  EXPECT_EQ(rc, 0);
  ASSERT_EQ(lines.size(), 6u);
  const util::JsonValue stats = util::JsonValue::parse(lines[5]);
  EXPECT_EQ(stats.at("counters").at("serve.cache_hits").as_uint(), 3u);
  const util::JsonValue& hit_us = stats.at("histograms").at("serve.hit_us");
  EXPECT_EQ(hit_us.at("count").as_uint(), 3u);
  EXPECT_LE(hit_us.at("min").as_uint(), hit_us.at("max").as_uint());
}

}  // namespace
}  // namespace finser::surface
