#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "finser/pipeline/artifact_store.hpp"
#include "finser/sram/pof_table.hpp"
#include "finser/surface/response_surface.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/io.hpp"

namespace finser::sram {
namespace {

/// Hand-built table with known values (no SPICE needed).
PofTable synthetic_table(double vdd) {
  PofTable t;
  t.vdd_v = vdd;
  t.q_max_fc = 0.4;
  for (int i = 0; i < 3; ++i) {
    SingleCdf s;
    s.nominal_qcrit_fc = 0.1 + 0.01 * i;
    s.total_samples = 4;
    s.qcrit_samples_fc = {0.08, 0.09, 0.11, 0.12};
    t.singles[static_cast<std::size_t>(i)] = s;
  }
  const util::Axis axis({0.0, 0.1, 0.4});
  const std::vector<double> pv = {0.0, 0.0, 0.5,   // Row q_a = 0.
                                  0.0, 0.5, 1.0,   // Row q_a = 0.1.
                                  0.5, 1.0, 1.0};  // Row q_a = 0.4.
  const std::vector<double> nom = {0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  for (int p = 0; p < 3; ++p) {
    t.pairs_pv[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, pv);
    t.pairs_nominal[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, nom);
  }
  std::vector<double> pv3(27, 0.0), nom3(27, 0.0);
  for (std::size_t i = 0; i < 27; ++i) {
    pv3[i] = (i == 26) ? 1.0 : 0.2;
    nom3[i] = (i >= 13) ? 1.0 : 0.0;
  }
  t.triple_pv = util::Grid3(axis, axis, axis, pv3);
  t.triple_nominal = util::Grid3(axis, axis, axis, nom3);
  return t;
}

// ---------------------------------------------------------------------------
// SingleCdf
// ---------------------------------------------------------------------------

TEST(SingleCdf, EmpiricalCdfSteps) {
  SingleCdf s;
  s.total_samples = 4;
  s.qcrit_samples_fc = {0.08, 0.09, 0.11, 0.12};
  EXPECT_DOUBLE_EQ(s.pof(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.pof(0.085), 0.25);
  EXPECT_DOUBLE_EQ(s.pof(0.10), 0.5);
  EXPECT_DOUBLE_EQ(s.pof(0.2), 1.0);
}

TEST(SingleCdf, NeverFlippedSamplesReducePof) {
  SingleCdf s;
  s.total_samples = 8;  // 4 of which never flipped (not in the list).
  s.qcrit_samples_fc = {0.08, 0.09, 0.11, 0.12};
  EXPECT_DOUBLE_EQ(s.pof(1.0), 0.5);
}

TEST(SingleCdf, EmptyIsZero) {
  SingleCdf s;
  EXPECT_DOUBLE_EQ(s.pof(10.0), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_qcrit_fc(), SingleCdf::kNeverFlips);
  EXPECT_DOUBLE_EQ(s.stddev_qcrit_fc(), 0.0);
}

TEST(SingleCdf, Moments) {
  SingleCdf s;
  s.total_samples = 4;
  s.qcrit_samples_fc = {0.08, 0.09, 0.11, 0.12};
  EXPECT_NEAR(s.mean_qcrit_fc(), 0.1, 1e-12);
  EXPECT_NEAR(s.stddev_qcrit_fc(), 0.0182574, 1e-6);
}

// ---------------------------------------------------------------------------
// PofTable dispatch
// ---------------------------------------------------------------------------

TEST(PofTableDispatch, NoChargeNoPof) {
  const PofTable t = synthetic_table(0.8);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{}, true), 0.0);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{}, false), 0.0);
  // Sub-epsilon charges count as zero.
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{1e-7, 1e-7, 1e-7}, true), 0.0);
}

TEST(PofTableDispatch, SinglesUseCdf) {
  const PofTable t = synthetic_table(0.8);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.10, 0, 0}, true), 0.5);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0, 0.10, 0}, true), 0.5);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0, 0, 0.10}, true), 0.5);
  // Nominal mode: thresholds differ per current (0.10, 0.11, 0.12).
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.105, 0, 0}, false), 1.0);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0, 0.105, 0}, false), 0.0);
}

TEST(PofTableDispatch, PairsInterpolate) {
  const PofTable t = synthetic_table(0.8);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.1, 0.1, 0}, true), 0.5);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.4, 0.4, 0}, true), 1.0);
  // Nominal pairs round the bilinear value to a binary decision.
  const double p = t.pof(StrikeCharges{0.1, 0.1, 0}, false);
  EXPECT_TRUE(p == 0.0 || p == 1.0);
}

TEST(PofTableDispatch, TripleUsesGrid3) {
  const PofTable t = synthetic_table(0.8);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.4, 0.4, 0.4}, true), 1.0);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.4, 0.4, 0.4}, false), 1.0);
  EXPECT_NEAR(t.pof(StrikeCharges{0.05, 0.05, 0.05}, true), 0.2, 0.15);
}

// ---------------------------------------------------------------------------
// CellSoftErrorModel
// ---------------------------------------------------------------------------

TEST(Model, VddLookup) {
  CellSoftErrorModel m;
  m.tables.push_back(synthetic_table(0.7));
  m.tables.push_back(synthetic_table(0.8));
  EXPECT_DOUBLE_EQ(m.at_vdd(0.8).vdd_v, 0.8);
  EXPECT_DOUBLE_EQ(m.at_vdd(0.7 + 5e-4).vdd_v, 0.7);  // 1 mV tolerance.
  EXPECT_THROW(m.at_vdd(0.9), util::DomainError);
  const auto vs = m.vdds();
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_DOUBLE_EQ(vs[0], 0.7);
}

// --- persistence: a model is stored as its "cell_model" artifact ---------

pipeline::ArtifactKey model_key(std::uint64_t fingerprint) {
  return pipeline::ArtifactKey{"cell_model", fingerprint};
}

bool store_model(const pipeline::ArtifactStore& store,
                 const CellSoftErrorModel& m) {
  return store.put(model_key(m.config_fingerprint),
                   surface::encode_cell_model(m));
}

bool load_model(const pipeline::ArtifactStore& store, std::uint64_t fp,
                CellSoftErrorModel& out, std::string* reason = nullptr) {
  std::vector<std::uint8_t> blob;
  if (!store.try_get(model_key(fp), blob, reason)) return false;
  out = surface::decode_cell_model(blob, fp);
  return true;
}

std::string temp_store(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(Model, SerializationRoundTrip) {
  CellSoftErrorModel m;
  m.config_fingerprint = 0xDEADBEEFCAFEull;
  m.tables.push_back(synthetic_table(0.7));
  m.tables.push_back(synthetic_table(1.1));

  const pipeline::ArtifactStore store(temp_store("finser_pof_roundtrip"));
  ASSERT_TRUE(store_model(store, m));
  CellSoftErrorModel r;
  ASSERT_TRUE(load_model(store, m.config_fingerprint, r));
  EXPECT_EQ(r.config_fingerprint, m.config_fingerprint);
  ASSERT_EQ(r.tables.size(), 2u);
  EXPECT_DOUBLE_EQ(r.tables[1].vdd_v, 1.1);
  EXPECT_DOUBLE_EQ(r.tables[0].q_max_fc, 0.4);

  // Behaviour identical after the round trip.
  for (const StrikeCharges c : {StrikeCharges{0.1, 0, 0}, StrikeCharges{0.1, 0.1, 0},
                                StrikeCharges{0.2, 0.2, 0.2}}) {
    EXPECT_DOUBLE_EQ(r.tables[0].pof(c, true), m.tables[0].pof(c, true));
    EXPECT_DOUBLE_EQ(r.tables[0].pof(c, false), m.tables[0].pof(c, false));
  }
  std::filesystem::remove_all(store.root());
}

TEST(Model, TryLoadValidatesFingerprint) {
  CellSoftErrorModel m;
  m.config_fingerprint = 111;
  m.tables.push_back(synthetic_table(0.8));
  const pipeline::ArtifactStore store(temp_store("finser_pof_fp"));
  ASSERT_TRUE(store_model(store, m));

  CellSoftErrorModel out;
  EXPECT_TRUE(load_model(store, 111, out));
  EXPECT_EQ(out.tables.size(), 1u);
  EXPECT_FALSE(load_model(store, 222, out));
  EXPECT_FALSE(load_model(pipeline::ArtifactStore("/nonexistent/store"), 111,
                          out));
  std::filesystem::remove_all(store.root());
}

TEST(Model, LoadRejectsCorruptFile) {
  const pipeline::ArtifactStore store(temp_store("finser_pof_bad"));
  const std::string garbage = "not a pof file at all";
  ASSERT_TRUE(util::atomic_write_file(store.path_for(model_key(7)),
                                      garbage.data(), garbage.size()));
  CellSoftErrorModel out;
  std::string reason;
  EXPECT_FALSE(load_model(store, 7, out, &reason));
  EXPECT_NE(reason.find("magic"), std::string::npos) << reason;
  // The same bytes as a payload behind a valid envelope fail the decoder.
  EXPECT_THROW(surface::decode_cell_model(
                   std::vector<std::uint8_t>(garbage.begin(), garbage.end()),
                   7),
               util::Error);
  std::filesystem::remove_all(store.root());
}

TEST(Model, LoadRejectsMissingFile) {
  CellSoftErrorModel out;
  std::string reason;
  EXPECT_FALSE(load_model(pipeline::ArtifactStore("/nonexistent/nope"), 7,
                          out, &reason));
  EXPECT_EQ(reason, "no artifact");
}

TEST(Model, LoadRejectsTruncatedFile) {
  CellSoftErrorModel m;
  m.config_fingerprint = 7;
  m.tables.push_back(synthetic_table(0.8));
  const pipeline::ArtifactStore store(temp_store("finser_pof_cut"));
  ASSERT_TRUE(store_model(store, m));
  const std::string path = store.path_for(model_key(7));
  std::vector<std::uint8_t> full;
  ASSERT_TRUE(util::read_file(path, full, nullptr));

  // Truncate at several points: every cut must be rejected, never crash or
  // silently return a partial model.
  for (const double frac : {0.3, 0.6, 0.9}) {
    const auto n =
        static_cast<std::size_t>(frac * static_cast<double>(full.size()));
    ASSERT_TRUE(util::atomic_write_file(path, full.data(), n));
    CellSoftErrorModel out;
    EXPECT_FALSE(load_model(store, 7, out)) << frac;
  }
  std::filesystem::remove_all(store.root());
}

TEST(Model, TryLoadRejectsBitFlipWithCrcReason) {
  CellSoftErrorModel m;
  m.config_fingerprint = 13;
  m.tables.push_back(synthetic_table(0.8));
  const pipeline::ArtifactStore store(temp_store("finser_pof_flip"));
  ASSERT_TRUE(store_model(store, m));

  // Flip one payload byte: the load must reject by CRC, never throw, and
  // report why.
  const std::string path = store.path_for(model_key(13));
  std::vector<std::uint8_t> raw;
  ASSERT_TRUE(util::read_file(path, raw, nullptr));
  raw[raw.size() / 2] ^= 0x01;
  ASSERT_TRUE(util::atomic_write_file(path, raw.data(), raw.size()));

  CellSoftErrorModel out;
  std::string reason;
  EXPECT_FALSE(load_model(store, 13, out, &reason));
  EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;
  std::filesystem::remove_all(store.root());
}

TEST(Model, CacheFlipFaultForcesRegeneration) {
  CellSoftErrorModel m;
  m.config_fingerprint = 42;
  m.tables.push_back(synthetic_table(0.8));
  const pipeline::ArtifactStore store(temp_store("finser_pof_fault"));

  // First put lands corrupted (byte 25 of the blob XOR-flipped by the
  // injected fault): the stored model must be rejected, not loaded.
  util::fault_configure("cache_flip:25");
  ASSERT_TRUE(store_model(store, m));
  CellSoftErrorModel out;
  std::string reason;
  EXPECT_FALSE(load_model(store, 42, out, &reason));
  EXPECT_FALSE(reason.empty());

  // The re-characterized model is stored again; the fault window has
  // passed, so the regenerated artifact is intact and loads.
  ASSERT_TRUE(store_model(store, m));
  util::fault_configure("");
  EXPECT_TRUE(load_model(store, 42, out, &reason)) << reason;
  EXPECT_EQ(out.config_fingerprint, 42u);
  std::filesystem::remove_all(store.root());
}

TEST(Model, SaveCreatesParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "finser_pof_mkdir";
  std::filesystem::remove_all(dir);
  CellSoftErrorModel m;
  m.tables.push_back(synthetic_table(0.8));
  const pipeline::ArtifactStore store((dir / "deep" / "store").string());
  ASSERT_TRUE(store_model(store, m));
  EXPECT_TRUE(std::filesystem::exists(store.path_for(model_key(0))));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace finser::sram
