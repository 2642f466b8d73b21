/// \file test_cluster.cpp
/// \brief Correlated multi-node charge collection (docs/charge_sharing.md):
/// tile bookkeeping, the saturating multiplicity convolution, the joint
/// multi-cell simulator, the memoized cluster POF surface, and the
/// cluster-aware array engine — including the contract that `cluster = 1x1`
/// is byte-identical to the independent per-cell pipeline at every thread
/// count and lane width.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>
#include <thread>
#include <vector>

#include "finser/core/array_mc.hpp"
#include "finser/core/pof_combine.hpp"
#include "finser/obs/obs.hpp"
#include "finser/spice/batch.hpp"
#include "finser/sram/cluster.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {
namespace {

// --- tiling bookkeeping -----------------------------------------------------

TEST(ClusterMode, NamesRoundTrip) {
  for (ClusterMode mode :
       {ClusterMode::k1x1, ClusterMode::k2x2, ClusterMode::k1x4}) {
    const auto back = cluster_mode_from(cluster_mode_name(mode));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, mode);
  }
  EXPECT_FALSE(cluster_mode_from("3x3").has_value());
  EXPECT_FALSE(cluster_mode_from("").has_value());
  EXPECT_EQ(cluster_rows(ClusterMode::k2x2), 2u);
  EXPECT_EQ(cluster_cols(ClusterMode::k2x2), 2u);
  EXPECT_EQ(cluster_rows(ClusterMode::k1x4), 1u);
  EXPECT_EQ(cluster_cols(ClusterMode::k1x4), 4u);
  EXPECT_FALSE(ClusterConfig{}.enabled());
}

TEST(ClusterTiling, RaggedTilesAtOddArraySizes) {
  // 5x5 array under 2x2 tiles: 3 ragged tile columns and rows. Cells agree
  // on a tile id iff they share (row/2, col/2); border cells (row or col 4)
  // land in smaller tiles of their own.
  const std::size_t cols = 5;
  for (std::uint32_t r1 = 0; r1 < 5; ++r1) {
    for (std::uint32_t c1 = 0; c1 < 5; ++c1) {
      for (std::uint32_t r2 = 0; r2 < 5; ++r2) {
        for (std::uint32_t c2 = 0; c2 < 5; ++c2) {
          const bool same_tile = (r1 / 2 == r2 / 2) && (c1 / 2 == c2 / 2);
          EXPECT_EQ(cluster_tile_id(r1, c1, cols, 2, 2) ==
                        cluster_tile_id(r2, c2, cols, 2, 2),
                    same_tile)
              << "(" << r1 << "," << c1 << ") vs (" << r2 << "," << c2 << ")";
        }
      }
    }
  }
  // Corner cell (4,4) is alone in its 1x1 ragged tile, at local index 0.
  EXPECT_EQ(cluster_local_index(4, 4, 2, 2), 0);
  // 1x4 tiles on a 7-wide row: tile breaks at column 4; the ragged tail
  // {4,5,6} keeps ascending locals 0,1,2.
  EXPECT_NE(cluster_tile_id(0, 3, 7, 1, 4), cluster_tile_id(0, 4, 7, 1, 4));
  EXPECT_EQ(cluster_local_index(0, 4, 1, 4), 0);
  EXPECT_EQ(cluster_local_index(0, 6, 1, 4), 2);
}

TEST(ClusterTiling, AscendingCellOrderGivesAscendingLocals) {
  // The engine sorts touched cells by (tile, flat cell index) and relies on
  // ascending cell index within one tile implying strictly ascending local
  // indices — the surface's canonical key order.
  for (const auto& [tr, tc] : {std::pair<std::size_t, std::size_t>{2, 2},
                               std::pair<std::size_t, std::size_t>{1, 4}}) {
    const std::size_t rows = 5, cols = 7;
    std::map<std::uint32_t, std::vector<std::uint8_t>> locals_by_tile;
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        // Flat cell index order is exactly this double loop's order.
        locals_by_tile[cluster_tile_id(r, c, cols, tr, tc)].push_back(
            cluster_local_index(r, c, tr, tc));
      }
    }
    for (const auto& [tile, locals] : locals_by_tile) {
      for (std::size_t i = 1; i < locals.size(); ++i) {
        EXPECT_LT(locals[i - 1], locals[i]) << "tile " << tile;
      }
    }
  }
}

TEST(ClusterTiling, AdjacentCellsAcrossTileBoundarySplit) {
  // A grazing track crossing columns 1 and 2 spans two 2x2 tiles — the
  // engine must price the two fragments independently.
  EXPECT_NE(cluster_tile_id(0, 1, 8, 2, 2), cluster_tile_id(0, 2, 8, 2, 2));
  EXPECT_NE(cluster_tile_id(1, 0, 8, 2, 2), cluster_tile_id(2, 0, 8, 2, 2));
  EXPECT_EQ(cluster_tile_id(0, 0, 8, 2, 2), cluster_tile_id(1, 1, 8, 2, 2));
}

TEST(ClusterTiling, InterleavingDistanceDecouplesCorrelation) {
  // ECC sizing: bits of one logical word placed >= tile_cols columns apart
  // (and >= tile_rows rows apart) can never share a cluster tile, so the
  // correlated model cannot couple them — the layout-level guarantee that
  // word-interleaving defeats intra-tile charge sharing (sram::ArrayLayout
  // cells are addressed by the same row/col grid the tiling uses).
  const std::size_t rows = 9, cols = 9;
  for (const auto& [tr, tc] : {std::pair<std::size_t, std::size_t>{2, 2},
                               std::pair<std::size_t, std::size_t>{1, 4}}) {
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        // Any cell >= one tile extent away in either axis is in a different
        // tile, so interleaved bits never couple.
        if (c + tc < cols) {
          EXPECT_NE(cluster_tile_id(r, c, cols, tr, tc),
                    cluster_tile_id(r, c + static_cast<std::uint32_t>(tc),
                                    cols, tr, tc));
        }
        if (r + tr < rows) {
          EXPECT_NE(cluster_tile_id(r, c, cols, tr, tc),
                    cluster_tile_id(r + static_cast<std::uint32_t>(tr), c,
                                    cols, tr, tc));
        }
      }
    }
  }
}

// --- saturating multiplicity convolution ------------------------------------

TEST(ConvolveMultiplicity, BaseDistributionIsIdentity) {
  std::array<double, core::kMaxMultiplicity> dist{};
  dist[0] = 0.25;
  dist[1] = 0.5;
  dist[3] = 0.25;
  const auto out = core::convolve_multiplicity(dist, {1.0});
  for (std::size_t n = 0; n < core::kMaxMultiplicity; ++n) {
    EXPECT_DOUBLE_EQ(out[n], dist[n]);
  }
}

TEST(ConvolveMultiplicity, MatchesPoissonBinomialFactorization) {
  // Convolving the per-cell DP of {p1} with the law of an independent cell
  // {1-p2, p2} must equal the joint DP of {p1, p2}.
  const double p1 = 0.3, p2 = 0.2;
  const auto joint = core::multiplicity_distribution({p1, p2});
  const auto left = core::multiplicity_distribution({p1});
  const auto out = core::convolve_multiplicity(left, {1.0 - p2, p2});
  for (std::size_t n = 0; n < core::kMaxMultiplicity; ++n) {
    EXPECT_NEAR(out[n], joint[n], 1e-15) << "bin " << n;
  }
}

TEST(ConvolveMultiplicity, SaturatesIntoLastBinAndCounts) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  std::array<double, core::kMaxMultiplicity> dist{};
  dist[core::kMaxMultiplicity - 1] = 1.0;  // already at "8 or more"
  const std::vector<double> q = {0.5, 0.25, 0.25};  // up to 2 more flips
  const auto out = core::convolve_multiplicity(dist, q);
  EXPECT_DOUBLE_EQ(out[core::kMaxMultiplicity - 1], 1.0);
  double sum = 0.0;
  for (double v : out) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-15);
  EXPECT_GE(obs::Registry::global()
                .counter("core.pof.multiplicity_saturated")
                .total(),
            1u);
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

TEST(ConvolveMultiplicity, DeepPofListSaturationIsCounted) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  // 10 cells can flip 10 > kMaxMultiplicity-1 ways: the DP's absorbing last
  // bin keeps the output a distribution, and the truncation is counted.
  const std::vector<double> pofs(10, 0.5);
  const auto dist = core::multiplicity_distribution(pofs);
  double sum = 0.0;
  for (double v : dist) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GE(obs::Registry::global()
                .counter("core.pof.multiplicity_saturated")
                .total(),
            1u);
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

// --- joint multi-cell simulator ---------------------------------------------

constexpr double kVdd = 0.8;
// Comfortably above the ~0.136 fC cell Qcrit at 0.8 V / below it.
constexpr double kSuperFc = 0.4;
constexpr double kSubFc = 0.05;

TEST(ClusterSimulator, SingleStruckCellFlipsAloneInTile) {
  const CellDesign design;
  ClusterSimulator sim(design, kVdd, 2, 2);
  ASSERT_EQ(sim.cell_count(), 4u);
  std::vector<ClusterSimulator::CellStrike> strikes(1);
  strikes[0].local = 2;
  strikes[0].charges.i1_fc = kSuperFc;
  const std::vector<DeltaVt> dvts(4);
  const auto out =
      sim.simulate(strikes, dvts, spice::PulseShape::Kind::kRectangular);
  ASSERT_FALSE(out.failed) << out.error;
  ASSERT_EQ(out.flipped.size(), 4u);
  EXPECT_EQ(out.flip_count, 1u);
  EXPECT_TRUE(out.flipped[2]);
  EXPECT_FALSE(out.flipped[0]);
  EXPECT_FALSE(out.flipped[1]);
  EXPECT_FALSE(out.flipped[3]);
}

TEST(ClusterSimulator, SubCriticalChargeFlipsNothing) {
  const CellDesign design;
  ClusterSimulator sim(design, kVdd, 1, 4);
  std::vector<ClusterSimulator::CellStrike> strikes(2);
  strikes[0].local = 0;
  strikes[0].charges.i1_fc = kSubFc;
  strikes[1].local = 3;
  strikes[1].charges.i1_fc = kSubFc;
  const std::vector<DeltaVt> dvts(4);
  const auto out =
      sim.simulate(strikes, dvts, spice::PulseShape::Kind::kRectangular);
  ASSERT_FALSE(out.failed) << out.error;
  EXPECT_EQ(out.flip_count, 0u);
}

TEST(ClusterSimulator, JointStrikeFlipsBothCells) {
  const CellDesign design;
  ClusterSimulator sim(design, kVdd, 2, 2);
  std::vector<ClusterSimulator::CellStrike> strikes(2);
  strikes[0].local = 0;
  strikes[0].charges.i1_fc = kSuperFc;
  strikes[1].local = 1;
  strikes[1].charges.i1_fc = kSuperFc;
  const std::vector<DeltaVt> dvts(4);
  const auto out =
      sim.simulate(strikes, dvts, spice::PulseShape::Kind::kRectangular);
  ASSERT_FALSE(out.failed) << out.error;
  EXPECT_EQ(out.flip_count, 2u);
  EXPECT_TRUE(out.flipped[0]);
  EXPECT_TRUE(out.flipped[1]);
}

TEST(ClusterSimulator, BatchMatchesScalarPerSample) {
  const CellDesign design;
  ClusterSimulator sim(design, kVdd, 2, 2);
  std::vector<ClusterSimulator::CellStrike> strikes(2);
  strikes[0].local = 0;
  strikes[0].charges.i1_fc = 0.15;  // near-critical: PV decides
  strikes[1].local = 3;
  strikes[1].charges.i1_fc = 0.12;
  stats::Rng rng(42);
  std::vector<std::vector<DeltaVt>> samples(6, std::vector<DeltaVt>(4));
  for (auto& dvts : samples) {
    for (auto& d : dvts) {
      for (auto& dv : d) dv = rng.normal(0.0, 0.03);
    }
  }
  std::vector<ClusterSimulator::Outcome> batch;
  sim.simulate_batch(strikes, samples, spice::PulseShape::Kind::kRectangular,
                     batch);
  ASSERT_EQ(batch.size(), samples.size());
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto scalar = sim.simulate(strikes, samples[s],
                                     spice::PulseShape::Kind::kRectangular);
    ASSERT_EQ(batch[s].failed, scalar.failed) << "sample " << s;
    EXPECT_EQ(batch[s].flipped, scalar.flipped) << "sample " << s;
    EXPECT_EQ(batch[s].flip_count, scalar.flip_count) << "sample " << s;
  }
}

// --- memoized POF surface ---------------------------------------------------

std::vector<ClusterPofSurface::CellCharge> two_cell_query(double qa,
                                                          double qb) {
  std::vector<ClusterPofSurface::CellCharge> cells(2);
  cells[0].local = 0;
  cells[0].charges.i1_fc = qa;
  cells[1].local = 1;
  cells[1].charges.i1_fc = qb;
  return cells;
}

TEST(ClusterPofSurface, MemoizesAndRepeatsExactly) {
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 3;
  ClusterPofSurface surf(design, cc);
  std::vector<double> first, second;
  surf.flip_count_distribution(kVdd, true, two_cell_query(0.2, 0.05), first);
  EXPECT_EQ(surf.size(), 1u);
  surf.flip_count_distribution(kVdd, true, two_cell_query(0.2, 0.05), second);
  EXPECT_EQ(surf.size(), 1u);
  EXPECT_EQ(first, second);  // bitwise: memo hit == fresh evaluation
  ASSERT_EQ(first.size(), 3u);
  double sum = 0.0;
  for (double v : first) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ClusterPofSurface, ConcurrentQueriesSimulateEachKeyOnce) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 3;
  ClusterPofSurface surf(design, cc);
  obs::Registry& reg = obs::Registry::global();

  // Eight threads ask for one key at once: one simulates it, the others
  // wait for it and count as hits.
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      surf.flip_count_distribution(kVdd, true, two_cell_query(0.2, 0.05),
                                   got[t]);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("sram.cluster.sims").total(), cc.pv_samples);
  EXPECT_EQ(reg.counter("sram.cluster.surface_miss").total(), 1u);
  EXPECT_EQ(reg.counter("sram.cluster.surface_hit").total(), kThreads - 1);
  for (const auto& g : got) EXPECT_EQ(g, got[0]);

  // Distinct keys simulate side by side, each on its own simulator, and
  // agree bit-for-bit with a fresh single-threaded surface.
  const auto query_of = [](std::size_t t) {
    return two_cell_query(0.11 + 0.02 * static_cast<double>(t), 0.05);
  };
  threads.clear();
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      surf.flip_count_distribution(kVdd, true, query_of(t), got[t]);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("sram.cluster.sims").total(),
            (kThreads + 1) * cc.pv_samples);
  EXPECT_EQ(surf.size(), kThreads + 1);
  ClusterPofSurface serial(design, cc);
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::vector<double> want;
    serial.flip_count_distribution(kVdd, true, query_of(t), want);
    EXPECT_EQ(got[t], want) << "key " << t;
  }
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

TEST(ClusterPofSurface, QuantizationSnapsNearbyQueries) {
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 1;
  cc.quantum_fc = 0.01;
  ClusterPofSurface surf(design, cc);
  std::vector<double> a, b;
  surf.flip_count_distribution(kVdd, false, two_cell_query(0.2, 0.05), a);
  surf.flip_count_distribution(kVdd, false, two_cell_query(0.201, 0.049), b);
  EXPECT_EQ(surf.size(), 1u);  // same quantized key
  EXPECT_EQ(a, b);
}

TEST(ClusterPofSurface, ShareFractionCouplesAdjacentCells) {
  const CellDesign design;
  // Cell A super-critical, cell B sub-critical on its own. Without sharing
  // exactly one cell flips; with a large share fraction B also collects
  // 0.45 * 0.4 = 0.18 fC > Qcrit and the nominal outcome is a double flip.
  ClusterConfig off;
  off.mode = ClusterMode::k2x2;
  off.share_fraction = 0.0;
  off.pv_samples = 1;
  ClusterPofSurface surf_off(design, off);
  std::vector<double> d_off;
  surf_off.flip_count_distribution(kVdd, false, two_cell_query(kSuperFc, kSubFc),
                                   d_off);
  EXPECT_DOUBLE_EQ(d_off[1], 1.0);

  ClusterConfig on = off;
  on.share_fraction = 0.45;
  ClusterPofSurface surf_on(design, on);
  std::vector<double> d_on;
  surf_on.flip_count_distribution(kVdd, false, two_cell_query(kSuperFc, kSubFc),
                                  d_on);
  EXPECT_DOUBLE_EQ(d_on[2], 1.0);
}

TEST(ClusterPofSurface, EncodeDecodeMergeRoundTrips) {
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 2;
  ClusterPofSurface source(design, cc);
  std::vector<double> a, b;
  source.flip_count_distribution(kVdd, false, two_cell_query(0.2, 0.05), a);
  source.flip_count_distribution(kVdd, true, two_cell_query(0.15, 0.15), b);
  EXPECT_EQ(source.size(), 2u);
  const auto blob = source.encode();

  ClusterPofSurface fresh(design, cc);
  EXPECT_EQ(fresh.decode_merge(blob), 2u);
  EXPECT_EQ(fresh.size(), 2u);
  // Preloaded entries answer queries without any new simulation, with the
  // exact cached values.
  std::vector<double> a2, b2;
  fresh.flip_count_distribution(kVdd, false, two_cell_query(0.2, 0.05), a2);
  fresh.flip_count_distribution(kVdd, true, two_cell_query(0.15, 0.15), b2);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
  // Merging again absorbs nothing (first-in wins).
  EXPECT_EQ(fresh.decode_merge(blob), 0u);

  std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 3);
  ClusterPofSurface victim(design, cc);
  EXPECT_THROW(victim.decode_merge(truncated), util::Error);
}

TEST(ClusterPofSurface, RejectsMalformedQueries) {
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  ClusterPofSurface surf(design, cc);
  std::vector<double> out;
  std::vector<ClusterPofSurface::CellCharge> unsorted(2);
  unsorted[0].local = 2;
  unsorted[1].local = 1;
  EXPECT_THROW(surf.flip_count_distribution(kVdd, false, unsorted, out),
               util::Error);
  std::vector<ClusterPofSurface::CellCharge> oob(1);
  oob[0].local = 4;  // 2x2 tile has locals 0..3
  EXPECT_THROW(surf.flip_count_distribution(kVdd, false, oob, out),
               util::Error);
  EXPECT_THROW(surf.flip_count_distribution(kVdd, false, {}, out),
               util::Error);
}

TEST(ClusterPofSurface, FingerprintSeparatesConfigs) {
  const CellDesign design;
  ClusterConfig a;
  a.mode = ClusterMode::k2x2;
  ClusterConfig b = a;
  b.share_fraction = 0.2;
  ClusterConfig c = a;
  c.mode = ClusterMode::k1x4;
  const ClusterPofSurface sa(design, a), sb(design, b), sc(design, c);
  EXPECT_NE(sa.fingerprint(1), sb.fingerprint(1));
  EXPECT_NE(sa.fingerprint(1), sc.fingerprint(1));
  EXPECT_NE(sa.fingerprint(1), sa.fingerprint(2));
  EXPECT_EQ(sa.fingerprint(7), ClusterPofSurface(design, a).fingerprint(7));
}

}  // namespace
}  // namespace finser::sram

// --- cluster-aware array engine ---------------------------------------------

namespace finser::core {
namespace {

using sram::ArrayLayout;
using sram::CellGeometry;
using sram::CellSoftErrorModel;
using sram::PofTable;

/// Same synthetic cell model as test_core_array_mc.cpp: threshold LUTs, no
/// SPICE on the per-cell path (the cluster path runs the real simulator).
CellSoftErrorModel synthetic_model(double vdd, double q_thresh_fc) {
  PofTable t;
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
  CellSoftErrorModel m;
  m.tables.push_back(std::move(t));
  return m;
}

ArrayMcConfig grazing_config(std::size_t strikes, sram::ClusterMode mode,
                             const sram::CellDesign* design) {
  ArrayMcConfig cfg;
  cfg.strikes = strikes;
  cfg.angular = SourceAngularLaw::kBeam;
  const double tilt = 88.0 * std::numbers::pi / 180.0;
  cfg.beam_direction = {std::sin(tilt), 0.05, -std::cos(tilt)};
  cfg.cluster.mode = mode;
  cfg.cluster.pv_samples = 2;
  cfg.cluster_design = design;
  return cfg;
}

TEST(ClusterEngine, OneByOneIsByteIdenticalToDefaultAtAnyThreadCount) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMcConfig base;
  base.strikes = 2000;
  ArrayMc reference(layout, model, base);
  const auto ref =
      encode_result(reference.run(phys::Species::kAlpha, 1.0, 11));
  for (std::size_t threads : {1, 4}) {
    ArrayMcConfig cfg = base;
    cfg.threads = threads;
    cfg.cluster.mode = sram::ClusterMode::k1x1;  // explicit default
    ArrayMc mc(layout, model, cfg);
    const auto got = encode_result(mc.run(phys::Species::kAlpha, 1.0, 11));
    EXPECT_EQ(ref, got) << "threads=" << threads;
  }
}

TEST(ClusterEngine, CorrelatedRunIsThreadAndLaneInvariant) {
  // Odd-sized (3x3) array under 2x2 tiles: ragged border tiles, grazing
  // tracks spanning several tiles. The per-cell path uses the synthetic
  // LUT; multi-cell tiles run the real joint simulator from the design.
  const sram::CellDesign design;
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  const auto run_with = [&](std::size_t threads, std::size_t lanes) {
    const std::size_t restore = spice::lane_width();
    spice::set_lane_width(lanes);
    ArrayMcConfig cfg = grazing_config(300, sram::ClusterMode::k2x2, &design);
    cfg.threads = threads;
    ArrayMc mc(layout, model, cfg);
    const auto blob = encode_result(mc.run(phys::Species::kAlpha, 1.0, 12));
    spice::set_lane_width(restore);
    return blob;
  };
  const auto ref = run_with(1, 1);
  EXPECT_EQ(ref, run_with(4, 1)) << "thread count changed the result";
  EXPECT_EQ(ref, run_with(2, 4)) << "lane width changed the result";
}

TEST(ClusterEngine, SharedSurfaceReusesMemoAcrossRuns) {
  const sram::CellDesign design;
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  sram::ClusterConfig cc;
  cc.mode = sram::ClusterMode::k2x2;
  cc.pv_samples = 2;
  sram::ClusterPofSurface surface(design, cc);

  ArrayMcConfig cfg = grazing_config(200, sram::ClusterMode::k2x2, &design);
  cfg.cluster_surface = &surface;
  ArrayMc mc(layout, model, cfg);
  const auto first = encode_result(mc.run(phys::Species::kAlpha, 1.0, 13));
  const std::size_t entries = surface.size();
  EXPECT_GT(entries, 0u);  // the grazing fixture produced joint tiles
  // Second engine sharing the surface: pure memo hits, identical bytes.
  ArrayMc mc2(layout, model, cfg);
  const auto second = encode_result(mc2.run(phys::Species::kAlpha, 1.0, 13));
  EXPECT_EQ(first, second);
  EXPECT_EQ(surface.size(), entries);
}

TEST(ClusterEngine, ClusterModeNeedsDesign) {
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMcConfig cfg;
  cfg.cluster.mode = sram::ClusterMode::k2x2;
  EXPECT_THROW(ArrayMc(layout, model, cfg), util::Error);
}

}  // namespace
}  // namespace finser::core
