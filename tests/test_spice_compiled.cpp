/// \file test_spice_compiled.cpp
/// \brief Equivalence contract of the compiled SPICE path.
///
/// The compiled (devirtualized, rebindable) evaluation path must be
/// *byte-identical* to the polymorphic reference path — same MNA matrices,
/// same solutions, same waveforms, same strike outcomes — on randomized
/// device soups as well as on the real SRAM cell, including across
/// parameter rebinds, warm solver workspaces and a cancelled-and-rerun
/// characterization. These tests are the license for the compiled path
/// to be the default engine everywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/spice/batch.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/finfet.hpp"
#include "finser/spice/transient.hpp"
#include "finser/spice/vecmath.hpp"
#include "finser/sram/cell.hpp"
#include "finser/sram/characterize.hpp"
#include "finser/stats/rng.hpp"
#include "finser/surface/response_surface.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {
namespace {

// ---------------------------------------------------------------------------
// Random device soups
// ---------------------------------------------------------------------------

/// A random mixed-kind netlist. Electrical sanity is irrelevant here — the
/// stamping contract must hold for any topology the Circuit API accepts.
Circuit make_soup(stats::Rng& rng) {
  Circuit c;
  const std::size_t n_nodes = 3 + rng.uniform_index(6);
  std::vector<std::size_t> nodes{kGround};
  for (std::size_t i = 0; i < n_nodes; ++i) {
    nodes.push_back(c.node("n" + std::to_string(i)));
  }
  const auto pick = [&] { return nodes[rng.uniform_index(nodes.size())]; };
  const auto pick_pair = [&] {
    std::size_t a = pick();
    std::size_t b = pick();
    while (b == a) b = pick();
    return std::pair<std::size_t, std::size_t>{a, b};
  };

  const std::size_t n_devices = 8 + rng.uniform_index(13);
  for (std::size_t d = 0; d < n_devices; ++d) {
    switch (rng.uniform_index(6)) {
      case 0: {
        const auto [a, b] = pick_pair();
        c.add<Resistor>(a, b, rng.uniform(10.0, 1e6));
        break;
      }
      case 1: {
        const auto [a, b] = pick_pair();
        c.add<Capacitor>(a, b, rng.uniform(1e-16, 1e-14));
        break;
      }
      case 2: {
        const auto [a, b] = pick_pair();
        c.add<VSource>(c, a, b, rng.uniform(-1.0, 1.0));
        break;
      }
      case 3: {
        const auto [a, b] = pick_pair();
        const double t0 = rng.uniform(0.0, 4e-12);
        c.add<PwlVSource>(
            c, a, b,
            std::vector<std::pair<double, double>>{
                {t0, rng.uniform(-1.0, 1.0)},
                {t0 + rng.uniform(1e-13, 5e-12), rng.uniform(-1.0, 1.0)}});
        break;
      }
      case 4: {
        const auto [a, b] = pick_pair();
        const double q = rng.uniform(0.01e-15, 0.5e-15);
        const double w = rng.uniform(1e-15, 1e-13);
        const double delay = rng.uniform(0.0, 5e-12);
        c.add<PulseISource>(
            a, b,
            rng.uniform() < 0.5
                ? PulseShape::rectangular_for_charge(q, w, delay)
                : PulseShape::triangular_for_charge(q, w, delay));
        break;
      }
      default: {
        const FinFetModel& model =
            rng.uniform() < 0.5 ? default_nfet() : default_pfet();
        auto& m = c.add<Mosfet>(pick(), pick(), pick(), model,
                                1.0 + static_cast<double>(rng.uniform_index(3)));
        m.set_delta_vt(rng.normal(0.0, 0.05));
        break;
      }
    }
  }
  return c;
}

std::vector<double> random_iterate(stats::Rng& rng, std::size_t n) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

/// Entry-for-entry comparison of lane \p w of a dense fused system (\p fa /
/// \p fb in the AoSoA layout of \p lanes lanes; lanes = 1 is the plain
/// row-major layout of stamp_fused) against a reference Mna.
void expect_same_dense(const Mna& ref, const std::vector<double>& fa,
                       const std::vector<double>& fb, std::size_t n,
                       std::size_t lanes, std::size_t w,
                       const std::string& where) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(fb[i * lanes + w], ref.rhs_at(i)) << where << ": rhs row " << i;
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(fa[(i * n + j) * lanes + w], ref.matrix_at(i, j))
          << where << ": entry (" << i << ", " << j << ")";
    }
  }
}

/// Reference stamp of every device of \p c at \p ctx, into a cleared \p mna.
void reference_stamp(const Circuit& c, Mna& mna, const StampContext& ctx) {
  mna.clear();
  for (const auto& dev : c.devices()) dev->stamp(mna, ctx);
}

// The compiled circuit's stamps — stamp_fused in DC, the one-lane transient
// engine's hooks (state init, stamp, commit, breakpoints) in transient — must
// reproduce the polymorphic devices' byte for byte on random soups.
TEST(SpiceCompiled, RandomSoupStampsAreByteIdentical) {
  stats::Rng rng(20140604);
  for (int trial = 0; trial < 40; ++trial) {
    const Circuit c = make_soup(rng);
    CompiledCircuit cc(c);
    ASSERT_EQ(cc.device_count(), c.devices().size());
    const std::size_t n = c.unknown_count();
    Mna ref(n);
    BatchWorkspace bw;
    cc.batch_configure(bw, 1);

    // DC stamp at a random iterate.
    StampContext ctx;
    ctx.branch_offset = c.node_count();
    const std::vector<double> x_dc = random_iterate(rng, n);
    ctx.x = &x_dc;
    reference_stamp(c, ref, ctx);
    std::vector<double> fa(n * n + 1, 0.0);
    std::vector<double> fb(n + 1, 0.0);
    cc.stamp_fused(fa.data(), fb.data(), x_dc);
    expect_same_dense(ref, fa, fb, n, 1, 0, "dc");

    // Transient stamp: fresh state from a random operating point, then three
    // accepted steps so the capacitor histories (kept separately by each
    // path) must evolve in lockstep — the third stamp is the first to read a
    // trapezoidal current history that was itself advanced from a nonzero one.
    const std::vector<double> x0 = random_iterate(rng, n);
    for (const auto& dev : c.devices()) dev->initialize_state(x0);
    cc.batch_initialize_state(bw, 0, x0);
    ctx.transient = true;
    ctx.method = rng.uniform() < 0.5 ? Integrator::kBackwardEuler
                                     : Integrator::kTrapezoidal;
    std::vector<double> x_step = x0;
    double t = 0.0;
    for (int step = 0; step < 3; ++step) {
      ctx.dt = rng.uniform(1e-15, 1e-12);
      t += ctx.dt;
      ctx.time = t;
      x_step = random_iterate(rng, n);
      ctx.x = &x_step;
      reference_stamp(c, ref, ctx);
      bw.x_try = x_step;
      std::fill(bw.fa.begin(), bw.fa.end(), 0.0);
      std::fill(bw.fb.begin(), bw.fb.end(), 0.0);
      cc.batch_stamp_fused<1>(bw, &ctx.time, &ctx.dt, ctx.method);
      expect_same_dense(ref, bw.fa, bw.fb, n, 1, 0,
                        "tran step " + std::to_string(step));
      for (const auto& dev : c.devices()) dev->commit(ctx);
      bw.x = x_step;
      cc.batch_commit(bw, 0, ctx.time, ctx.dt, ctx.method);
    }

    // Breakpoints (order-insensitive by contract: the engine sorts them).
    std::vector<double> b_ref;
    std::vector<double> b_cmp;
    for (const auto& dev : c.devices()) dev->add_breakpoints(1e-11, b_ref);
    cc.batch_add_breakpoints(bw, 0, 1e-11, b_cmp);
    std::sort(b_ref.begin(), b_ref.end());
    std::sort(b_cmp.begin(), b_cmp.end());
    ASSERT_EQ(b_ref, b_cmp);
  }
}

// The fused stamps (raw flat arrays + precomputed slot indices) must produce
// the same dense system as the reference Mna stamp, entry for entry, with
// every ground contribution absorbed by the trailing scratch slots: in DC
// (stamp_fused, the compiled Newton stage) and per lane of a full-width
// transient group (batch_stamp_fused), each lane at its own iterate.
TEST(SpiceCompiled, FusedStampMatchesMnaOnSoups) {
  constexpr std::size_t W = kMaxLaneWidth;
  stats::Rng rng(19830426);
  for (int trial = 0; trial < 40; ++trial) {
    const Circuit c = make_soup(rng);
    CompiledCircuit cc(c);
    const std::size_t n = c.unknown_count();
    Mna ref(n);

    StampContext ctx;
    ctx.branch_offset = c.node_count();
    const std::vector<double> x_dc = random_iterate(rng, n);
    ctx.x = &x_dc;
    reference_stamp(c, ref, ctx);
    std::vector<double> fa(n * n + 1, 0.0);
    std::vector<double> fb(n + 1, 0.0);
    cc.stamp_fused(fa.data(), fb.data(), x_dc);
    expect_same_dense(ref, fa, fb, n, 1, 0, "dc");

    BatchWorkspace bw;
    cc.batch_configure(bw, W);
    const std::vector<double> x0 = random_iterate(rng, n);
    for (const auto& dev : c.devices()) dev->initialize_state(x0);
    for (std::size_t w = 0; w < W; ++w) cc.batch_initialize_state(bw, w, x0);
    ctx.transient = true;
    ctx.method = rng.uniform() < 0.5 ? Integrator::kBackwardEuler
                                     : Integrator::kTrapezoidal;
    double t = 0.0;
    for (int step = 0; step < 3; ++step) {
      ctx.dt = rng.uniform(1e-15, 1e-12);
      t += ctx.dt;
      ctx.time = t;
      std::vector<std::vector<double>> lane_x(W);
      for (std::size_t w = 0; w < W; ++w) {
        lane_x[w] = random_iterate(rng, n);
        for (std::size_t i = 0; i < n; ++i) bw.x_try[i * W + w] = lane_x[w][i];
      }
      std::array<double, W> times;
      std::array<double, W> dts;
      times.fill(ctx.time);
      dts.fill(ctx.dt);
      std::fill(bw.fa.begin(), bw.fa.end(), 0.0);
      std::fill(bw.fb.begin(), bw.fb.end(), 0.0);
      cc.batch_stamp_fused<W>(bw, times.data(), dts.data(), ctx.method);
      for (std::size_t w = 0; w < W; ++w) {
        ctx.x = &lane_x[w];
        reference_stamp(c, ref, ctx);
        expect_same_dense(ref, bw.fa, bw.fb, n, W, w,
                          "tran step " + std::to_string(step) + " lane " +
                              std::to_string(w));
      }
      // Commit one accepted iterate on the devices and on every lane, so the
      // lanes keep sharing the reference history.
      const std::vector<double> x_acc = random_iterate(rng, n);
      ctx.x = &x_acc;
      for (const auto& dev : c.devices()) dev->commit(ctx);
      for (std::size_t w = 0; w < W; ++w) {
        for (std::size_t i = 0; i < n; ++i) bw.x[i * W + w] = x_acc[i];
        cc.batch_commit(bw, w, ctx.time, ctx.dt, ctx.method);
      }
    }
  }
}

// The baked per-device plan (bake_finfet + evaluate_finfet_planned) must
// reproduce the reference model evaluation bit for bit over the whole bias
// space, for both polarities and off-nominal ΔVt / fin count / temperature.
TEST(SpiceCompiled, PlannedFinfetEvalIsByteIdentical) {
  stats::Rng rng(65537);
  for (int trial = 0; trial < 2000; ++trial) {
    const bool pmos = rng.uniform() < 0.5;
    const FinFetModel& m = pmos ? default_pfet() : default_nfet();
    const double delta_vt = rng.normal(0.0, 0.06);
    const double nfin = 1.0 + static_cast<double>(rng.uniform_index(3));
    const double temp_k = rng.uniform(250.0, 400.0);
    const FinFetPlan plan = bake_finfet(m, delta_vt, nfin, temp_k);

    const double vd = rng.uniform(-1.2, 1.2);
    const double vg = rng.uniform(-1.2, 1.2);
    const double vs = rng.uniform(-1.2, 1.2);
    const MosOp ref = evaluate_finfet(m, vd, vg, vs, delta_vt, nfin, temp_k);
    const MosOp got = evaluate_finfet_planned(plan, vd, vg, vs);
    ASSERT_EQ(ref.ids, got.ids) << (pmos ? "pfet" : "nfet") << " trial "
                                << trial;
    ASSERT_EQ(ref.gm, got.gm);
    ASSERT_EQ(ref.gds, got.gds);
  }
}

// ---------------------------------------------------------------------------
// Solution-level equivalence on a solvable circuit, across rebinds
// ---------------------------------------------------------------------------

/// A randomized but well-posed circuit: a supply-driven FinFET inverter
/// chain with storage caps and a strike-style current pulse — every node has
/// a DC path, so both DC and transient solves converge.
struct SolvableCircuit {
  Circuit c;
  VSource* supply = nullptr;
  Mosfet* nfet = nullptr;
  PulseISource* pulse = nullptr;
};

SolvableCircuit make_solvable(stats::Rng& rng) {
  SolvableCircuit s;
  const auto vdd = s.c.node("vdd");
  const auto in = s.c.node("in");
  const auto out = s.c.node("out");
  const auto out2 = s.c.node("out2");
  const double vdd_v = rng.uniform(0.6, 1.0);
  s.supply = &s.c.add<VSource>(s.c, vdd, kGround, vdd_v);
  s.c.add<VSource>(s.c, in, kGround, rng.uniform(0.0, 0.2));
  s.nfet = &s.c.add<Mosfet>(out, in, kGround, default_nfet(), 1.0);
  s.c.add<Mosfet>(out, in, vdd, default_pfet(), 1.0);
  s.c.add<Mosfet>(out2, out, kGround, default_nfet(), 1.0);
  s.c.add<Mosfet>(out2, out, vdd, default_pfet(), 1.0);
  s.c.add<Resistor>(out, out2, rng.uniform(1e4, 1e6));
  s.c.add<Capacitor>(out, kGround, rng.uniform(0.05e-15, 0.3e-15));
  s.c.add<Capacitor>(out2, kGround, rng.uniform(0.05e-15, 0.3e-15));
  s.pulse = &s.c.add<PulseISource>(
      out, kGround,
      PulseShape::rectangular_for_charge(rng.uniform(0.01e-15, 0.2e-15),
                                         rng.uniform(5e-15, 5e-14), 1e-12));
  return s;
}

void expect_same_vector(const std::vector<double>& a,
                        const std::vector<double>& b, const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << where << ": component " << i;
  }
}

void expect_same_waveform(const Waveform& a, const Waveform& b,
                          const char* where) {
  ASSERT_EQ(a.sample_count(), b.sample_count()) << where;
  ASSERT_EQ(a.probe_count(), b.probe_count()) << where;
  for (std::size_t i = 0; i < a.sample_count(); ++i) {
    ASSERT_EQ(a.times()[i], b.times()[i]) << where << ": time " << i;
    for (std::size_t p = 0; p < a.probe_count(); ++p) {
      ASSERT_EQ(a.value(p, i), b.value(p, i))
          << where << ": probe " << p << ", sample " << i;
    }
  }
}

TEST(SpiceCompiled, SolutionsMatchAcrossRebindsAndWarmWorkspace) {
  stats::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    SolvableCircuit s = make_solvable(rng);
    CompiledCircuit cc(s.c);
    SolveWorkspace ws;  // Deliberately reused across every solve below,
    BatchWorkspace bw;  // and so is the one-lane transient workspace.
    cc.batch_configure(bw, 1);

    TransientOptions topt;
    topt.t_end = 20e-12;

    for (int pass = 0; pass < 3; ++pass) {
      // Mutate every rebindable parameter, then rebind the plan.
      s.supply->set_voltage(rng.uniform(0.6, 1.0));
      s.nfet->set_delta_vt(rng.normal(0.0, 0.05));
      s.pulse->set_shape(PulseShape::triangular_for_charge(
          rng.uniform(0.01e-15, 0.3e-15), rng.uniform(5e-15, 5e-14), 1e-12));
      cc.rebind();
      cc.batch_rebind_lane(bw, 0);

      const std::vector<double> x_ref = solve_dc(s.c);
      const std::vector<double> x_cmp = solve_dc(cc, ws);
      expect_same_vector(x_ref, x_cmp, "dc");

      const Waveform w_ref = run_transient(s.c, x_ref, topt, {"out", "out2"});
      const BatchTransientResult w_cmp =
          run_transient_batch(cc, bw, {x_cmp}, topt, {"out", "out2"});
      ASSERT_FALSE(w_cmp.failed[0]) << w_cmp.errors[0];
      expect_same_waveform(w_ref, w_cmp.waves[0], "transient");
    }
  }
}

// ---------------------------------------------------------------------------
// Lane-batched engine: byte-equality against the reference path
// ---------------------------------------------------------------------------

/// Restores the auto lane-width resolution no matter how a test exits.
struct LaneWidthGuard {
  explicit LaneWidthGuard(std::size_t w) { set_lane_width(w); }
  ~LaneWidthGuard() { set_lane_width(0); }
  LaneWidthGuard(const LaneWidthGuard&) = delete;
  LaneWidthGuard& operator=(const LaneWidthGuard&) = delete;
};

TEST(SpiceBatch, LaneWidthSelection) {
  EXPECT_TRUE(lane_width_valid(0));
  EXPECT_TRUE(lane_width_valid(1));
  EXPECT_TRUE(lane_width_valid(4));
  EXPECT_TRUE(lane_width_valid(8));
  EXPECT_FALSE(lane_width_valid(2));
  EXPECT_FALSE(lane_width_valid(16));
  EXPECT_THROW(set_lane_width(3), util::InvalidArgument);
  {
    LaneWidthGuard g(4);
    EXPECT_EQ(lane_width(), 4u);
  }
  EXPECT_EQ(lane_width(), kDefaultLaneWidth);
}

// The deterministic exp/log1p kernels are pinned by golden tests at the
// waveform level; this is the direct accuracy contract against libm — a few
// ulp over the biased ranges the FinFET model actually exercises.
TEST(SpiceBatch, VecmathTracksLibm) {
  stats::Rng rng(360360);
  for (int trial = 0; trial < 20000; ++trial) {
    const double x = rng.uniform(-60.0, 60.0);
    const double want = std::exp(x);
    const double got = detail::fexp(x);
    EXPECT_NEAR(got, want, 4.0 * std::abs(want) * 2.2e-16) << "fexp(" << x << ")";
    const double u = rng.uniform(0.0, 1e6);
    const double wl = std::log1p(u);
    const double gl = detail::flog1p(u);
    EXPECT_NEAR(gl, wl, 4.0 * std::abs(wl) * 2.2e-16 + 1e-300)
        << "flog1p(" << u << ")";
  }
  EXPECT_EQ(detail::fexp(1000.0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(detail::fexp(-1000.0), 0.0);
  EXPECT_EQ(detail::flog1p(0.0), 0.0);
}

/// Per-lane parameter set for a SolvableCircuit rebind.
struct LaneParams {
  double vdd;
  double dvt;
  double q;
  double w;
};

LaneParams random_params(stats::Rng& rng) {
  return LaneParams{rng.uniform(0.6, 1.0), rng.normal(0.0, 0.05),
                    rng.uniform(0.01e-15, 0.3e-15), rng.uniform(5e-15, 5e-14)};
}

void bind_params(SolvableCircuit& s, CompiledCircuit& cc, const LaneParams& p) {
  s.supply->set_voltage(p.vdd);
  s.nfet->set_delta_vt(p.dvt);
  s.pulse->set_shape(PulseShape::triangular_for_charge(p.q, p.w, 1e-12));
  cc.rebind();
}

/// A stream of more jobs than lanes: job k binds params[k % size] and is
/// only ready once enough earlier jobs have finished, so lanes idle, are
/// refilled mid-run, and take jobs in an order the lane count decides.
struct RefillJobs final : TransientJobSource {
  SolvableCircuit& s;
  CompiledCircuit& cc;
  BatchWorkspace& bw;
  const std::vector<LaneParams>& params;
  const std::vector<std::vector<double>>& x0;
  std::size_t total;
  std::size_t issued = 0;
  std::size_t finished = 0;
  std::vector<Waveform> waves;
  std::vector<std::uint8_t> seen;

  RefillJobs(SolvableCircuit& sc, CompiledCircuit& c, BatchWorkspace& b,
             const std::vector<LaneParams>& p,
             const std::vector<std::vector<double>>& x, std::size_t n)
      : s(sc), cc(c), bw(b), params(p), x0(x), total(n),
        waves(n, Waveform({}, {})), seen(n, 0) {}

  const std::vector<double>* next(std::size_t lane, std::size_t& job) override {
    // Half the lanes start busy; each finished job readies two more.
    const std::size_t ready =
        std::min(total, std::max<std::size_t>(1, bw.lanes / 2) + 2 * finished);
    if (issued == ready) return nullptr;
    job = issued++;
    bind_params(s, cc, params[job % params.size()]);
    cc.batch_rebind_lane(bw, lane);
    return &x0[job % params.size()];
  }
  void finish(std::size_t job, const Waveform& wave,
              const std::string* error) override {
    ASSERT_EQ(error, nullptr) << *error;
    ++seen[job];
    waves[job] = wave;
    ++finished;
  }
};

// The batched transient must reproduce the reference engine byte for byte,
// per lane, for every compiled width — including lanes carrying
// different supply voltages, ΔVt and pulse shapes, ragged tails where
// only some lanes are occupied, and lanes refilled mid-run with the next
// job of a stream.
TEST(SpiceBatch, BatchTransientMatchesScalarPerLane) {
  stats::Rng rng(271828);
  TransientOptions topt;
  topt.t_end = 20e-12;

  for (int trial = 0; trial < 3; ++trial) {
    SolvableCircuit s = make_solvable(rng);
    CompiledCircuit cc(s.c);

    // Eight parameter sets; each width consumes a prefix, so the same lane
    // is checked under every width.
    std::vector<LaneParams> params;
    for (int k = 0; k < 8; ++k) params.push_back(random_params(rng));

    // Reference-engine runs.
    std::vector<std::vector<double>> x0(params.size());
    std::vector<Waveform> ref;
    for (std::size_t k = 0; k < params.size(); ++k) {
      bind_params(s, cc, params[k]);
      x0[k] = solve_dc(s.c);
      ref.push_back(run_transient(s.c, x0[k], topt, {"out", "out2"}));
    }

    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      BatchWorkspace bw;
      cc.batch_configure(bw, width);
      std::vector<std::vector<double>> lanes_x0(width);
      for (std::size_t k = 0; k < width; ++k) {
        bind_params(s, cc, params[k]);
        cc.batch_rebind_lane(bw, k);
        lanes_x0[k] = x0[k];
      }
      const BatchTransientResult res =
          run_transient_batch(cc, bw, lanes_x0, topt, {"out", "out2"});
      for (std::size_t k = 0; k < width; ++k) {
        ASSERT_FALSE(res.failed[k]) << res.errors[k];
        expect_same_waveform(
            ref[k], res.waves[k],
            ("width " + std::to_string(width) + " lane " + std::to_string(k))
                .c_str());
      }

      // Ragged tail: only the first two lanes occupied; the occupied lanes
      // must not feel the masked ones.
      if (width > 2) {
        cc.batch_configure(bw, width);
        std::vector<std::vector<double>> tail_x0(2);
        for (std::size_t k = 0; k < 2; ++k) {
          bind_params(s, cc, params[k]);
          cc.batch_rebind_lane(bw, k);
          tail_x0[k] = x0[k];
        }
        const BatchTransientResult tail =
            run_transient_batch(cc, bw, tail_x0, topt, {"out", "out2"});
        for (std::size_t k = 0; k < 2; ++k) {
          ASSERT_FALSE(tail.failed[k]) << tail.errors[k];
          expect_same_waveform(
              ref[k], tail.waves[k],
              ("ragged width " + std::to_string(width) + " lane " +
               std::to_string(k))
                  .c_str());
        }
      }

      // Refill: three rounds of the eight parameter sets through one
      // stream; every job lands wherever a lane frees up.
      cc.batch_configure(bw, width);
      RefillJobs jobs(s, cc, bw, params, x0, 3 * params.size());
      run_transient_stream(cc, bw, jobs, topt, {"out", "out2"});
      for (std::size_t k = 0; k < jobs.total; ++k) {
        ASSERT_EQ(jobs.seen[k], 1u) << "job " << k;
        expect_same_waveform(
            ref[k % params.size()], jobs.waves[k],
            ("refill width " + std::to_string(width) + " job " +
             std::to_string(k))
                .c_str());
      }
    }
  }
}

TEST(SpiceCompiled, UnsupportedDeviceKindThrows) {
  class Ghost : public Device {
   public:
    void stamp(Mna&, const StampContext&) const override {}
    const char* kind() const override { return "ghost"; }
  };
  Circuit c;
  c.node("n");
  c.add<Ghost>();
  EXPECT_THROW(CompiledCircuit{c}, util::InvalidArgument);
}

}  // namespace
}  // namespace finser::spice

namespace finser::sram {
namespace {

// ---------------------------------------------------------------------------
// StrikeSimulator: reference vs compiled engine
// ---------------------------------------------------------------------------

TEST(SpiceCompiled, StrikeSimulatorEnginesAgreeExactly) {
  const CellDesign design;
  stats::Rng rng(4242);
  for (double vdd : {0.7, 1.0}) {
    StrikeSimulator ref(design, vdd, AccessMode::kRetention,
                        SpiceEngine::kReference);
    StrikeSimulator fast(design, vdd, AccessMode::kRetention,
                         SpiceEngine::kCompiled);
    EXPECT_EQ(fast.engine(), SpiceEngine::kCompiled);

    DeltaVt dvt{};
    for (int trial = 0; trial < 6; ++trial) {
      // Re-use each ΔVt twice to exercise the compiled DC hold cache: the
      // cached-hold simulate must still match the reference bit-for-bit.
      if (trial % 2 == 0) {
        for (double& v : dvt) v = rng.normal(0.0, design.sigma_vt);
      }
      const StrikeCharges q{rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3),
                            rng.uniform(0.0, 0.3)};
      const auto kind = trial % 2 == 0 ? spice::PulseShape::Kind::kRectangular
                                       : spice::PulseShape::Kind::kTriangular;
      const StrikeOutcome a = ref.simulate(q, dvt, kind);
      const StrikeOutcome b = fast.simulate(q, dvt, kind);
      EXPECT_EQ(a.flipped, b.flipped) << "vdd " << vdd << ", trial " << trial;
      EXPECT_EQ(a.final_q_v, b.final_q_v);
      EXPECT_EQ(a.final_qb_v, b.final_qb_v);

      const auto h_ref = ref.hold_state(dvt);
      const auto h_cmp = fast.hold_state(dvt);
      EXPECT_EQ(h_ref[0], h_cmp[0]);
      EXPECT_EQ(h_ref[1], h_cmp[1]);
    }
  }
}

// ---------------------------------------------------------------------------
// Lane-batched StrikeSimulator and characterizer
// ---------------------------------------------------------------------------

struct LaneWidthGuard {
  explicit LaneWidthGuard(std::size_t w) { spice::set_lane_width(w); }
  ~LaneWidthGuard() { spice::set_lane_width(0); }
  LaneWidthGuard(const LaneWidthGuard&) = delete;
  LaneWidthGuard& operator=(const LaneWidthGuard&) = delete;
};

/// Runs charges[k] with dvts[k] for every k with active[k] set, each as one
/// run_stream() job in index order that solves its own hold point, into
/// out[k]; the entries of inactive samples are left untouched.
void stream_samples(StrikeSimulator& sim,
                    const std::vector<StrikeCharges>& charges,
                    const std::vector<DeltaVt>& dvts,
                    const std::vector<std::uint8_t>& active,
                    std::vector<StrikeSimulator::LaneOutcome>& out) {
  struct Samples final : StrikeSimulator::ProbeSource {
    const std::vector<StrikeCharges>& charges;
    const std::vector<DeltaVt>& dvts;
    const std::vector<std::uint8_t>& active;
    std::vector<StrikeSimulator::LaneOutcome>& out;
    std::size_t cursor = 0;
    std::array<std::size_t, spice::kMaxLaneWidth> sample{};
    std::array<std::vector<double>, spice::kMaxLaneWidth> hold;

    Samples(const std::vector<StrikeCharges>& c, const std::vector<DeltaVt>& d,
            const std::vector<std::uint8_t>& a,
            std::vector<StrikeSimulator::LaneOutcome>& o)
        : charges(c), dvts(d), active(a), out(o) {}

    bool next(std::size_t lane, StrikeSimulator::Probe& probe) override {
      while (cursor < active.size() && !active[cursor]) ++cursor;
      if (cursor == active.size()) return false;
      sample[lane] = cursor++;
      hold[lane].clear();
      probe = {charges[sample[lane]], dvts[sample[lane]], &hold[lane]};
      return true;
    }
    void finish(std::size_t lane,
                const StrikeSimulator::LaneOutcome& o) override {
      out[sample[lane]] = o;
    }
  };
  out.resize(std::max(out.size(), charges.size()));
  Samples samples(charges, dvts, active, out);
  sim.run_stream(samples, spice::PulseShape::Kind::kRectangular);
}

// A strike stream must reproduce the reference engine's simulate() byte for
// byte at every lane width, for streams shorter and longer than the width —
// and the per-sample results must not depend on the width or on which
// samples share the stream.
TEST(SpiceBatch, StrikeOutcomesMatchScalarAcrossWidths) {
  const CellDesign design;
  stats::Rng rng(991199);

  // A sample set that reuses some ΔVt vectors (hold-cache hits) and spans
  // both pulse kinds.
  constexpr std::size_t kCount = 11;
  std::vector<StrikeCharges> charges;
  std::vector<DeltaVt> dvts;
  for (std::size_t k = 0; k < kCount; ++k) {
    charges.push_back(StrikeCharges{rng.uniform(0.0, 0.3),
                                    rng.uniform(0.0, 0.3),
                                    rng.uniform(0.0, 0.3)});
    DeltaVt dvt{};
    if (k % 3 != 0) {
      for (double& v : dvt) v = rng.normal(0.0, design.sigma_vt);
    }
    dvts.push_back(dvt);
  }
  const std::vector<std::uint8_t> all(kCount, 1);

  for (double vdd : {0.7, 1.0}) {
    // References from a reference-engine simulator.
    StrikeSimulator ref_sim(design, vdd, AccessMode::kRetention,
                            SpiceEngine::kReference);
    std::vector<StrikeOutcome> ref;
    for (std::size_t k = 0; k < kCount; ++k) {
      ref.push_back(ref_sim.simulate(charges[k], dvts[k],
                                     spice::PulseShape::Kind::kRectangular));
    }

    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      LaneWidthGuard guard(width);
      StrikeSimulator sim(design, vdd);
      std::vector<StrikeSimulator::LaneOutcome> out;
      stream_samples(sim, charges, dvts, all, out);
      ASSERT_EQ(out.size(), kCount);
      for (std::size_t k = 0; k < kCount; ++k) {
        ASSERT_FALSE(out[k].failed) << out[k].error;
        EXPECT_EQ(out[k].outcome.flipped, ref[k].flipped)
            << "vdd " << vdd << " width " << width << " sample " << k;
        EXPECT_EQ(out[k].outcome.final_q_v, ref[k].final_q_v);
        EXPECT_EQ(out[k].outcome.final_qb_v, ref[k].final_qb_v);
      }

      // Stream independence: the same samples fed one at a time (every
      // stream a single job) give the same answers.
      StrikeSimulator one_by_one(design, vdd);
      for (std::size_t k = 0; k < kCount; ++k) {
        std::vector<StrikeSimulator::LaneOutcome> single;
        stream_samples(one_by_one, {charges[k]}, {dvts[k]}, {1}, single);
        ASSERT_FALSE(single[0].failed) << single[0].error;
        EXPECT_EQ(single[0].outcome.final_q_v, ref[k].final_q_v)
            << "width " << width << " sample " << k;
        EXPECT_EQ(single[0].outcome.final_qb_v, ref[k].final_qb_v);
      }
    }
  }
}

// Samples left out of a stream must stay untouched, and the jobs that run
// must not feel the lanes left idle.
TEST(SpiceBatch, MaskedLanesAreUntouched) {
  LaneWidthGuard guard(4);
  const CellDesign design;
  StrikeSimulator sim(design, 0.8);
  const std::vector<StrikeCharges> charges(5, StrikeCharges{0.15, 0.0, 0.1});
  const std::vector<DeltaVt> dvts(5);
  const std::vector<std::uint8_t> active{1, 0, 1, 0, 1};
  std::vector<StrikeSimulator::LaneOutcome> out(5);
  out[1].error = "sentinel";
  out[3].error = "sentinel";
  stream_samples(sim, charges, dvts, active, out);
  EXPECT_EQ(out[1].error, "sentinel");
  EXPECT_EQ(out[3].error, "sentinel");
  const StrikeOutcome want =
      StrikeSimulator(design, 0.8, AccessMode::kRetention,
                      SpiceEngine::kReference)
          .simulate(charges[0], dvts[0], spice::PulseShape::Kind::kRectangular);
  for (std::size_t k : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    ASSERT_FALSE(out[k].failed) << out[k].error;
    EXPECT_EQ(out[k].outcome.final_q_v, want.final_q_v) << "lane " << k;
    EXPECT_EQ(out[k].outcome.final_qb_v, want.final_qb_v);
  }
}

// The full characterization table — CDFs, nominal boundaries, grid MC — must
// be byte-identical for every lane width and thread count (width 1 on one
// thread is the reference), and so must the transient work behind
// it: the accepted steps and the runs ended by the latch exit.
TEST(SpiceBatch, CharacterizeAtAgreesAcrossLaneWidths) {
  CharacterizerConfig cfg;
  cfg.vdds = {0.8};
  cfg.pv_samples_single = 5;
  cfg.pair_grid_points = 6;
  cfg.triple_grid_points = 6;
  cfg.pv_samples_grid = 3;
  cfg.seed = 99;
  const CellDesign design;

  struct Seen {
    std::vector<std::uint8_t> bytes;
    std::uint64_t steps = 0;
    std::uint64_t latch_exits = 0;
  };
  auto characterize = [&](std::size_t threads, std::size_t width) {
    LaneWidthGuard guard(width);
    CharacterizerConfig c = cfg;
    c.threads = threads;
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    obs::set_enabled(true);
    const PofTable t = CellCharacterizer(design, c).characterize_at(0.8, 5);
    obs::set_enabled(false);
    Seen seen;
    util::ByteWriter w;
    t.write(w);
    seen.bytes = w.take();
    seen.steps = reg.counter("spice.tran.steps").total();
    seen.latch_exits = reg.counter("spice.tran.latch_exits").total();
    reg.reset();
    return seen;
  };
  const Seen want = characterize(1, 1);
  EXPECT_GT(want.latch_exits, 0u);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      const Seen got = characterize(threads, width);
      EXPECT_EQ(want.bytes, got.bytes) << threads << " threads, width " << width;
      EXPECT_EQ(want.steps, got.steps) << threads << " threads, width " << width;
      EXPECT_EQ(want.latch_exits, got.latch_exits)
          << threads << " threads, width " << width;
    }
  }
}

// The whole model — every voltage in flight on one stream — must be the
// same bytes at every thread count and lane width, from the same transient
// work as before the stream existed. The DC hold work is keyed by job, not
// by worker slot, so its counters are schedule-invariant too.
TEST(SpiceBatch, CharacterizeIsScheduleInvariant) {
  CharacterizerConfig cfg;
  cfg.vdds = {0.9, 0.7, 1.1};
  cfg.pv_samples_single = 6;
  cfg.pair_grid_points = 6;
  cfg.triple_grid_points = 6;
  cfg.pv_samples_grid = 3;
  cfg.seed = 21;
  const CellDesign design;
  const char* const kCounters[] = {
      "spice.tran.runs",       "spice.tran.steps",
      "spice.tran.newton_iters", "spice.dc.solves",
      "spice.dc.newton_iters", "sram.strike.dc_reuse",
      "spice.mna.solves"};

  struct Seen {
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint64_t> counts;
  };
  auto characterize = [&](std::size_t threads, std::size_t width) {
    LaneWidthGuard guard(width);
    CharacterizerConfig c = cfg;
    c.threads = threads;
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    obs::set_enabled(true);
    const CellSoftErrorModel model = CellCharacterizer(design, c).characterize();
    obs::set_enabled(false);
    Seen seen;
    seen.bytes = surface::encode_cell_model(model);
    for (const char* name : kCounters) {
      seen.counts.push_back(reg.counter(name).total());
    }
    reg.reset();
    return seen;
  };
  const Seen want = characterize(1, 1);
  // The transient work of this model as the lockstep lane groups did it.
  EXPECT_EQ(want.counts[0], 2991u);
  EXPECT_EQ(want.counts[1], 124883u);
  EXPECT_EQ(want.counts[2], 267918u);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      const Seen got = characterize(threads, width);
      EXPECT_EQ(want.bytes, got.bytes) << threads << " threads, width " << width;
      for (std::size_t k = 0; k < want.counts.size(); ++k) {
        EXPECT_EQ(want.counts[k], got.counts[k])
            << kCounters[k] << ": " << threads << " threads, width " << width;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kill-and-rerun through the compiled characterizer path
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> model_bytes(const CellSoftErrorModel& model) {
  util::ByteWriter w;
  for (const PofTable& t : model.tables) t.write(w);
  return w.take();
}

CharacterizerConfig resume_config() {
  CharacterizerConfig cfg;
  cfg.vdds = {0.7, 0.9};
  cfg.pv_samples_single = 6;
  cfg.pair_grid_points = 6;
  cfg.triple_grid_points = 6;
  cfg.pv_samples_grid = 4;
  cfg.seed = 13;
  cfg.threads = 2;
  return cfg;
}

/// Characterization as every front-end runs it: the characterize stage of a
/// single-scenario campaign on an artifact store. Cancels the first run as
/// soon as a progress message contains \p trigger (util::Cancelled, nothing
/// stored), reruns it (characterizes and stores the `cell_model` artifact),
/// runs it a third time (replays the artifact), and returns the stored
/// model's bytes.
std::vector<std::uint8_t> cancel_then_rerun(const std::string& store,
                                            const std::string& trigger =
                                                "vdd=0.9") {
  std::filesystem::remove_all(store);
  core::SerFlowConfig flow;
  flow.characterization = resume_config();
  pipeline::CampaignSpec spec =
      pipeline::single_scenario_campaign(flow, {"alpha"}, "");
  spec.artifact_dir = store;
  const pipeline::ArtifactKey key{
      "cell_model", flow.characterization.fingerprint(flow.cell_design)};
  const pipeline::ArtifactStore artifacts(store);

  exec::CancelToken token;
  std::atomic<bool> saw_second{false};
  const exec::ProgressSink canceller([&](const std::string& msg) {
    if (msg.find(trigger) != std::string::npos && !saw_second) {
      saw_second = true;
      token.cancel();
    }
  });
  pipeline::CampaignRunner killed(spec);
  EXPECT_THROW(killed.run_stage(0, 2, canceller, &token), util::Cancelled);
  EXPECT_TRUE(saw_second);
  EXPECT_FALSE(std::filesystem::exists(artifacts.path_for(key)))
      << "a cancelled characterization must store no model";

  pipeline::CampaignRunner rerun(spec);
  rerun.run_stage(0, 2);
  std::vector<std::uint8_t> blob;
  EXPECT_TRUE(artifacts.try_get(key, blob));

  std::string log;
  pipeline::CampaignRunner replay(spec);
  replay.run_stage(0, 2, [&](const std::string& m) { log += m + "\n"; });
  EXPECT_NE(log.find("loaded from artifact store"), std::string::npos) << log;
  EXPECT_EQ(log.find("characterizing"), std::string::npos) << log;

  std::filesystem::remove_all(store);
  return blob.empty() ? blob
                      : model_bytes(surface::decode_cell_model(blob, key.fingerprint));
}

TEST(SpiceCompiled, CharacterizerResumesThroughCompiledPath) {
  // Uninterrupted baseline, no store at all.
  const CellSoftErrorModel want =
      CellCharacterizer(CellDesign{}, resume_config()).characterize();
  EXPECT_EQ(model_bytes(want),
            cancel_then_rerun((std::filesystem::temp_directory_path() /
                               "finser_compiled_resume")
                                  .string()));
}

// Same contract at lane width 4: a cancelled four-lane run reruns to the
// byte-identical model — and that model equals a width-1 uninterrupted run,
// so a rerun may even change lane width. The second cancel fires once the
// first voltage's pair grids are done, with the other voltage still in
// flight on the same stream.
TEST(SpiceBatch, CharacterizerResumesThroughBatchedPath) {
  std::vector<std::uint8_t> want;
  {
    LaneWidthGuard one_lane(1);
    want = model_bytes(
        CellCharacterizer(CellDesign{}, resume_config()).characterize());
  }
  LaneWidthGuard batched(4);
  const std::string store =
      (std::filesystem::temp_directory_path() / "finser_batched_resume")
          .string();
  EXPECT_EQ(want, cancel_then_rerun(store));
  EXPECT_EQ(want, cancel_then_rerun(store, "pair grids done"));
}

}  // namespace
}  // namespace finser::sram
