/// \file test_spice_latch.cpp
/// \brief The transient latch exit (TransientOptions::latch_rail_v).
///
/// A strike run may end as soon as the last source edge has passed and every
/// (node, complement) probe pair sits at opposite rails. The contract is that
/// this never changes a flip decision: the 6T cell is built here from the
/// public SPICE API and run with the exit off (the full 50 ps window) and on,
/// over the characterizer's kinds of probes — bisection ladders to ±0.1 % of
/// Qcrit, a pair row and a triple column, nominal and under ΔVt draws — at
/// three supply voltages. Read mode, whose '0' node never reaches its rail,
/// must never exit, and a pair resting at the same rail never counts as
/// latched.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/phys/collection.hpp"
#include "finser/spice/batch.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/finfet.hpp"
#include "finser/spice/transient.hpp"
#include "finser/sram/cell.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {
namespace {

constexpr double kDelayS = 1e-12;  // Pulse start, as in StrikeSimulator.
constexpr double kTEnd = 50e-12;

/// The paper's 6T cell (Fig. 5a) holding Q=1/QB=0, with the three strike
/// currents I1 (PD at Q), I2 (PU at QB) and I3 (PG at QB). The wordline is
/// high in read mode.
struct Cell6T {
  Circuit c;
  double vdd;
  double tau_s;
  std::size_t q = 0, qb = 0, n_vdd = 0, bl = 0, blb = 0;
  std::array<Mosfet*, 6> fets{};  ///< In sram::Role order.
  std::array<PulseISource*, 3> strikes{};

  Cell6T(double vdd_v, bool read) : vdd(vdd_v) {
    const sram::CellDesign d;
    tau_s = phys::transit_time_fs(d.tech, vdd) * 1e-15;
    q = c.node("q");
    qb = c.node("qb");
    n_vdd = c.node("vdd");
    bl = c.node("bl");
    blb = c.node("blb");
    const std::size_t wl = c.node("wl");
    c.add<VSource>(c, n_vdd, kGround, vdd);
    c.add<VSource>(c, bl, kGround, vdd);
    c.add<VSource>(c, blb, kGround, vdd);
    c.add<VSource>(c, wl, kGround, read ? vdd : 0.0);
    fets = {&c.add<Mosfet>(q, qb, kGround, default_nfet()),
            &c.add<Mosfet>(q, qb, n_vdd, default_pfet()),
            &c.add<Mosfet>(bl, wl, q, default_nfet()),
            &c.add<Mosfet>(qb, q, kGround, default_nfet()),
            &c.add<Mosfet>(qb, q, n_vdd, default_pfet()),
            &c.add<Mosfet>(blb, wl, qb, default_nfet())};
    for (Mosfet* m : fets) m->set_temperature(d.temp_k);
    c.add<Capacitor>(q, kGround, d.cnode_f);
    c.add<Capacitor>(qb, kGround, d.cnode_f);
    strikes = {&c.add<PulseISource>(q, kGround, PulseShape{}),
               &c.add<PulseISource>(n_vdd, qb, PulseShape{}),
               &c.add<PulseISource>(blb, qb, PulseShape{})};
  }

  /// Bind the I1..I3 charges [fC] and the per-role ΔVt [V].
  void bind(const std::array<double, 3>& q_fc,
            const std::array<double, 6>& dvt) {
    for (std::size_t r = 0; r < 6; ++r) fets[r]->set_delta_vt(dvt[r]);
    for (std::size_t k = 0; k < 3; ++k) {
      strikes[k]->set_shape(
          PulseShape::rectangular_for_charge(q_fc[k] * 1e-15, tau_s, kDelayS));
    }
  }

  double last_edge() const { return kDelayS + tau_s; }
};

struct Outcome {
  bool flipped = false;
  bool exited = false;  ///< Ended before t_end.
  double t_last = 0.0;
};

/// Run one strike with the latch exit off or on.
Outcome strike(Cell6T& cell, CompiledCircuit& cc, SolveWorkspace& ws,
               const std::array<double, 3>& q_fc,
               const std::array<double, 6>& dvt, bool latch) {
  cell.bind(q_fc, dvt);
  cc.rebind();
  std::vector<double> guess(cell.c.unknown_count(), 0.0);
  guess[cell.q] = cell.vdd;
  guess[cell.n_vdd] = cell.vdd;
  guess[cell.bl] = cell.vdd;
  guess[cell.blb] = cell.vdd;
  const std::vector<double> x0 = solve_dc(cc, ws, guess);
  TransientOptions opt;
  opt.t_end = kTEnd;
  opt.dt_initial = 1e-15;
  opt.dt_max = 1e-12;
  opt.latch_rail_v = latch ? cell.vdd : 0.0;
  // One lane of the compiled transient engine, as StrikeSimulator runs it.
  BatchWorkspace bw;
  cc.batch_configure(bw, 1);
  const BatchTransientResult r = run_transient_batch(cc, bw, {x0}, opt, {"q", "qb"});
  EXPECT_FALSE(r.failed[0]) << r.errors[0];
  const Waveform& w = r.waves[0];
  Outcome out;
  out.flipped =
      w.final_value(0) < 0.5 * cell.vdd && w.final_value(1) > 0.5 * cell.vdd;
  out.t_last = w.times().back();
  out.exited = out.t_last < kTEnd - 1e-24;
  return out;
}

/// Runs every probe with the exit off and on and checks the contract.
struct Checker {
  Cell6T& cell;
  CompiledCircuit cc;
  SolveWorkspace ws;
  int probes = 0;
  int exits = 0;

  explicit Checker(Cell6T& c) : cell(c), cc(c.c) {}

  /// Returns the full-window flip decision.
  bool check(const std::array<double, 3>& q_fc,
             const std::array<double, 6>& dvt, const std::string& where) {
    const Outcome full = strike(cell, cc, ws, q_fc, dvt, false);
    const Outcome fast = strike(cell, cc, ws, q_fc, dvt, true);
    EXPECT_FALSE(full.exited) << where;
    EXPECT_EQ(full.flipped, fast.flipped)
        << where << " q=(" << q_fc[0] << ", " << q_fc[1] << ", " << q_fc[2]
        << ") fC, exit at " << fast.t_last;
    if (fast.exited) {
      EXPECT_GE(fast.t_last, cell.last_edge() - 1e-24)
          << where << ": exit before the last source edge";
      ++exits;
    }
    ++probes;
    return full.flipped;
  }
};

std::array<double, 3> on_current(std::size_t k, double q_fc) {
  std::array<double, 3> q{};
  q[k] = q_fc;
  return q;
}

TEST(LatchExit, FlipDecisionsMatchTheFullWindow) {
  stats::Rng rng(20140601);
  const double sigma = sram::CellDesign{}.sigma_vt;
  for (double vdd : {0.7, 0.9, 1.1}) {
    Cell6T cell(vdd, /*read=*/false);
    Checker chk(cell);
    const std::string at = "vdd " + std::to_string(vdd);
    const std::array<double, 6> nominal{};
    std::array<double, 3> qcrit{};

    // I1, I2, I3 bisection ladders, then ±0.1 % around each Qcrit.
    for (std::size_t k = 0; k < 3; ++k) {
      const std::string where = at + " I" + std::to_string(k + 1);
      double lo = 0.0;
      double hi = 1.0;
      ASSERT_FALSE(chk.check(on_current(k, lo), nominal, where));
      ASSERT_TRUE(chk.check(on_current(k, hi), nominal, where));
      for (int it = 0; it < 18; ++it) {
        const double mid = 0.5 * (lo + hi);
        (chk.check(on_current(k, mid), nominal, where) ? hi : lo) = mid;
      }
      qcrit[k] = hi;
      EXPECT_FALSE(chk.check(on_current(k, 0.999 * hi), nominal, where));
      EXPECT_TRUE(chk.check(on_current(k, 1.001 * hi), nominal, where));
    }

    // One (I1, I2) pair row and one triple column across the flip boundary,
    // nominal and under three ΔVt draws.
    std::vector<std::array<double, 6>> draws{nominal};
    for (int d = 0; d < 3; ++d) {
      std::array<double, 6> dvt{};
      for (double& v : dvt) v = rng.normal(0.0, sigma);
      draws.push_back(dvt);
    }
    for (std::size_t d = 0; d < draws.size(); ++d) {
      const std::string where = at + " draw " + std::to_string(d);
      int pair_flips = 0;
      int triple_flips = 0;
      for (int i = 0; i <= 8; ++i) {
        const double f = 1.4 * i / 8.0;
        pair_flips += chk.check({0.6 * qcrit[0], f * qcrit[1], 0.0}, draws[d],
                                where + " pair row");
        triple_flips += chk.check(
            {0.4 * qcrit[0], 0.4 * qcrit[1], f * qcrit[2]}, draws[d],
            where + " triple column");
      }
      // Both rows cross the boundary: the comparison saw both outcomes.
      EXPECT_GT(pair_flips, 0) << where;
      EXPECT_LT(pair_flips, 9) << where;
      EXPECT_GT(triple_flips, 0) << where;
      EXPECT_LT(triple_flips, 9) << where;
    }
    // The exit is what the characterizer's probes actually take.
    EXPECT_GT(chk.exits, chk.probes * 9 / 10) << at;
  }
}

TEST(LatchExit, ReadModeNeverLatches) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  for (double vdd : {0.7, 0.9, 1.1}) {
    Cell6T cell(vdd, /*read=*/true);
    CompiledCircuit cc(cell.c);
    SolveWorkspace ws;
    // A sub-critical and a flipping I1 strike: either way the '0' node is
    // held well off ground by the open pass gate.
    for (double q_fc : {0.01, 1.0}) {
      const Outcome o = strike(cell, cc, ws, {q_fc, 0.0, 0.0}, {}, true);
      EXPECT_FALSE(o.exited) << "vdd " << vdd << " q " << q_fc;
    }
    sram::StrikeSimulator sim(sram::CellDesign{}, vdd, sram::AccessMode::kRead);
    EXPECT_GT(sim.hold_state()[1], 0.1) << "vdd " << vdd;  // Band: <= 55 mV.
    sim.simulate(sram::StrikeCharges{0.01, 0.0, 0.0});
    sim.simulate(sram::StrikeCharges{1.0, 0.0, 0.0});
  }
  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("spice.tran.latch_exits").total(), 0u);
  EXPECT_EQ(reg.counter("spice.tran.runs").total(), 12u);
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

/// Two RC nodes a, b with a zero-charge pulse edge at 1 ps and 2 ps;
/// \p va / \p vb pin them to a supply when non-negative.
Waveform rc_pair(double va, double vb, double rail,
                 std::vector<std::string> probes = {"a", "b"}) {
  Circuit c;
  const std::size_t a = c.node("a");
  const std::size_t b = c.node("b");
  for (const auto& [n, v] : {std::pair{a, va}, std::pair{b, vb}}) {
    if (v >= 0.0) {
      c.add<VSource>(c, n, kGround, v);
    } else {
      c.add<Resistor>(n, kGround, 1e3);
      c.add<Capacitor>(n, kGround, 1e-15);
    }
  }
  c.add<PulseISource>(a, kGround,
                      PulseShape::rectangular_for_charge(0.0, 1e-12, 1e-12));
  TransientOptions opt;
  opt.t_end = 10e-12;
  opt.latch_rail_v = rail;
  return run_transient(c, solve_dc(c, std::vector<double>(c.unknown_count())),
                       opt, probes);
}

TEST(LatchExit, OnlyOppositeRailsLatch) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  obs::Counter& exits =
      obs::Registry::global().counter("spice.tran.latch_exits");
  const auto full_window = [](const Waveform& w) {
    return w.times().back() >= 10e-12 - 1e-24;
  };

  // Both low (the instant after an I1 strike pulls Q down): never latched.
  EXPECT_TRUE(full_window(rc_pair(-1.0, -1.0, 1.0)));
  // Both high: never latched either.
  EXPECT_TRUE(full_window(rc_pair(1.0, 1.0, 1.0)));
  EXPECT_EQ(exits.total(), 0u);

  // Opposite rails, either way round: the run ends at the last edge (2 ps).
  for (const auto& [va, vb] : {std::pair{1.0, -1.0}, std::pair{-1.0, 1.0}}) {
    const Waveform w = rc_pair(va, vb, 1.0);
    EXPECT_NEAR(w.times().back(), 2e-12, 1e-24);
    EXPECT_NEAR(w.final_value(0), va < 0.0 ? 0.0 : va, 1e-9);
  }
  EXPECT_EQ(exits.total(), 2u);

  // Off by default: the same opposite-rail pair runs the full window.
  EXPECT_TRUE(full_window(rc_pair(1.0, -1.0, 0.0)));
  EXPECT_EQ(exits.total(), 2u);

  // The probe list must be (node, complement) pairs.
  EXPECT_THROW(rc_pair(1.0, -1.0, 1.0, {"a"}), util::InvalidArgument);
  EXPECT_THROW(rc_pair(1.0, -1.0, 1.0, {}), util::InvalidArgument);
  EXPECT_THROW(rc_pair(1.0, -1.0, -0.5), util::InvalidArgument);
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

}  // namespace
}  // namespace finser::spice
