#pragma once
/// \file finfet.hpp
/// \brief EKV-style compact model for 14 nm SOI FinFET devices.
///
/// The paper characterizes its SRAM cell with a proprietary SPICE flow on a
/// 14 nm SOI FinFET library (PTM-style, its refs [28][29]). finser's
/// substitute is a charge-based EKV-flavoured compact model:
///
///   v_p  = (v_gs − v_t,eff) / n,    v_t,eff = v_t0 + Δv_t − σ_DIBL·v_ds
///   I_DS = I_S · [F(v_p/φ_t) − F((v_p − v_ds)/φ_t)] · (1 + λ·v_ds)
///   F(u) = ln²(1 + e^{u/2}),        I_S = 2·n·φ_t²·k_p·n_fin
///
/// F interpolates smoothly between the subthreshold exponential and the
/// square-law saturation region; DIBL and channel-length modulation give
/// realistic output conductance. SOI FinFETs are modeled three-terminal
/// (floating body). PMOS devices use the same equations under voltage
/// reflection. Default cards are calibrated so that a one-fin NFET drives
/// ~60 µA at Vdd = 0.8 V (14 nm class) with ~72 mV/dec subthreshold slope.
///
/// Process variation enters as a per-device threshold shift Δv_t, sampled
/// N(0, σ_Vt) with σ_Vt = 40 mV by default (Wang et al., 14 nm SOI FinFET).

#include <cmath>

#include "finser/spice/vecmath.hpp"

namespace finser::spice {

/// Device polarity.
enum class MosType { kN, kP };

/// Model card (per-fin parameters; all voltages in V, currents in A).
struct FinFetModel {
  MosType type = MosType::kN;
  double vt0 = 0.25;     ///< Zero-bias threshold magnitude [V] at 300 K.
  double n = 1.25;       ///< Subthreshold slope factor.
  double kp = 4.0e-4;    ///< Transconductance parameter per fin [A/V²] at 300 K.
  double dibl = 0.06;    ///< DIBL coefficient [V/V].
  double lambda = 0.05;  ///< Channel-length modulation [1/V].

  /// Gate capacitance per fin [F] (lumped; split Cgs/Cgd by the netlist).
  double cgg_f = 0.04e-15;
  /// Drain junction/fringe capacitance per fin [F].
  double cdb_f = 0.03e-15;

  // --- Temperature behaviour (evaluated around T0 = 300 K) ---------------
  /// Threshold temperature coefficient [V/K] (|Vt| drops as T rises).
  double vt_tc_v_per_k = -0.7e-3;
  /// Phonon-limited mobility exponent: kp(T) = kp·(300/T)^m.
  double mobility_exponent = 1.5;
};

/// Evaluated large-signal operating point with small-signal derivatives.
struct MosOp {
  double ids = 0.0;  ///< Drain current, positive into the drain (NMOS).
  double gm = 0.0;   ///< dIds/dVgs.
  double gds = 0.0;  ///< dIds/dVds.
};

/// Evaluate the model at terminal voltages (drain/gate/source to ground).
/// \param delta_vt per-instance threshold shift (process variation) in the
///        *strengthening-positive* convention: a positive value raises |Vt|.
/// \param nfin     number of parallel fins.
/// \param temp_k   junction temperature [K]; scales the thermal voltage,
///        the threshold (vt_tc) and the mobility (kp·(300/T)^m).
MosOp evaluate_finfet(const FinFetModel& m, double vd, double vg, double vs,
                      double delta_vt, double nfin, double temp_k = 300.0);

/// Default NFET card of the 14 nm node.
const FinFetModel& default_nfet();

/// Default PFET card of the 14 nm node (lower kp: hole mobility deficit).
const FinFetModel& default_pfet();

namespace detail {

/// Softplus-squared EKV interpolation function F(u) = ln²(1 + e^{u/2}) and
/// its derivative F'(u) = ln(1 + e^{u/2}) · sigmoid(u/2). Shared (inline, one
/// definition) by evaluate_finfet() and the baked plan evaluation below so
/// the two paths cannot drift numerically.
struct FEval {
  double f;
  double df;
};

/// Select-based (branch-free) on the deterministic fexp/flog1p kernels of
/// vecmath.hpp: every regime's value is computed and the asymptotic ones
/// selected per the same thresholds the historical branchy form used
/// (half > 40: l = half exactly; half < -40: l ~ e^{u/2}, harmless
/// underflow). Selects instead of branches keep the function vectorizable
/// when the lane-batched engine inlines it into a loop over lanes, and the
/// shared kernels keep every engine path — reference, compiled DC, every
/// batch width — bit-identical by construction (the bit-pinned
/// contract, docs/spice.md).
inline FEval ekv_f(double u) {
  const double half = 0.5 * u;
  const double e = fexp(half);
  const double l_mid = flog1p(e);                   // ln(1 + e^{u/2})
  const double sig_mid = 1.0 / (1.0 + fexp(-half));  // logistic(u/2)
  const double l = half > 40.0 ? half : (half < -40.0 ? e : l_mid);
  const double sig = half > 40.0 ? 1.0 : (half < -40.0 ? e : sig_mid);
  return {l * l, l * sig};
}

}  // namespace detail

/// Baked form of one Mosfet instance for the compile-once/evaluate-many hot
/// path: every sample-invariant subexpression of evaluate_finfet() — the
/// thermal voltage, the temperature-scaled transconductance (the only
/// std::pow in the model), the ΔVt-shifted threshold base and the derivative
/// prefactors — is evaluated once per rebind instead of once per Newton
/// iteration. Each field is computed by the *same expression, in the same
/// association order,* as the corresponding subexpression in
/// evaluate_finfet(), so evaluate_finfet_planned() is bit-identical to the
/// reference evaluation (pinned by tests/test_spice_compiled.cpp).
struct FinFetPlan {
  bool p_type = false;  ///< PMOS: evaluate reflected, flip the current sign.
  double n = 1.25;      ///< Subthreshold slope factor (copied from the card).
  double dibl = 0.0;
  double lambda = 0.0;
  double phi_t = 0.0;      ///< kThermalVoltage300K · T / 300.
  double vt_base = 0.0;    ///< vt0 + vt_tc·(T − 300) + Δvt.
  double is = 0.0;         ///< 2·n·φ_t²·kp(T)·nfin.
  double is_lambda = 0.0;  ///< is · λ.
  double duf_dvgs = 0.0;   ///< 1 / (n·φ_t).
  double duf_dvds = 0.0;   ///< σ_DIBL / (n·φ_t).
  double dur_dvds = 0.0;   ///< duf_dvds − 1/φ_t.
};

/// Bake a plan for one device instance (see FinFetPlan). Preconditions match
/// evaluate_finfet(): nfin > 0, temp_k > 0 — checked by the caller
/// (CompiledCircuit) once per rebind rather than once per evaluation.
FinFetPlan bake_finfet(const FinFetModel& m, double delta_vt, double nfin,
                       double temp_k);

/// Evaluate a baked plan at terminal voltages. Bit-identical to
/// evaluate_finfet(m, vd, vg, vs, delta_vt, nfin, temp_k) for the plan baked
/// from those parameters.
inline MosOp evaluate_finfet_planned(const FinFetPlan& p, double vd, double vg,
                                     double vs) {
  // Mirrors evaluate_finfet(): PMOS reflection first, then the
  // source-drain-swap frame translation around the vds >= 0 core.
  if (p.p_type) {
    vd = -vd;
    vg = -vg;
    vs = -vs;
  }
  const double vgs = vg - vs;
  const double vds = vd - vs;

  const auto core = [&p](double c_vgs, double c_vds) {
    const double vt_eff = p.vt_base - p.dibl * c_vds;
    const double vp = (c_vgs - vt_eff) / p.n;
    const detail::FEval ff = detail::ekv_f(vp / p.phi_t);
    const detail::FEval fr = detail::ekv_f((vp - c_vds) / p.phi_t);
    const double clm = 1.0 + p.lambda * c_vds;
    MosOp op;
    op.ids = p.is * (ff.f - fr.f) * clm;
    op.gm = p.is * clm * (ff.df * p.duf_dvgs - fr.df * p.duf_dvgs);
    op.gds = p.is * clm * (ff.df * p.duf_dvds - fr.df * p.dur_dvds) +
             p.is_lambda * (ff.f - fr.f);
    return op;
  };

  MosOp op;
  if (vds >= 0.0) {
    op = core(vgs, vds);
  } else {
    const MosOp sw = core(vg - vd, -vds);
    op.ids = -sw.ids;
    op.gm = -sw.gm;
    op.gds = sw.gm + sw.gds;
  }
  if (p.p_type) op.ids = -op.ids;
  return op;
}

}  // namespace finser::spice
