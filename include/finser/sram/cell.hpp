#pragma once
/// \file cell.hpp
/// \brief 6T SOI-FinFET SRAM cell: netlist construction and strike simulation.
///
/// The cell under study (paper Fig. 5a) holds Q=1/QB=0. The transistors
/// sensitive to radiation are the three that are OFF with |Vds| = Vdd:
///
///   * the pull-down at Q        — strike current I1 pulls Q toward GND;
///   * the pull-up at QB         — strike current I2 pulls QB toward VDD;
///   * the pass-gate at QB       — strike current I3 injects from BLB (pre-
///                                 charged to VDD) into QB.
///
/// A StrikeSimulator owns one cell circuit and answers "does this strike
/// flip the cell?" for arbitrary charge combinations, supply voltages,
/// pulse shapes and per-transistor threshold shifts. It is the SPICE step
/// of the paper's flow (Sec. 4), executed tens of thousands of times during
/// characterization.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "finser/phys/collection.hpp"
#include "finser/spice/batch.hpp"
#include "finser/spice/circuit.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/transient.hpp"

namespace finser::sram {

/// The six transistors of a 6T cell. "L" is the Q side, "R" the QB side.
enum class Role : std::size_t {
  kPdL = 0,  ///< Pull-down NFET driving Q.
  kPuL = 1,  ///< Pull-up PFET driving Q.
  kPgL = 2,  ///< Pass-gate NFET at Q.
  kPdR = 3,  ///< Pull-down NFET driving QB.
  kPuR = 4,  ///< Pull-up PFET driving QB.
  kPgR = 5,  ///< Pass-gate NFET at QB.
};

inline constexpr std::size_t kRoleCount = 6;

/// Strike-current charge triple [fC] (paper Fig. 5a currents I1, I2, I3).
struct StrikeCharges {
  double i1_fc = 0.0;  ///< Into the OFF pull-down at the '1' node.
  double i2_fc = 0.0;  ///< Into the OFF pull-up at the '0' node.
  double i3_fc = 0.0;  ///< Into the OFF pass-gate at the '0' node.

  bool any() const { return i1_fc > 0.0 || i2_fc > 0.0 || i3_fc > 0.0; }
};

/// Per-transistor threshold shifts [V], indexed by Role.
using DeltaVt = std::array<double, kRoleCount>;

/// Cell topology.
enum class CellTopology {
  k6T,  ///< The paper's cell: shared read/write port (Fig. 5a).
  k8T,  ///< Read-decoupled cell: a 2-NFET read stack (gate on QB, gated by a
        ///< separate read wordline) buffers the storage nodes from the read
        ///< path. Retention SER is 6T-like; the read-disturb vulnerability
        ///< (see ablation_access_mode) disappears. Read-stack transistors
        ///< are not upset-sensitive — a strike there can only glitch the
        ///< read bitline, a transient read error rather than a bit flip.
};

/// Electrical design of the cell.
struct CellDesign {
  CellTopology topology = CellTopology::k6T;
  const spice::FinFetModel* nfet = nullptr;  ///< Default: default_nfet().
  const spice::FinFetModel* pfet = nullptr;  ///< Default: default_pfet().
  double nfin_pd = 1.0;  ///< Fins per pull-down.
  double nfin_pg = 1.0;  ///< Fins per pass-gate.
  double nfin_pu = 1.0;  ///< Fins per pull-up.
  /// Explicit storage-node capacitance [F]. Calibrated so the cell's
  /// critical charge spans ~0.11 fC (Vdd = 0.7 V) to ~0.18 fC (1.1 V):
  /// alpha strikes near the Bragg peak (~1800 pairs through a full fin
  /// chord) clear it at every Vdd, while low-energy-proton deposits (~800
  /// pairs peak) only clear it at low Vdd — the regime that produces the
  /// paper's Fig. 9 crossover (see EXPERIMENTS.md).
  double cnode_f = 0.17e-15;
  double sigma_vt = 0.050;    ///< Threshold-variation sigma [V] (Wang et al., 14 nm SOI).
  double temp_k = 300.0;      ///< Junction temperature [K].
  phys::FinTechnology tech;   ///< Fin geometry / mobility (pulse width).
};

/// Result of one strike transient.
struct StrikeOutcome {
  bool flipped = false;
  /// V(Q) / V(QB) when the run ended: at the latch exit (both nodes within
  /// 5 % of opposite rails) or at the 50 ps ceiling, whichever came first.
  double final_q_v = 0.0;
  double final_qb_v = 0.0;
};

/// Operating condition of the cell during the strike.
enum class AccessMode {
  kRetention,  ///< Wordline low, bitlines precharged (the paper's scenario).
  kRead,       ///< Wordline high, bitlines held at the precharge level: the
               ///< read-disturb condition — the cell's weakest moment.
};

/// Which SPICE evaluation path a StrikeSimulator drives.
enum class SpiceEngine {
  /// Compile-once/evaluate-many: the cell circuit is lowered to a
  /// spice::CompiledCircuit at construction; every sample is a parameter
  /// rebind, a DC solve against a persistent SolveWorkspace and a run of the
  /// lane-batched transient engine (spice/batch.hpp). The DC hold state is
  /// independent of the strike charges, so a job that probes one ΔVt
  /// vector many times (a whole Qcrit bisection) solves it once.
  /// Results are bit-identical to the reference engine.
  kCompiled,
  /// Polymorphic reference path: rebuilds solver scratch per solve, exactly
  /// the historical behavior. Kept as the equivalence baseline.
  kReference,
};

/// Reusable single-cell strike simulator at a fixed supply voltage.
class StrikeSimulator {
 public:
  StrikeSimulator(const CellDesign& design, double vdd_v,
                  AccessMode mode = AccessMode::kRetention,
                  SpiceEngine engine = SpiceEngine::kCompiled);

  StrikeSimulator(const StrikeSimulator&) = delete;
  StrikeSimulator& operator=(const StrikeSimulator&) = delete;

  /// Simulate a strike delivering \p charges with the given pulse shape
  /// kind and threshold shifts. The pulse width is the transit time
  /// τ = L²/(μ·Vdd) (paper Eq. 2). The compiled engine runs it as a stream
  /// of one job on a one-lane workspace of its own.
  StrikeOutcome simulate(
      const StrikeCharges& charges, const DeltaVt& delta_vt = {},
      spice::PulseShape::Kind kind = spice::PulseShape::Kind::kRectangular);

  /// Per-probe result of run_stream(). A failed probe carries the text
  /// simulate() would have thrown as util::NumericalError.
  struct LaneOutcome {
    StrikeOutcome outcome;
    bool failed = false;
    std::string error;
  };

  /// One strike transient of a run_stream().
  struct Probe {
    StrikeCharges charges;
    DeltaVt dvt{};
    /// The DC hold point the transient starts from, owned by the caller's
    /// job. Empty: run_stream() solves it for \p dvt into this vector, so a
    /// job that keeps the vector across its probes solves it once.
    std::vector<double>* hold = nullptr;
  };

  /// The jobs of a run_stream(): at most one probe per lane in flight.
  class ProbeSource {
   public:
    virtual ~ProbeSource() = default;
    /// The next probe for \p lane; false when nothing is ready (the lane
    /// idles and is asked again before the next Newton tick).
    virtual bool next(std::size_t lane, Probe& probe) = 0;
    /// The outcome of \p lane's probe: failed with simulate()'s error text
    /// when its DC hold solve or its transient failed.
    virtual void finish(std::size_t lane, const LaneOutcome& out) = 0;
  };

  /// Run every probe \p source hands out on lane_width() lanes of the
  /// lane-batched engine: a lane whose transient ends reports it and takes
  /// the next probe at once. Returns once every lane is idle. Each outcome
  /// is byte-identical to simulate() with the same inputs. A probe whose
  /// hold point is carried in counts as `sram.strike.dc_reuse`. Compiled
  /// engine only.
  void run_stream(ProbeSource& source, spice::PulseShape::Kind kind);

  /// The DC hold operating point (every unknown) under \p delta_vt, solved
  /// as run_stream() solves a probe's hold point. Compiled engine only.
  std::vector<double> hold_point(const DeltaVt& delta_vt);

  /// Static-noise-margin style diagnostic: the hold-state solution.
  /// Returns {V(Q), V(QB)} of the DC operating point with no strike.
  std::array<double, 2> hold_state(const DeltaVt& delta_vt = {});

  double vdd() const { return vdd_v_; }
  const CellDesign& design() const { return design_; }
  AccessMode mode() const { return mode_; }
  SpiceEngine engine() const { return engine_; }

  /// Scale the strike pulse width relative to the transit time τ (default
  /// 1.0). The delivered charge is held constant, so this directly tests
  /// the paper's Sec.-4 claim that POF depends only on pulse area — see the
  /// pulse-shape ablation bench.
  void set_pulse_width_scale(double scale);
  double pulse_width_scale() const { return pulse_width_scale_; }

 private:
  void apply_delta_vt(const DeltaVt& delta_vt);
  /// Initial guess of every DC hold solve: the cell storing Q=1/QB=0.
  std::vector<double> hold_guess() const;
  std::vector<double> solve_hold(const DeltaVt& delta_vt);
  void set_strike_shapes(const StrikeCharges& charges,
                         spice::PulseShape::Kind kind);
  /// Compiled engine only; expects apply_delta_vt() + rebind() done.
  const std::vector<double>& hold_cached(const DeltaVt& delta_vt);
  /// The one flip predicate of both engines, applied to a {"q", "qb"}
  /// waveform.
  StrikeOutcome outcome_of(const spice::Waveform& wave) const;

  CellDesign design_;
  double vdd_v_;
  AccessMode mode_ = AccessMode::kRetention;
  SpiceEngine engine_ = SpiceEngine::kCompiled;
  double tau_s_;  ///< Drift-collection pulse width [s].
  double pulse_width_scale_ = 1.0;

  spice::Circuit circuit_;
  std::size_t n_q_, n_qb_, n_vdd_, n_bl_, n_blb_, n_wl_;
  std::array<spice::Mosfet*, kRoleCount> fets_{};
  spice::PulseISource* src_i1_ = nullptr;
  spice::PulseISource* src_i2_ = nullptr;
  spice::PulseISource* src_i3_ = nullptr;
  spice::TransientOptions topt_;

  // Compiled-engine state: the lowered circuit, the per-simulator DC solver
  // workspace, simulate()'s one-lane transient workspace and its ΔVt-keyed
  // DC hold-state cache.
  std::optional<spice::CompiledCircuit> compiled_;
  spice::SolveWorkspace ws_;
  spice::BatchWorkspace one_lane_;
  bool hold_valid_ = false;
  DeltaVt hold_dvt_{};
  std::vector<double> hold_x_;

  // run_stream()'s AoSoA workspace, configured lazily to the current lane
  // width.
  spice::BatchWorkspace bw_;
};

}  // namespace finser::sram
