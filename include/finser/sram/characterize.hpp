#pragma once
/// \file characterize.hpp
/// \brief SRAM-cell soft-error characterization (paper Sec. 4).
///
/// Builds the POF LUTs by repeated strike simulation:
///
///  * **Single currents** — for each of I1/I2/I3 and each process-variation
///    sample (6 i.i.d. N(0, σ_Vt) threshold shifts) the critical charge is
///    bisected; the sorted sample set *is* the POF curve (an exact empirical
///    CDF rather than the paper's fixed 1000-run grid — smoother for the
///    same simulation budget).
///  * **Current pairs / triple** — POF grids over charge combinations. The
///    flip region is monotone (more charge never un-flips a cell — enforced
///    by tests), so the nominal boundary is found with per-row binary
///    search, and PV Monte Carlo is spent only on grid cells within ~4σ of
///    that boundary; everything else is deterministically 0 or 1.
///
/// Characterization cost is dominated by SPICE transients, so it runs as one
/// job stream on the exec thread pool: every PV sample's bisection, every
/// boundary row's search and every near-boundary grid cell's sample ladder
/// is a work item that feeds the lane-batched engine one probe at a time,
/// with every supply voltage in flight at once. Each item draws from its own
/// counter-derived RNG stream (stats::Rng::stream) and writes its result by
/// index, which keeps the model bit-identical for any thread count and lane
/// width. A full 5-voltage model is a
/// few tens of seconds on one core; campaigns and the benches cache it in
/// the artifact store (kind "cell_model", surface::encode_cell_model).

#include <cstdint>
#include <string>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/exec/progress.hpp"
#include "finser/sram/cell.hpp"
#include "finser/sram/pof_table.hpp"
#include "finser/stats/rng.hpp"

namespace finser::sram {

/// Knobs of the characterization campaign.
struct CharacterizerConfig {
  std::vector<double> vdds = {0.7, 0.8, 0.9, 1.0, 1.1};
  std::size_t pv_samples_single = 200;  ///< Critical-charge samples per current.
  std::size_t pair_grid_points = 9;     ///< Grid points per pair axis.
  std::size_t triple_grid_points = 6;   ///< Grid points per triple axis.
  std::size_t pv_samples_grid = 48;     ///< MC samples per near-boundary cell.
  double q_max_fc = 0.4;                ///< Charge ceiling of all tables [fC].
  double bisect_tol_fc = 2e-4;          ///< Critical-charge resolution [fC].
  spice::PulseShape::Kind pulse_kind = spice::PulseShape::Kind::kRectangular;
  std::uint64_t seed = 0x5EEDCAFEull;
  /// Worker threads for the SPICE-transient stages; 0 = auto
  /// (FINSER_THREADS, else hardware concurrency). Deliberately NOT part of
  /// the fingerprint: the thread count never changes the model.
  std::size_t threads = 0;
  /// Tolerated fraction of PV strike samples whose solve fails numerically.
  /// Failed samples are counted and *excluded* from the LUT statistics
  /// (never treated as flip or no-flip); if their fraction exceeds this,
  /// characterization aborts with NumericalError — a solver that sick would
  /// bias the model, not just thin its statistics. Not fingerprinted: it
  /// gates, it never changes values.
  double max_failure_fraction = 0.05;

  /// Fingerprint of (config, design) for cache validation. Includes a
  /// characterization-scheme version, bumped whenever the RNG-consumption
  /// scheme changes, so stale disk caches are rebuilt.
  std::uint64_t fingerprint(const CellDesign& design) const;
};

/// Critical-charge bisection along a fixed charge direction:
/// returns the smallest scale s such that s·\p direction flips the cell,
/// or SingleCdf::kNeverFlips if \p s_max·direction does not flip it.
double bisect_critical_scale(StrikeSimulator& sim, const StrikeCharges& direction,
                             const DeltaVt& delta_vt, double s_max, double tol,
                             spice::PulseShape::Kind kind);

/// Build a charge axis for the pair/triple POF grids: a zero anchor, a dense
/// band bracketing the cell's critical-charge range [qc_lo, qc_hi], and a
/// sparse tail out to \p q_max_fc. Dense placement keeps the bilinear/
/// trilinear interpolation honest exactly where POF transitions 0 → 1
/// (a uniform axis smears phantom POF onto near-zero charge combinations).
util::Axis make_charge_axis(double qc_lo_fc, double qc_hi_fc, std::size_t points,
                            double q_max_fc);

/// Cell characterizer.
class CellCharacterizer {
 public:
  CellCharacterizer(const CellDesign& design, const CharacterizerConfig& config);

  /// Characterize every configured supply voltage, all of them in flight on
  /// one job stream. Voltage \p i (in sorted order) runs under seed
  /// stats::Rng::derive_seed(config.seed, i). A fired \p cancel throws
  /// util::Cancelled between strike simulations; no partial model is ever
  /// returned. A solve that cannot fail soft (a nominal anchor or boundary
  /// search) stops the stream and is thrown as util::NumericalError; the
  /// failed-sample gate of characterize_at() is applied in voltage order once
  /// every voltage is done.
  CellSoftErrorModel characterize(
      const exec::ProgressSink& progress = {},
      const exec::CancelToken* cancel = nullptr) const;

  /// Characterize one supply voltage under \p seed. Deterministic in
  /// (design, config, vdd_v, seed) — never in the thread count. Throws
  /// util::Cancelled if \p cancel fires (partial tables are never returned)
  /// and util::NumericalError if the failed-sample fraction exceeds
  /// CharacterizerConfig::max_failure_fraction.
  PofTable characterize_at(double vdd_v, std::uint64_t seed,
                           const exec::ProgressSink& progress = {},
                           const exec::CancelToken* cancel = nullptr) const;

  /// Draw one process-variation sample (6 threshold shifts).
  DeltaVt sample_delta_vt(stats::Rng& rng) const;

  const CharacterizerConfig& config() const { return config_; }
  const CellDesign& design() const { return design_; }

 private:
  CellDesign design_;
  CharacterizerConfig config_;
};

}  // namespace finser::sram
