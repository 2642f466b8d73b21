#pragma once
/// \file batch.hpp
/// \brief The compiled transient engine, lane-batched (public surface).
///
/// Characterization solves millions of *independent* strike transients on the
/// same topology: PV samples never interact, so W of them can advance in
/// lockstep with every per-lane quantity held in AoSoA blocks of width W —
/// slot s of lane w lives at `array[s * W + w]`, the unit-stride inner
/// dimension the compiler auto-vectorizes. The lane loops are plain C++ (no
/// intrinsics): the arithmetic is elementwise IEEE-754 with no reductions
/// across lanes, so vectorizing it cannot change any lane's bits, and every
/// transcendental goes through the deterministic kernels of vecmath.hpp.
/// That is the bit-pinned contract (docs/spice.md): every lane is
/// **byte-identical** to the polymorphic reference engine (run_transient,
/// transient.hpp) with the same binding, for every lane width, at any thread
/// count — W is a pure throughput knob. It is the only compiled transient
/// path: a single transient is a stream of one job.
///
/// Lanes are *refilled, not held*: the engine draws its transients from a
/// job source (run_transient_stream). A lane whose job ends — latch exit,
/// t_end or failure — hands the outcome back and loads the next job before
/// the next tick, so a lane only rides masked (stamped and discarded) while
/// the source has nothing ready for it: the drain tail of a stream. Per-lane
/// Newton bookkeeping — damping, convergence, step control, the escalation
/// ladder, the latch exit — stays scalar per lane and mirrors the reference
/// transient loop statement for statement; a refilled lane resets all of it,
/// so its job runs bit for bit as on a fresh lane.
///
/// Width selection: the compiled default (`kDefaultLaneWidth`) picks the
/// widest vector unit the build targets; `set_lane_width()` / the
/// `FINSER_LANES` env var / the `--lanes` CLI flag override it at runtime
/// (0 = auto). Width 1 is the same engine advancing one transient at a time,
/// with no SIMD assumptions. All widths {1, 4, 8} are always compiled, so a
/// vectorized build can be pinned to width 1 without recompiling.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "finser/spice/compiled.hpp"
#include "finser/spice/transient.hpp"

namespace finser::spice {

/// Hard ceiling on the lane count (sizes the per-lane cold-state arrays).
inline constexpr std::size_t kMaxLaneWidth = 8;

/// Compile-time auto width: the widest SIMD unit the build targets.
/// FINSER_SCALAR_LANES (CMake option) makes the default width 1.
#if defined(FINSER_SCALAR_LANES)
inline constexpr std::size_t kDefaultLaneWidth = 1;
#elif defined(__AVX512F__)
inline constexpr std::size_t kDefaultLaneWidth = 8;
#else
inline constexpr std::size_t kDefaultLaneWidth = 4;
#endif

/// True for the widths the engine is instantiated at (0 = auto is accepted
/// by set_lane_width()).
inline constexpr bool lane_width_valid(std::size_t w) {
  return w == 0 || w == 1 || w == 4 || w == 8;
}

/// Resolved lane width of this process: the last set_lane_width() value if
/// any, else FINSER_LANES (invalid values are diagnosed on stderr and
/// ignored, mirroring FINSER_MC_SCALE), else kDefaultLaneWidth.
std::size_t lane_width();

/// Override the lane width (0 = back to auto). Throws util::InvalidArgument
/// unless lane_width_valid(w).
void set_lane_width(std::size_t w);

/// Preallocated AoSoA scratch of one lane-batched circuit: the per-lane
/// rebound parameters, reactive state, dense MNA blocks and solver vectors,
/// plus the per-lane cold state (pivot caches, breakpoints). One workspace
/// per (thread, compiled circuit); sized by CompiledCircuit::batch_configure().
/// Hot arrays index as [slot * lanes + w].
struct BatchWorkspace {
  std::size_t lanes = 0;     ///< AoSoA width W (1, 4 or 8).
  std::size_t unknowns = 0;  ///< System size n (sans ground scratch).

  // --- Per-lane rebound parameters (see batch_rebind_lane) -----------------
  std::vector<double> vsrc_v;       ///< [vsource * W + w].
  std::vector<PulseShape> is_shape; ///< [isource * W + w].
  /// FinFetPlan split per field (p_type stays on the shared MosRec — device
  /// polarity is lane-invariant, which keeps it a uniform branch).
  struct MosLanes {
    std::vector<double> n, dibl, lambda, phi_t, vt_base, is, is_lambda,
        duf_dvgs, duf_dvds, dur_dvds;
  } mos;

  // --- Per-lane reactive state ---------------------------------------------
  std::vector<double> cap_v_prev;  ///< [capacitor * W + w].
  std::vector<double> cap_i_prev;

  // --- Dense MNA blocks (written by batch_stamp_fused) ---------------------
  std::vector<double> fa;  ///< (n² + 1) × W, ground scratch slot included.
  std::vector<double> fb;  ///< (n + 1) × W.

  // --- Solver vectors ------------------------------------------------------
  std::vector<double> x;      ///< n × W: committed state per lane.
  std::vector<double> x_try;  ///< n × W: Newton iterate per lane.
  std::vector<double> x_new;  ///< n × W: LU solution per lane.

  // --- Lane-blocked LU scratch ---------------------------------------------
  /// Physical-position → original-row map per lane, [pos * W + w]. The
  /// batched LU swaps rows *physically* (per lane) instead of indirecting
  /// through a permutation, so the elimination inner loops use uniform
  /// indices across lanes and vectorize regardless of per-lane pivot
  /// divergence; this map only feeds the pivot-order cache bookkeeping.
  std::vector<std::size_t> perm;
  std::array<Mna::PivotCache, kMaxLaneWidth> pivot;  ///< Per-lane caches.

  // --- Per-lane transient cold state (scalar access only) ------------------
  std::array<std::vector<double>, kMaxLaneWidth> breaks;
};

/// A stream of transients for run_transient_stream(). The engine asks for a
/// job whenever a lane is free and reports every job back by the index the
/// source gave it.
class TransientJobSource {
 public:
  virtual ~TransientJobSource() = default;

  /// Bind the next job to \p lane — load its parameters with
  /// CompiledCircuit::batch_rebind_lane() — set \p job to its index and
  /// return its operating point (size n, read before the call returns).
  /// nullptr means nothing is ready: the lane idles and is asked again
  /// before the next Newton tick. The run ends once every lane is idle.
  virtual const std::vector<double>* next(std::size_t lane,
                                          std::size_t& job) = 0;

  /// Job \p job ended. \p wave holds its probes (valid during the call
  /// only); \p error is null on success, else the text the reference engine
  /// throws as util::NumericalError for that transient.
  virtual void finish(std::size_t job, const Waveform& wave,
                      const std::string* error) = 0;
};

/// Run every job \p jobs hands out, bw.lanes at a time. Per job this computes
/// byte-identical waveforms, reactive state and failure text to the
/// reference run_transient(cc.source(), x0, opt, probe_nodes) under the
/// job's binding, whichever lane it lands in and whatever ran there before;
/// a failed job is reported through finish(), never thrown, and never
/// perturbs its neighbors. Exceptions thrown by the source propagate.
/// Options are checked as by run_transient (util::InvalidArgument).
void run_transient_stream(CompiledCircuit& cc, BatchWorkspace& bw,
                          TransientJobSource& jobs, const TransientOptions& opt,
                          const std::vector<std::string>& probe_nodes = {});

/// Per-lane results of run_transient_batch(). Lane w of the input maps to
/// index w here; lanes the caller left inactive (empty x0) come back with an
/// empty waveform and failed[w] == 0.
struct BatchTransientResult {
  std::vector<Waveform> waves;        ///< Size = lane count.
  std::vector<std::uint8_t> failed;   ///< 1 where the lane's run failed.
  /// The failure text per failed lane — the same message the reference
  /// engine throws as util::NumericalError for that transient.
  std::vector<std::string> errors;
};

/// run_transient_stream() over at most bw.lanes fixed jobs: job w runs on
/// lane w from operating point \p x0[w] (an empty entry — or a missing
/// trailing one — leaves the lane idle). The circuit's per-lane parameters
/// must have been loaded with batch_rebind_lane() beforehand.
BatchTransientResult run_transient_batch(
    CompiledCircuit& cc, BatchWorkspace& bw,
    const std::vector<std::vector<double>>& x0, const TransientOptions& opt,
    const std::vector<std::string>& probe_nodes = {});

}  // namespace finser::spice
