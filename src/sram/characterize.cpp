#include "finser/sram/characterize.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>

#include "finser/exec/exec.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/obs/obs.hpp"
#include "finser/spice/batch.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {

namespace {

/// Bumped whenever the characterization algorithm's RNG-consumption scheme
/// changes (v2: counter-based per-stage / per-work-item streams); stale disk
/// caches from older schemes then fail fingerprint validation and rebuild.
constexpr std::uint64_t kSchemeVersion = 2;

/// Stream-family ids under one per-voltage seed (stats::Rng::derive_seed).
constexpr std::uint64_t kStreamSingleBase = 1;  // which = 0..2 -> 1..3.
constexpr std::uint64_t kStreamPairBase = 4;    // pair p = 0..2 -> 4..6.
constexpr std::uint64_t kStreamTriple = 7;

StrikeCharges scale_direction(const StrikeCharges& dir, double s) {
  return StrikeCharges{dir.i1_fc * s, dir.i2_fc * s, dir.i3_fc * s};
}

/// Sentinel for a PV sample whose solve diverged: excluded from the CDF,
/// never guessed as flip or no-flip.
constexpr double kFailedSample = -1.0;

StrikeCharges unit_direction(std::size_t which) {
  switch (which) {
    case 0: return StrikeCharges{1.0, 0.0, 0.0};
    case 1: return StrikeCharges{0.0, 1.0, 0.0};
    case 2: return StrikeCharges{0.0, 0.0, 1.0};
    default:
      throw util::InvalidArgument("unit_direction: index out of range");
  }
}

/// FNV-1a over raw double bytes.
void hash_doubles(std::uint64_t& h, const double* data, std::size_t count) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < count * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
}

void hash_value(std::uint64_t& h, double v) { hash_doubles(h, &v, 1); }

/// Charges for a pair combo (a, b) at grid charges (qa, qb).
StrikeCharges pair_charges(int a, int b, double qa, double qb) {
  StrikeCharges c;
  double* slots[3] = {&c.i1_fc, &c.i2_fc, &c.i3_fc};
  *slots[a] = qa;
  *slots[b] = qb;
  return c;
}

/// Smallest spacing of an axis (controls the MC dilation radius).
double min_spacing(const util::Axis& axis) {
  double dq = axis.back() - axis.front();
  for (std::size_t i = 1; i < axis.size(); ++i) {
    dq = std::min(dq, axis[i] - axis[i - 1]);
  }
  return dq;
}

}  // namespace

std::uint64_t CharacterizerConfig::fingerprint(const CellDesign& design) const {
  std::uint64_t h = 14695981039346656037ull;
  hash_value(h, static_cast<double>(kSchemeVersion));
  for (double v : vdds) hash_value(h, v);
  hash_value(h, static_cast<double>(pv_samples_single));
  hash_value(h, static_cast<double>(pair_grid_points));
  hash_value(h, static_cast<double>(triple_grid_points));
  hash_value(h, static_cast<double>(pv_samples_grid));
  hash_value(h, q_max_fc);
  hash_value(h, bisect_tol_fc);
  hash_value(h, static_cast<double>(static_cast<int>(pulse_kind)));
  hash_value(h, static_cast<double>(seed));
  // `threads` is intentionally absent: it never changes the model.

  const spice::FinFetModel& n = design.nfet ? *design.nfet : spice::default_nfet();
  const spice::FinFetModel& p = design.pfet ? *design.pfet : spice::default_pfet();
  for (const spice::FinFetModel* m : {&n, &p}) {
    hash_value(h, m->vt0);
    hash_value(h, m->n);
    hash_value(h, m->kp);
    hash_value(h, m->dibl);
    hash_value(h, m->lambda);
  }
  hash_value(h, design.nfin_pd);
  hash_value(h, design.nfin_pg);
  hash_value(h, design.nfin_pu);
  hash_value(h, design.cnode_f);
  hash_value(h, design.sigma_vt);
  hash_value(h, design.temp_k);
  hash_value(h, static_cast<double>(static_cast<int>(design.topology)));
  hash_value(h, design.tech.w_fin_nm);
  hash_value(h, design.tech.l_fin_nm);
  hash_value(h, design.tech.h_fin_nm);
  hash_value(h, design.tech.electron_mobility_cm2_vs);
  return h;
}

double bisect_critical_scale(StrikeSimulator& sim, const StrikeCharges& direction,
                             const DeltaVt& delta_vt, double s_max, double tol,
                             spice::PulseShape::Kind kind) {
  FINSER_REQUIRE(s_max > 0.0 && tol > 0.0,
                 "bisect_critical_scale: bad bracket parameters");
  if (!sim.simulate(scale_direction(direction, s_max), delta_vt, kind).flipped) {
    return SingleCdf::kNeverFlips;
  }
  double lo = 0.0;
  double hi = s_max;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (sim.simulate(scale_direction(direction, mid), delta_vt, kind).flipped) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

CellCharacterizer::CellCharacterizer(const CellDesign& design,
                                     const CharacterizerConfig& config)
    : design_(design), config_(config) {
  FINSER_REQUIRE(!config_.vdds.empty(), "CellCharacterizer: no supply voltages");
  FINSER_REQUIRE(config_.pair_grid_points >= 2 && config_.triple_grid_points >= 2,
                 "CellCharacterizer: grids need >= 2 points per axis");
  FINSER_REQUIRE(config_.q_max_fc > 0.0, "CellCharacterizer: q_max must be positive");
}

DeltaVt CellCharacterizer::sample_delta_vt(stats::Rng& rng) const {
  DeltaVt dvt{};
  for (double& v : dvt) v = rng.normal(0.0, design_.sigma_vt);
  return dvt;
}


util::Axis make_charge_axis(double qc_lo_fc, double qc_hi_fc, std::size_t points,
                            double q_max_fc) {
  FINSER_REQUIRE(points >= 6, "make_charge_axis: need >= 6 points");
  FINSER_REQUIRE(q_max_fc > 0.0, "make_charge_axis: q_max must be positive");
  // Fall back to a mid-range dense band when the cell never flipped.
  if (!(qc_lo_fc > 0.0) || qc_lo_fc >= q_max_fc) {
    qc_lo_fc = 0.25 * q_max_fc;
    qc_hi_fc = 0.5 * q_max_fc;
  }
  qc_hi_fc = std::min(std::max(qc_hi_fc, qc_lo_fc), q_max_fc);

  double dense_lo = std::max(0.4 * qc_lo_fc, 1e-4 * q_max_fc);
  double dense_hi = std::min(1.7 * qc_hi_fc, 0.95 * q_max_fc);
  if (dense_hi <= dense_lo) dense_hi = std::min(2.0 * dense_lo, 0.95 * q_max_fc);

  const std::size_t n_dense = points - 2;  // All but {0} and {q_max}.
  std::vector<double> pts;
  pts.reserve(points);
  pts.push_back(0.0);
  for (std::size_t i = 0; i < n_dense; ++i) {
    pts.push_back(dense_lo + (dense_hi - dense_lo) * static_cast<double>(i) /
                                 static_cast<double>(n_dense - 1));
  }
  pts.push_back(q_max_fc);
  // Guard monotonicity against degenerate parameter combinations.
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (pts[i] <= pts[i - 1]) pts[i] = pts[i - 1] + 1e-6 * q_max_fc;
  }
  return util::Axis(std::move(pts));
}

namespace {

// ---------------------------------------------------------------------------
// The characterization job stream
// ---------------------------------------------------------------------------
//
// Every strike transient of a characterization belongs to a *work item*, a
// small state machine that picks its next probe from the outcomes of its
// earlier ones:
//
//   * a single-current bisection (the nominal anchor or one PV sample),
//   * a nominal boundary search (one pair-grid row or triple-grid column),
//   * a near-boundary MC cell (its ladder of pv_samples_grid ΔVt draws).
//
// A lane of the engine holds one item at a time: when its probe ends, the
// item's next probe starts at once, and a finished item's lane takes the
// next ready item. Items become ready per voltage in dependency order — the
// nominal anchors open the boundary searches (they fix the charge axes),
// and a grid's MC cells open once its boundaries and all single-current
// samples (the smearing radius) are done. Every voltage is in flight at
// once; a worker drains one voltage's ready items on that voltage's
// simulator, then moves on. Results land by item index, and each item's
// probes depend only on its own outcomes, so the tables are the same at any
// thread count, lane width and schedule.

/// Grid ids of one voltage: the three current pairs, then the triple.
constexpr std::size_t kTriple = 3;
constexpr std::size_t kGridCount = 4;
constexpr int kPairIds[3][2] = {{0, 1}, {0, 2}, {1, 2}};

struct Item {
  enum class Kind : std::uint8_t { kSingle, kBoundary, kMcCell };
  Kind kind = Kind::kSingle;
  std::size_t group = 0;  ///< kSingle: current (0..2). Else: grid id.
  std::size_t index = 0;  ///< PV sample / grid row or column / grid cell.
  bool nominal = false;   ///< kSingle: the ΔVt-free anchor.
  std::size_t probes = 0; ///< Probes issued so far.
  bool done = false;      ///< kSingle: settled early (never flips, failed).
  double lo = 0.0, hi = 0.0;     ///< kSingle: the scale bracket.
  std::size_t ilo = 0, ihi = 0;  ///< kBoundary: the column bracket.
  double result = 0.0;           ///< kSingle: the critical charge.
  DeltaVt dvt{};
  std::vector<double> hold;  ///< The item's own DC hold point (PV items).
  stats::Rng rng;            ///< kMcCell: the cell's ΔVt stream.
  std::size_t flips = 0, ok = 0, failed = 0;  ///< kMcCell tallies.
};

/// One grid (pair or triple) of one voltage.
struct Grid {
  std::uint64_t seed = 0;
  std::vector<Item> rows;             ///< Boundary searches.
  std::vector<std::size_t> boundary;  ///< First flipping index per row.
  std::vector<double> nom, pv;        ///< Flattened nominal / PV values.
  std::vector<Item> cells;            ///< Near-boundary MC cells.
  std::size_t rows_left = 0, cells_left = 0, failed = 0;
  int gate = 2;  ///< MC opens when both the rows and the singles are done.
};

/// Everything one supply voltage's characterization owns.
struct Voltage {
  const CellDesign& design;
  double vdd = 0.0;
  std::uint64_t seed = 0;
  /// One simulator per worker slot, built on the slot's first use and kept
  /// for the whole run: its cell circuit is compiled once and rebound per
  /// probe (spice/compiled.hpp). A slot runs one worker at a time.
  std::vector<std::unique_ptr<StrikeSimulator>> sims;
  std::vector<double> nominal_hold;  ///< Solved once; every nominal probe.
  std::uint64_t start_ns = 0;

  std::vector<Item> singles;  ///< 3 nominal anchors, then 3 × PV samples.
  std::array<double, 3> nominal_qcrit{};
  std::array<std::vector<double>, 3> qcrit;  ///< By PV sample index.
  std::size_t nominal_left = 3, singles_left = 0;
  double sigma_q = 0.0;
  util::Axis pair_axis, triple_axis;
  std::array<Grid, kGridCount> grids;
  std::size_t pairs_left = 3, grids_left = kGridCount;
  PofTable table;

  std::deque<Item*> ready;  ///< Guarded by the stream mutex.
  std::atomic<std::size_t> n_ready{0};  ///< ready.size(), read lock-free.

  Voltage(const CellDesign& d, double v, std::uint64_t s, std::size_t slots)
      : design(d), vdd(v), seed(s), sims(slots) {}

  StrikeSimulator& sim(std::size_t slot) {
    if (!sims[slot]) sims[slot] = std::make_unique<StrikeSimulator>(design, vdd);
    return *sims[slot];
  }

  const util::Axis& axis(std::size_t g) const {
    return g == kTriple ? triple_axis : pair_axis;
  }
};

class Stream {
 public:
  Stream(const CellCharacterizer& ch, std::vector<std::unique_ptr<Voltage>>& volts,
         std::size_t threads, const exec::ProgressSink& progress,
         const exec::CancelToken* cancel)
      : ch_(ch), cfg_(ch.config()), volts_(volts), threads_(threads),
        progress_(progress), cancel_(cancel), open_(volts.size()) {}

  /// Run every voltage to its tables (or to the first hard error, rethrown
  /// here). A fired cancel token stops the stream and throws
  /// util::Cancelled.
  void run();

 private:
  /// The ProbeSource of one worker on one voltage: a held item per lane.
  class Feed final : public StrikeSimulator::ProbeSource {
   public:
    Feed(Stream& s, Voltage& v) : s_(s), v_(v) {}
    bool next(std::size_t lane, StrikeSimulator::Probe& probe) override;
    void finish(std::size_t lane,
                const StrikeSimulator::LaneOutcome& out) override {
      s_.take(*held_[lane], out);
    }

   private:
    Stream& s_;
    Voltage& v_;
    std::array<Item*, spice::kMaxLaneWidth> held_{};
  };

  void worker(std::size_t slot);
  bool stopping();
  void stop();
  Item* claim(Voltage& v);
  void release(Voltage& v, std::vector<Item>& items);

  bool next_probe(Voltage& v, Item& it, StrikeSimulator::Probe& probe);
  void take(Item& it, const StrikeSimulator::LaneOutcome& out);
  void complete(Voltage& v, Item& it);
  void open_boundaries(Voltage& v);
  void finish_singles(Voltage& v);
  void pass_gate(Voltage& v, std::size_t g);
  void open_cells(Voltage& v, std::size_t g);
  void finish_grid(Voltage& v, std::size_t g);
  StrikeCharges grid_charges(const Voltage& v, std::size_t g, std::size_t major,
                             std::size_t minor) const;

  const CellCharacterizer& ch_;
  const CharacterizerConfig& cfg_;
  std::vector<std::unique_ptr<Voltage>>& volts_;
  std::size_t threads_;
  exec::ProgressSink progress_;
  const exec::CancelToken* cancel_;

  std::mutex m_;
  std::condition_variable cv_;
  std::size_t open_;           ///< Voltages not finished yet.
  std::size_t in_flight_ = 0;  ///< Items claimed and not yet completed.
  std::atomic<bool> stop_{false};
};

void Stream::run() {
  for (auto& v : volts_) {
    v->start_ns = obs::now_ns();
    // Singles: the three nominal anchors first (they gate the boundary
    // searches), then every PV sample, each drawn from stream k of its
    // current's seed.
    const std::size_t n = cfg_.pv_samples_single;
    v->singles.resize(3 + 3 * n);
    for (std::size_t which = 0; which < 3; ++which) {
      Item& anchor = v->singles[which];
      anchor.group = which;
      anchor.nominal = true;
      anchor.hi = cfg_.q_max_fc;
      const std::uint64_t seed =
          stats::Rng::derive_seed(v->seed, kStreamSingleBase + which);
      v->qcrit[which].assign(n, 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        Item& it = v->singles[3 + which * n + k];
        it.group = which;
        it.index = k;
        it.hi = cfg_.q_max_fc;
        stats::Rng rng = stats::Rng::stream(seed, k);
        it.dvt = ch_.sample_delta_vt(rng);
      }
    }
    v->singles_left = v->singles.size();
    for (std::size_t p = 0; p < 3; ++p) {
      v->grids[p].seed = stats::Rng::derive_seed(v->seed, kStreamPairBase + p);
    }
    v->grids[kTriple].seed = stats::Rng::derive_seed(v->seed, kStreamTriple);
    // The nominal hold point serves every nominal probe of the voltage. If
    // it cannot be solved, the voltage is unrecoverable — propagate.
    v->nominal_hold = v->sim(0).hold_point(DeltaVt{});
    release(*v, v->singles);
  }

  exec::parallel_for_chunks(threads_, threads_, 1,
                            [&](const exec::ChunkRange& r) {
                              try {
                                worker(r.worker);
                              } catch (...) {
                                stop();
                                throw;
                              }
                            });
  if (cancel_ != nullptr && cancel_->cancelled()) {
    throw util::Cancelled(
        "characterization cancelled; the model in progress is discarded");
  }
}

void Stream::worker(std::size_t slot) {
  std::size_t at = slot % volts_.size();
  for (;;) {
    Voltage* v = nullptr;
    {
      std::unique_lock<std::mutex> lock(m_);
      for (;;) {
        if (stop_.load(std::memory_order_relaxed) || open_ == 0) return;
        for (std::size_t k = 0; k < volts_.size() && v == nullptr; ++k) {
          Voltage& cand = *volts_[(at + k) % volts_.size()];
          if (!cand.ready.empty()) {
            v = &cand;
            at = (at + k) % volts_.size();
          }
        }
        if (v != nullptr) break;
        if (in_flight_ == 0) {
          throw util::LogicError(
              "characterization stream stalled: no item ready or running");
        }
        cv_.wait(lock);
      }
    }
    Feed feed(*this, *v);
    v->sim(slot).run_stream(feed, cfg_.pulse_kind);
  }
}

bool Stream::stopping() {
  if (stop_.load(std::memory_order_relaxed)) return true;
  if (cancel_ != nullptr && cancel_->cancelled()) {
    stop();
    return true;
  }
  return false;
}

void Stream::stop() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
}

Item* Stream::claim(Voltage& v) {
  if (v.n_ready.load(std::memory_order_acquire) == 0) return nullptr;
  const std::lock_guard<std::mutex> lock(m_);
  if (v.ready.empty()) return nullptr;
  Item* it = v.ready.front();
  v.ready.pop_front();
  v.n_ready.store(v.ready.size(), std::memory_order_release);
  ++in_flight_;
  return it;
}

void Stream::release(Voltage& v, std::vector<Item>& items) {
  {
    const std::lock_guard<std::mutex> lock(m_);
    for (Item& it : items) v.ready.push_back(&it);
    v.n_ready.store(v.ready.size(), std::memory_order_release);
  }
  cv_.notify_all();
}

bool Stream::Feed::next(std::size_t lane, StrikeSimulator::Probe& probe) {
  for (;;) {
    if (s_.stopping()) return false;
    Item*& it = held_[lane];
    if (it == nullptr) {
      it = s_.claim(v_);
      if (it == nullptr) return false;
    }
    if (s_.next_probe(v_, *it, probe)) return true;
    Item& done = *it;
    it = nullptr;
    s_.complete(v_, done);
  }
}

StrikeCharges Stream::grid_charges(const Voltage& v, std::size_t g,
                                   std::size_t major, std::size_t minor) const {
  const util::Axis& axis = v.axis(g);
  if (g == kTriple) {
    const std::size_t np = axis.size();
    return StrikeCharges{axis[major / np], axis[major % np], axis[minor]};
  }
  return pair_charges(kPairIds[g][0], kPairIds[g][1], axis[major],
                      axis[minor]);
}

bool Stream::next_probe(Voltage& v, Item& it, StrikeSimulator::Probe& probe) {
  switch (it.kind) {
    case Item::Kind::kSingle: {
      // bisect_critical_scale, one probe at a time: the s_max probe, then
      // halve [lo, hi] down to the tolerance.
      if (it.done) return false;
      double scale = cfg_.q_max_fc;
      if (it.probes > 0) {
        if (!(it.hi - it.lo > cfg_.bisect_tol_fc)) {
          it.result = it.hi;
          return false;
        }
        scale = 0.5 * (it.lo + it.hi);
      }
      probe.charges = scale_direction(unit_direction(it.group), scale);
      probe.dvt = it.dvt;
      probe.hold = it.nominal ? &v.nominal_hold : &it.hold;
      break;
    }
    case Item::Kind::kBoundary: {
      // Integer binary search of the first flipping column (the flip region
      // is monotone).
      if (it.ilo >= it.ihi) return false;
      probe.charges =
          grid_charges(v, it.group, it.index, it.ilo + (it.ihi - it.ilo) / 2);
      probe.dvt = DeltaVt{};
      probe.hold = &v.nominal_hold;
      break;
    }
    case Item::Kind::kMcCell: {
      if (it.probes == cfg_.pv_samples_grid) return false;
      const std::size_t np = v.axis(it.group).size();
      probe.charges = grid_charges(v, it.group, it.index / np, it.index % np);
      it.dvt = ch_.sample_delta_vt(it.rng);
      it.hold.clear();
      probe.dvt = it.dvt;
      probe.hold = &it.hold;
      break;
    }
  }
  ++it.probes;
  return true;
}

void Stream::take(Item& it, const StrikeSimulator::LaneOutcome& out) {
  switch (it.kind) {
    case Item::Kind::kSingle: {
      // The nominal anchor places the axes and the binary POF: if it cannot
      // be solved the voltage is unrecoverable. A PV sample that fails is
      // excluded from the CDF, never guessed as flip or no-flip.
      if (out.failed) {
        if (it.nominal) throw util::NumericalError(out.error);
        it.result = kFailedSample;
        it.done = true;
      } else if (it.probes == 1) {
        if (!out.outcome.flipped) {
          it.result = SingleCdf::kNeverFlips;
          it.done = true;
        }
      } else {
        const double mid = 0.5 * (it.lo + it.hi);
        (out.outcome.flipped ? it.hi : it.lo) = mid;
      }
      break;
    }
    case Item::Kind::kBoundary: {
      // A wrong boundary would misplace the whole MC band: propagate.
      if (out.failed) throw util::NumericalError(out.error);
      const std::size_t mid = it.ilo + (it.ihi - it.ilo) / 2;
      if (out.outcome.flipped) {
        it.ihi = mid;
      } else {
        it.ilo = mid + 1;
      }
      break;
    }
    case Item::Kind::kMcCell: {
      // A failed sample shrinks the denominator (its ΔVt draws are spent).
      if (out.failed) {
        ++it.failed;
      } else {
        ++it.ok;
        if (out.outcome.flipped) ++it.flips;
      }
      break;
    }
  }
}

void Stream::complete(Voltage& v, Item& it) {
  // Results land by index before the stage counters (under the mutex)
  // publish them to whichever item completes its stage.
  switch (it.kind) {
    case Item::Kind::kSingle: {
      if (it.nominal) {
        v.nominal_qcrit[it.group] = it.result;
      } else {
        v.qcrit[it.group][it.index] = it.result;
      }
      bool anchors_done = false;
      bool singles_done = false;
      {
        const std::lock_guard<std::mutex> lock(m_);
        anchors_done = it.nominal && --v.nominal_left == 0;
        singles_done = --v.singles_left == 0;
      }
      if (anchors_done) open_boundaries(v);
      if (singles_done) {
        finish_singles(v);
        for (std::size_t g = 0; g < kGridCount; ++g) pass_gate(v, g);
      }
      break;
    }
    case Item::Kind::kBoundary: {
      Grid& grid = v.grids[it.group];
      grid.boundary[it.index] = it.ilo;
      bool rows_done = false;
      {
        const std::lock_guard<std::mutex> lock(m_);
        rows_done = --grid.rows_left == 0;
      }
      if (rows_done) pass_gate(v, it.group);
      break;
    }
    case Item::Kind::kMcCell: {
      Grid& grid = v.grids[it.group];
      // If every sample failed, fall back to the nominal value rather than
      // invent a probability.
      grid.pv[it.index] = it.ok > 0 ? static_cast<double>(it.flips) /
                                          static_cast<double>(it.ok)
                                    : grid.nom[it.index];
      bool cells_done = false;
      {
        const std::lock_guard<std::mutex> lock(m_);
        cells_done = --grid.cells_left == 0;
      }
      if (cells_done) finish_grid(v, it.group);
      break;
    }
  }
  // Counted off only now, after any stage this item opened is queued, so a
  // waiting worker never sees an empty stream that is about to refill.
  {
    const std::lock_guard<std::mutex> lock(m_);
    --in_flight_;
  }
  cv_.notify_all();
}

void Stream::open_boundaries(Voltage& v) {
  // Charge axes densified around the cell's nominal critical-charge band.
  double qc_lo = SingleCdf::kNeverFlips;
  double qc_hi = 0.0;
  for (double q : v.nominal_qcrit) {
    if (q < SingleCdf::kNeverFlips) {
      qc_lo = std::min(qc_lo, q);
      qc_hi = std::max(qc_hi, q);
    }
  }
  if (qc_hi == 0.0) qc_lo = 0.0;  // No flips observed: axis falls back.
  v.pair_axis =
      make_charge_axis(qc_lo, qc_hi, cfg_.pair_grid_points, cfg_.q_max_fc);
  v.triple_axis =
      make_charge_axis(qc_lo, qc_hi, cfg_.triple_grid_points, cfg_.q_max_fc);

  // One search per pair-grid row, and per (i, j) column of the triple.
  for (std::size_t g = 0; g < kGridCount; ++g) {
    Grid& grid = v.grids[g];
    const std::size_t np = v.axis(g).size();
    const std::size_t rows = g == kTriple ? np * np : np;
    grid.rows.resize(rows);
    grid.boundary.assign(rows, np);
    grid.rows_left = rows;
    for (std::size_t r = 0; r < rows; ++r) {
      Item& it = grid.rows[r];
      it.kind = Item::Kind::kBoundary;
      it.group = g;
      it.index = r;
      it.ihi = np;
    }
  }
  for (Grid& grid : v.grids) release(v, grid.rows);
}

void Stream::finish_singles(Voltage& v) {
  const std::size_t n = cfg_.pv_samples_single;
  for (std::size_t which = 0; which < 3; ++which) {
    SingleCdf& cdf = v.table.singles[which];
    cdf.nominal_qcrit_fc = v.nominal_qcrit[which];
    const std::vector<double>& qcrit = v.qcrit[which];
    cdf.failed_samples = static_cast<std::size_t>(
        std::count(qcrit.begin(), qcrit.end(), kFailedSample));
    cdf.total_samples = n - cdf.failed_samples;
    for (double q : qcrit) {
      if (q >= 0.0 && q < SingleCdf::kNeverFlips) cdf.qcrit_samples_fc.push_back(q);
    }
    std::sort(cdf.qcrit_samples_fc.begin(), cdf.qcrit_samples_fc.end());
    if (progress_) {
      std::ostringstream os;
      os << "vdd=" << v.vdd << " I" << which + 1
         << ": qcrit_nom=" << cdf.nominal_qcrit_fc
         << " fC, qcrit_mean=" << cdf.mean_qcrit_fc()
         << " fC, sigma=" << cdf.stddev_qcrit_fc() << " fC";
      progress_.message(os.str());
    }
  }
  // Smearing radius estimate for the grid MC placement.
  double sigma_q = 0.0;
  for (const auto& s : v.table.singles) {
    sigma_q = std::max(sigma_q, s.stddev_qcrit_fc());
  }
  v.sigma_q = sigma_q > 0.0 ? sigma_q : 0.02 * cfg_.q_max_fc;
}

void Stream::pass_gate(Voltage& v, std::size_t g) {
  bool open = false;
  {
    const std::lock_guard<std::mutex> lock(m_);
    open = --v.grids[g].gate == 0;
  }
  if (open) open_cells(v, g);
}

void Stream::open_cells(Voltage& v, std::size_t g) {
  Grid& grid = v.grids[g];
  const util::Axis& axis = v.axis(g);
  const std::size_t np = axis.size();
  const std::size_t dims = g == kTriple ? 3 : 2;
  const std::size_t total = g == kTriple ? np * np * np : np * np;

  // Nominal values: a step at each row's first flipping index.
  grid.nom.resize(total);
  for (std::size_t c = 0; c < total; ++c) {
    grid.nom[c] = c % np >= grid.boundary[c / np] ? 1.0 : 0.0;
  }

  // PV values: Monte Carlo only within `radius` (Chebyshev) of the boundary;
  // each cell draws from the stream keyed by its linear grid index, so the
  // result does not depend on how many cells made the list.
  const auto radius =
      static_cast<std::ptrdiff_t>(std::ceil(4.0 * v.sigma_q / min_spacing(axis))) +
      1;
  const auto snp = static_cast<std::ptrdiff_t>(np);
  std::vector<std::size_t> mc_cells;
  for (std::size_t c = 0; c < total; ++c) {
    std::array<std::ptrdiff_t, 3> at{};
    for (std::size_t d = 0, rest = c; d < dims; ++d, rest /= np) {
      at[dims - 1 - d] = static_cast<std::ptrdiff_t>(rest % np);
    }
    bool near_boundary = false;
    std::array<std::ptrdiff_t, 3> off{};
    for (std::size_t d = 0; d < dims; ++d) off[d] = -radius;
    while (!near_boundary) {
      std::ptrdiff_t lin = 0;
      bool inside = true;
      for (std::size_t d = 0; d < dims; ++d) {
        const std::ptrdiff_t q = at[d] + off[d];
        inside = inside && q >= 0 && q < snp;
        lin = lin * snp + q;
      }
      if (inside && grid.nom[static_cast<std::size_t>(lin)] != grid.nom[c]) {
        near_boundary = true;
      }
      // Odometer over the (2·radius + 1)^dims neighbourhood.
      std::size_t d = dims;
      while (d > 0 && off[d - 1] == radius) off[--d] = -radius;
      if (d == 0) break;
      ++off[d - 1];
    }
    if (near_boundary) mc_cells.push_back(c);
  }

  grid.pv = grid.nom;
  grid.cells.resize(mc_cells.size());
  grid.cells_left = mc_cells.size();
  for (std::size_t k = 0; k < mc_cells.size(); ++k) {
    Item& it = grid.cells[k];
    it.kind = Item::Kind::kMcCell;
    it.group = g;
    it.index = mc_cells[k];
    it.rng = stats::Rng::stream(grid.seed, mc_cells[k]);
  }
  if (grid.cells.empty()) {
    finish_grid(v, g);
  } else {
    release(v, grid.cells);
  }
}

void Stream::finish_grid(Voltage& v, std::size_t g) {
  Grid& grid = v.grids[g];
  for (const Item& it : grid.cells) grid.failed += it.failed;
  const util::Axis& axis = v.axis(g);
  if (g == kTriple) {
    v.table.triple_nominal = util::Grid3(axis, axis, axis, std::move(grid.nom));
    v.table.triple_pv = util::Grid3(axis, axis, axis, std::move(grid.pv));
  } else {
    v.table.pairs_nominal[g] = util::Grid2(axis, axis, std::move(grid.nom));
    v.table.pairs_pv[g] = util::Grid2(axis, axis, std::move(grid.pv));
  }
  bool pairs_done = false;
  bool voltage_done = false;
  {
    const std::lock_guard<std::mutex> lock(m_);
    pairs_done = g != kTriple && --v.pairs_left == 0;
    voltage_done = --v.grids_left == 0;
  }
  if (progress_ && pairs_done) {
    progress_.message("vdd=" + std::to_string(v.vdd) + ": pair grids done");
  }
  if (progress_ && g == kTriple) {
    progress_.message("vdd=" + std::to_string(v.vdd) + ": triple grid done");
  }
  if (!voltage_done) return;
  // The voltage's span runs from the stream's start to its last item.
  if (obs::enabled()) {
    const std::uint64_t end = obs::now_ns();
    const std::uint64_t dur = end > v.start_ns ? end - v.start_ns : 0;
    obs::Registry::global().duration("sram.characterize_voltage").record_ns(dur);
    if (obs::trace_enabled()) {
      obs::TraceEvent ev;
      ev.name = "sram.characterize_voltage vdd=" + std::to_string(v.vdd) + "V";
      ev.start_ns = v.start_ns;
      ev.dur_ns = dur;
      ev.tid = obs::detail::thread_id();
      obs::Registry::global().record_trace(std::move(ev));
    }
  }
  {
    const std::lock_guard<std::mutex> lock(m_);
    --open_;
  }
  cv_.notify_all();
}

/// Characterize \p vdds[i] under \p seeds[i], every voltage in flight on one
/// stream, and apply the failed-sample gate in voltage order.
std::vector<PofTable> characterize_voltages(
    const CellCharacterizer& ch, const std::vector<double>& vdds,
    const std::vector<std::uint64_t>& seeds, const exec::ProgressSink& progress,
    const exec::CancelToken* cancel) {
  const CharacterizerConfig& cfg = ch.config();
  FINSER_REQUIRE(cfg.bisect_tol_fc > 0.0,
                 "bisect_critical_scale: bad bracket parameters");
  const std::size_t threads = exec::resolve_threads(cfg.threads);
  std::vector<std::unique_ptr<Voltage>> volts;
  for (std::size_t i = 0; i < vdds.size(); ++i) {
    volts.push_back(
        std::make_unique<Voltage>(ch.design(), vdds[i], seeds[i], threads));
  }
  Stream(ch, volts, threads, progress, cancel).run();

  std::vector<PofTable> tables;
  for (auto& v : volts) {
    PofTable& table = v->table;
    table.vdd_v = v->vdd;
    table.q_max_fc = cfg.q_max_fc;
    table.attempted_samples = 3 * cfg.pv_samples_single;
    for (const SingleCdf& s : table.singles) {
      table.failed_samples += s.failed_samples;
    }
    for (const Grid& grid : v->grids) {
      table.attempted_samples += grid.cells.size() * cfg.pv_samples_grid;
      table.failed_samples += grid.failed;
    }
    if (table.failed_samples > 0) {
      const double frac = static_cast<double>(table.failed_samples) /
                          static_cast<double>(table.attempted_samples);
      if (progress) {
        std::ostringstream os;
        os << "vdd=" << v->vdd << ": " << table.failed_samples << "/"
           << table.attempted_samples
           << " strike samples failed numerically (excluded from the LUTs)";
        progress.message(os.str());
      }
      if (frac > cfg.max_failure_fraction) {
        std::ostringstream os;
        os << "characterize_at(vdd=" << v->vdd << "): failure fraction "
           << frac << " exceeds max_failure_fraction "
           << cfg.max_failure_fraction << " (" << table.failed_samples << "/"
           << table.attempted_samples
           << " samples) — the solver is too sick for the model to be trusted";
        throw util::NumericalError(os.str());
      }
    }
    FINSER_OBS_COUNT("sram.strike_samples", table.attempted_samples);
    FINSER_OBS_COUNT("sram.strike_sample_failures", table.failed_samples);
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace

PofTable CellCharacterizer::characterize_at(double vdd_v, std::uint64_t seed,
                                            const exec::ProgressSink& progress,
                                            const exec::CancelToken* cancel) const {
  return std::move(
      characterize_voltages(*this, {vdd_v}, {seed}, progress, cancel).front());
}

CellSoftErrorModel CellCharacterizer::characterize(
    const exec::ProgressSink& progress,
    const exec::CancelToken* cancel) const {
  CellSoftErrorModel model;
  model.config_fingerprint = config_.fingerprint(design_);
  std::vector<double> vdds = config_.vdds;
  std::sort(vdds.begin(), vdds.end());
  std::vector<std::uint64_t> seeds;
  for (std::size_t v = 0; v < vdds.size(); ++v) {
    seeds.push_back(stats::Rng::derive_seed(config_.seed, v));
  }
  model.tables = characterize_voltages(*this, vdds, seeds, progress, cancel);
  return model;
}

}  // namespace finser::sram
