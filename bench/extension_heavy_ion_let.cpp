/// \file extension_heavy_ion_let.cpp
/// \brief Space-environment extension: the upset cross-section vs LET curve
/// (the quantity heavy-ion accelerator campaigns measure for space
/// qualification). Instead of a particle species with a stopping-power
/// model, a heavy ion near its track maximum is characterized directly by
/// its LET: deposited charge = LET × chord. Sweeping LET over the array
/// geometry yields the classic Weibull-shaped σ(LET): zero below the
/// threshold LET (where even the longest chord misses Q_crit), a steep rise,
/// and saturation at the total sensitive area. Also reports the MBU share
/// vs LET — high-LET ions upset whole clusters.
/// Micro-benchmark: the chord-collection kernel.

#include <cmath>

#include "bench_common.hpp"
#include "finser/core/pof_combine.hpp"
#include "finser/geom/box_set.hpp"
#include "finser/phys/collection.hpp"
#include "finser/stats/direction.hpp"
#include "finser/util/units.hpp"

namespace {

using namespace finser;

/// POF of the array under ions of fixed LET [MeV·cm²/mg], isotropic
/// downward flux over the footprint. Returns {pof_tot, pof_mbu}.
std::pair<double, double> pof_at_let(const sram::ArrayLayout& layout,
                                     const sram::CellSoftErrorModel& model,
                                     geom::UniformGrid& grid, double vdd,
                                     double let_mev_cm2_mg, std::size_t strikes,
                                     stats::Rng& rng) {
  // LET [MeV·cm²/mg] → charge per path [fC/nm] in silicon:
  // dE/dx = LET · rho = LET · 2.329e3 mg/cm³ → MeV/cm; 1 pair / 3.6 eV.
  const double mev_per_nm = let_mev_cm2_mg * 2.329e3 * 1e-7;
  const double fc_per_nm =
      phys::charge_fc_from_pairs(util::mev_to_ev(mev_per_nm) / 3.6);

  std::vector<geom::BoxHit> hits;
  std::vector<double> pofs;
  std::vector<sram::StrikeCharges> charges(layout.cell_count());
  std::vector<std::uint32_t> touched;
  const sram::PofTable& table = model.at_vdd(vdd);

  double tot = 0.0, mbu = 0.0;
  for (std::size_t s = 0; s < strikes; ++s) {
    geom::Ray ray;
    ray.origin = {rng.uniform(0.0, layout.width_nm()),
                  rng.uniform(0.0, layout.height_nm()),
                  layout.bounds().hi.z + 1.0};
    ray.dir = stats::isotropic_hemisphere_down(rng);
    if (ray.dir.z == 0.0) ray.dir.z = -1e-12;
    grid.query(ray, hits);

    for (std::uint32_t c : touched) charges[c] = sram::StrikeCharges{};
    touched.clear();
    for (const auto& hit : hits) {
      const auto& site = layout.site(hit.id);
      const bool bit = layout.bit(site.cell_row, site.cell_col);
      const auto idx = sram::ArrayLayout::strike_index(site.role, bit);
      if (!idx) continue;
      const std::uint32_t cell =
          site.cell_row * static_cast<std::uint32_t>(layout.cols()) +
          site.cell_col;
      auto& ch = charges[cell];
      if (!ch.any()) touched.push_back(cell);
      const double q = hit.interval.length() * fc_per_nm *
                       layout.collection_efficiency(hit.id);
      switch (*idx) {
        case 0: ch.i1_fc += q; break;
        case 1: ch.i2_fc += q; break;
        case 2: ch.i3_fc += q; break;
        default: break;
      }
    }
    pofs.clear();
    for (std::uint32_t c : touched) {
      const double p = table.pof(charges[c], true);
      if (p > 0.0) pofs.push_back(p);
    }
    if (!pofs.empty()) {
      const auto combined = core::combine_eqs_4_to_6(pofs);
      tot += combined.tot;
      mbu += combined.mbu;
    }
  }
  return {tot / static_cast<double>(strikes), mbu / static_cast<double>(strikes)};
}

void report() {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& model = bench::cell_model(flow, bench::progress_printer());
  const sram::ArrayLayout& layout = flow.layout();
  geom::UniformGrid grid(layout.fins());
  const auto strikes = static_cast<std::size_t>(40000 * core::mc_scale_from_env());

  // The per-strike POF times the sampled area is the upset cross-section
  // [cm² per array] the beam community plots.
  const double area_cm2 = util::nm_to_cm(layout.width_nm()) *
                          util::nm_to_cm(layout.height_nm());

  util::CsvTable t({"let_mev_cm2_mg", "pof_per_ion", "cross_section_cm2",
                    "mbu_seu_pct"});
  stats::Rng rng(31415);
  for (double let : {0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0}) {
    const auto [tot, mbu] =
        pof_at_let(layout, model, grid, 0.8, let, strikes, rng);
    const double seu = tot - mbu;
    t.add_row({let, tot, tot * area_cm2,
               seu > 0.0 ? 100.0 * mbu / seu : 0.0});
  }
  bench::emit(t, "extension_heavy_ion_let",
              "Space extension: upset cross-section vs LET (0.8 V)");
}

void bm_let_kernel(benchmark::State& state) {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  geom::UniformGrid grid(layout.fins());
  stats::Rng rng(2);
  std::vector<geom::BoxHit> hits;
  for (auto _ : state) {
    geom::Ray ray;
    ray.origin = {rng.uniform(0.0, layout.width_nm()),
                  rng.uniform(0.0, layout.height_nm()), 27.0};
    ray.dir = stats::isotropic_hemisphere_down(rng);
    grid.query(ray, hits);
    double q = 0.0;
    for (const auto& h : hits) q += h.interval.length();
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(bm_let_kernel);

}  // namespace

FINSER_BENCH_MAIN(report)
