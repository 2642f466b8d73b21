/// \file ablation_beam_angle.cpp
/// \brief Accelerated-test perspective: array POF and MBU share under a
/// monodirectional alpha beam as a function of tilt angle. Beam testing at
/// normal incidence (the cheapest setup) systematically *underestimates*
/// the multi-cell upset rate of an isotropic field — tilted-beam protocols
/// exist precisely because grazing incidence excites the multi-cell
/// geometry. This bench quantifies the tilt dependence for the 9×9 array
/// and compares against the isotropic reference.
/// Micro-benchmark: the transport kernel at grazing incidence (longer
/// in-layer chords → more boxes per query).

#include <cmath>
#include <numbers>

#include "bench_common.hpp"
#include "finser/stats/direction.hpp"

namespace {

using namespace finser;

void report() {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& model = bench::cell_model(flow, bench::progress_printer());

  util::CsvTable t({"tilt_deg", "pof_tot", "pof_mbu", "mbu_seu_pct"});
  const double e_mev = 2.0;  // Near the alpha deposit maximum.

  for (double tilt_deg : {0.0, 30.0, 45.0, 60.0, 75.0, 85.0}) {
    core::ArrayMcConfig mc_cfg = cfg.array_mc;
    mc_cfg.angular = core::SourceAngularLaw::kBeam;
    const double tilt = tilt_deg * std::numbers::pi / 180.0;
    mc_cfg.beam_direction = {std::sin(tilt), 0.0, -std::cos(tilt)};
    core::ArrayMc mc(flow.layout(), model, mc_cfg);
    const auto est = mc.run(phys::Species::kAlpha, e_mev, 777)
                         .est[0][core::kModeWithPv];  // Vdd = 0.7 V.
    t.add_row({tilt_deg, est.tot, est.mbu,
               est.seu > 0.0 ? 100.0 * est.mbu / est.seu : 0.0});
  }

  // Isotropic reference row (tilt column = -1 as a marker).
  {
    core::ArrayMcConfig mc_cfg = cfg.array_mc;
    core::ArrayMc mc(flow.layout(), model, mc_cfg);
    const auto est =
        mc.run(phys::Species::kAlpha, e_mev, 778).est[0][core::kModeWithPv];
    t.add_row({-1.0, est.tot, est.mbu,
               est.seu > 0.0 ? 100.0 * est.mbu / est.seu : 0.0});
  }
  bench::emit(t, "ablation_beam_angle",
              "Beam-test ablation: POF and MBU vs tilt (alpha, 2 MeV, 0.7 V; "
              "tilt -1 = isotropic reference)");
}

void bm_grazing_transport(benchmark::State& state) {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  phys::Transporter tr(layout.fins());
  stats::Rng rng(3);
  const geom::Vec3 dir = geom::Vec3{1.0, 0.05, -0.06}.normalized();
  for (auto _ : state) {
    geom::Ray ray;
    ray.origin = {rng.uniform(0.0, layout.width_nm()),
                  rng.uniform(0.0, layout.height_nm()), 27.0};
    ray.dir = dir;
    benchmark::DoNotOptimize(tr.transport(ray, phys::Species::kAlpha, 2.0, rng));
  }
}
BENCHMARK(bm_grazing_transport);

}  // namespace

FINSER_BENCH_MAIN(report)
