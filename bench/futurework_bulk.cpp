/// \file futurework_bulk.cpp
/// \brief The paper's second future-work axis ("we plan to extend this
/// analysis for other FinFET topologies"): bulk FinFETs vs the paper's SOI.
/// Bulk devices have no buried oxide, so charge deposited in the substrate
/// under the drain junction is partially collected (funneling + diffusion,
/// modeled as depth-tiered collection volumes). Expected and reproduced:
/// bulk SER is a multiple of SOI SER and its MBU share rises (deep tracks
/// feed several cells at once) — the quantitative version of the paper's
/// motivation for studying SOI. Micro-benchmark: bulk-layout ray queries
/// (4x the box count of SOI).

#include "bench_common.hpp"
#include "finser/geom/box_set.hpp"
#include "finser/stats/direction.hpp"

namespace {

using namespace finser;

void report() {
  util::CsvTable t({"technology", "vdd_v", "alpha_fit", "alpha_mbu_seu_pct",
                    "proton_fit"});
  double soi_ref_07 = 0.0, bulk_ref_07 = 0.0;
  for (auto [label, tech] :
       {std::pair{"SOI", sram::TechnologyKind::kSoi},
        std::pair{"bulk", sram::TechnologyKind::kBulk}}) {
    core::SerFlowConfig cfg = bench::paper_flow_config();
    cfg.cell_geometry.technology = tech;
    // One stored cell model serves both technologies (the cell electrical
    // model is shared).
    core::SerFlow flow(cfg);
    bench::cell_model(flow, bench::progress_printer());
    const auto ra = flow.sweep(env::package_alphas());
    const auto rp = flow.sweep(env::sea_level_protons());
    for (std::size_t v = 0; v < ra.vdds.size(); ++v) {
      const auto& fa = ra.fit[v][core::kModeWithPv];
      const auto& fp = rp.fit[v][core::kModeWithPv];
      t.add_row({std::string(label), ra.vdds[v], fa.fit_tot,
                 fa.fit_seu > 0.0 ? 100.0 * fa.fit_mbu / fa.fit_seu : 0.0,
                 fp.fit_tot});
      if (v == 0) {
        (tech == sram::TechnologyKind::kSoi ? soi_ref_07 : bulk_ref_07) =
            fa.fit_tot;
      }
    }
  }
  bench::emit(t, "futurework_bulk_vs_soi",
              "Future work (paper Sec. 2): bulk vs SOI FinFET SER");
  if (soi_ref_07 > 0.0) {
    std::printf("bulk/SOI alpha SER ratio @ 0.7 V: %.2f\n",
                bulk_ref_07 / soi_ref_07);
  }
}

void bm_bulk_ray_query(benchmark::State& state) {
  sram::CellGeometry g;
  g.technology = sram::TechnologyKind::kBulk;
  const sram::ArrayLayout layout(9, 9, g);
  geom::UniformGrid grid(layout.fins());
  stats::Rng rng(5);
  std::vector<geom::BoxHit> hits;
  for (auto _ : state) {
    geom::Ray ray;
    ray.origin = {rng.uniform(0.0, layout.width_nm()),
                  rng.uniform(0.0, layout.height_nm()), 60.0};
    ray.dir = stats::isotropic_hemisphere_down(rng);
    grid.query(ray, hits);
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(bm_bulk_ray_query);

}  // namespace

FINSER_BENCH_MAIN(report)
