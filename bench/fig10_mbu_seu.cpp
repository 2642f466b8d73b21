/// \file fig10_mbu_seu.cpp
/// \brief Reproduces paper Fig. 10: the MBU/SEU ratio (%) of the 9×9 array
/// versus supply voltage for proton and alpha radiation. The headline: the
/// alpha ratio is several times the proton ratio, and the proton ratio
/// decreases with Vdd. Micro-benchmark: the Eqs. 4-6 combination kernel
/// through a full array-MC energy point.

#include "bench_common.hpp"

namespace {

using namespace finser;

void report() {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  bench::cell_model(flow, bench::progress_printer());

  const auto rp = flow.sweep(env::sea_level_protons(), bench::progress_printer());
  const auto ra = flow.sweep(env::package_alphas(), bench::progress_printer());

  util::CsvTable t({"vdd_v", "proton_mbu_seu_pct", "alpha_mbu_seu_pct",
                    "proton_fit_seu", "proton_fit_mbu", "alpha_fit_seu",
                    "alpha_fit_mbu"});
  for (std::size_t v = 0; v < rp.vdds.size(); ++v) {
    const auto& fp = rp.fit[v][core::kModeWithPv];
    const auto& fa = ra.fit[v][core::kModeWithPv];
    t.add_row({rp.vdds[v],
               fp.fit_seu > 0.0 ? 100.0 * fp.fit_mbu / fp.fit_seu : 0.0,
               fa.fit_seu > 0.0 ? 100.0 * fa.fit_mbu / fa.fit_seu : 0.0,
               fp.fit_seu, fp.fit_mbu, fa.fit_seu, fa.fit_mbu});
  }
  bench::emit(t, "fig10_mbu_vs_seu", "Fig. 10: MBU/SEU ratio (%) vs Vdd");
}

void bm_energy_point(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& model = bench::cell_model(flow);
  core::ArrayMcConfig mc_cfg = cfg.array_mc;
  mc_cfg.strikes = 1000;
  core::ArrayMc mc(flow.layout(), model, mc_cfg);
  std::uint64_t seed = 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.run(phys::Species::kProton, 0.3, seed++));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(bm_energy_point)->Unit(benchmark::kMillisecond);

}  // namespace

FINSER_BENCH_MAIN(report)
