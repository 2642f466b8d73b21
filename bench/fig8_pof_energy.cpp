/// \file fig8_pof_energy.cpp
/// \brief Reproduces paper Fig. 8: the normalized POF of the 9×9 SRAM array
/// versus particle energy for protons and alphas at Vdd = 0.7 V and 0.8 V
/// (process variation considered). Micro-benchmark: array-MC strike
/// throughput.

#include "bench_common.hpp"

namespace {

using namespace finser;

void report() {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  bench::cell_model(flow, bench::progress_printer());

  // Fig. 8 energy grid: 0.1-100 MeV for both species (alphas only emitted
  // below 10 MeV terrestrially, but the figure sweeps the full axis).
  std::vector<double> energies;
  for (double e = 0.1; e <= 100.01; e *= std::pow(10.0, 1.0 / 3.0)) {
    energies.push_back(e);
  }

  const std::vector<double>& vdds = flow.cell_model().vdds();
  std::size_t v07 = 0, v08 = 1;
  for (std::size_t i = 0; i < vdds.size(); ++i) {
    if (std::abs(vdds[i] - 0.7) < 1e-6) v07 = i;
    if (std::abs(vdds[i] - 0.8) < 1e-6) v08 = i;
  }

  std::vector<double> p07, p08, a07, a08;
  for (double e : energies) {
    const auto rp = flow.run_at_energy(phys::Species::kProton, e);
    const auto ra = flow.run_at_energy(phys::Species::kAlpha, e);
    p07.push_back(rp.est[v07][core::kModeWithPv].tot);
    p08.push_back(rp.est[v08][core::kModeWithPv].tot);
    a07.push_back(ra.est[v07][core::kModeWithPv].tot);
    a08.push_back(ra.est[v08][core::kModeWithPv].tot);
  }

  // Normalize everything by the overall maximum (alpha at 0.7 V) so the
  // proton-vs-alpha separation of the paper's figure is preserved.
  double norm = 0.0;
  for (const auto* s : {&p07, &p08, &a07, &a08}) {
    for (double v : *s) norm = std::max(norm, v);
  }
  if (norm == 0.0) norm = 1.0;

  util::CsvTable t({"energy_mev", "proton_vdd0.7", "proton_vdd0.8",
                    "alpha_vdd0.7", "alpha_vdd0.8"});
  for (std::size_t i = 0; i < energies.size(); ++i) {
    t.add_row({energies[i], p07[i] / norm, p08[i] / norm, a07[i] / norm,
               a08[i] / norm});
  }
  bench::emit(t, "fig8_pof_vs_energy",
              "Fig. 8: normalized array POF vs particle energy");
}

void bm_array_mc_strikes(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& model = bench::cell_model(flow);
  core::ArrayMcConfig mc_cfg = cfg.array_mc;
  mc_cfg.strikes = 2000;
  core::ArrayMc mc(flow.layout(), model, mc_cfg);
  std::uint64_t seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.run(phys::Species::kAlpha, 2.0, seed++));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(bm_array_mc_strikes)->Unit(benchmark::kMillisecond);

}  // namespace

FINSER_BENCH_MAIN(report)
