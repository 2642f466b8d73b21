/// \file fig9_fit_vdd.cpp
/// \brief Reproduces paper Fig. 9: the normalized FIT rate of the 9×9 array
/// versus supply voltage for proton and alpha radiation (Eq. 8 over the
/// Fig. 2 spectra). The headline: both rise as Vdd drops, the curves are
/// comparable at Vdd = 0.7 V, and the proton curve collapses much faster at
/// higher Vdd. Micro-benchmark: the FIT integration kernel.

#include "bench_common.hpp"

namespace {

using namespace finser;

void report() {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  bench::cell_model(flow, bench::progress_printer());

  const auto rp = flow.sweep(env::sea_level_protons(), bench::progress_printer());
  const auto ra = flow.sweep(env::package_alphas(), bench::progress_printer());

  // Normalize by the common minimum's scale: the paper normalizes the whole
  // figure; use the alpha FIT at the highest Vdd as the reference "1".
  const double ref = ra.fit.back()[core::kModeWithPv].fit_tot;
  const double norm = ref > 0.0 ? ref : 1.0;

  util::CsvTable t({"vdd_v", "proton_fit_norm", "alpha_fit_norm",
                    "proton_fit", "alpha_fit", "proton_over_alpha"});
  for (std::size_t v = 0; v < rp.vdds.size(); ++v) {
    const double p = rp.fit[v][core::kModeWithPv].fit_tot;
    const double a = ra.fit[v][core::kModeWithPv].fit_tot;
    t.add_row({rp.vdds[v], p / norm, a / norm, p, a, a > 0.0 ? p / a : 0.0});
  }
  bench::emit(t, "fig9_fit_vs_vdd",
              "Fig. 9: normalized FIT rate vs Vdd (proton vs alpha)");
}

void bm_fit_integration(benchmark::State& state) {
  std::vector<env::EnergyBin> bins;
  std::vector<core::PofEstimate> pofs;
  const env::Spectrum p = env::sea_level_protons();
  bins = p.discretize(0.1, 100.0, 16);
  pofs.resize(bins.size());
  for (std::size_t i = 0; i < pofs.size(); ++i) {
    pofs[i].tot = 1e-3 / static_cast<double>(i + 1);
    pofs[i].seu = 0.9 * pofs[i].tot;
    pofs[i].mbu = 0.1 * pofs[i].tot;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::integrate_fit(bins, pofs, 3420.0, 1440.0));
  }
}
BENCHMARK(bm_fit_integration);

void bm_spectrum_discretize(benchmark::State& state) {
  const env::Spectrum p = env::sea_level_protons();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.discretize(0.1, 100.0, 12));
  }
}
BENCHMARK(bm_spectrum_discretize);

}  // namespace

FINSER_BENCH_MAIN(report)
