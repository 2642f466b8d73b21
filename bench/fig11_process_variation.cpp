/// \file fig11_process_variation.cpp
/// \brief Reproduces paper Fig. 11: alpha-induced SER with and without
/// threshold-voltage process variation versus supply voltage. The paper's
/// claim: neglecting variation *underestimates* SER (by up to 45 % in their
/// setup). finser reproduces the sign and Vdd trend; see EXPERIMENTS.md for
/// the magnitude discussion and the sigma-Vt ablation that maps out when
/// the gap grows. Micro-benchmark: POF-table lookups (PV vs nominal paths).

#include "bench_common.hpp"

namespace {

using namespace finser;

void report() {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  bench::cell_model(flow, bench::progress_printer());

  const auto ra = flow.sweep(env::package_alphas(), bench::progress_printer());

  const double ref = ra.fit.back()[core::kModeWithPv].fit_tot;
  const double norm = ref > 0.0 ? ref : 1.0;

  util::CsvTable t({"vdd_v", "ser_with_pv_norm", "ser_no_pv_norm",
                    "underestimation_pct", "ser_with_pv_fit", "ser_no_pv_fit"});
  for (std::size_t v = 0; v < ra.vdds.size(); ++v) {
    const double with_pv = ra.fit[v][core::kModeWithPv].fit_tot;
    const double no_pv = ra.fit[v][core::kModeNominal].fit_tot;
    t.add_row({ra.vdds[v], with_pv / norm, no_pv / norm,
               no_pv > 0.0 ? 100.0 * (with_pv - no_pv) / no_pv : 0.0, with_pv,
               no_pv});
  }
  bench::emit(t, "fig11_process_variation",
              "Fig. 11: alpha SER, considering vs neglecting process variation");
}

void bm_pof_lookup_pv(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& table = bench::cell_model(flow).at_vdd(0.8);
  double q = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pof(sram::StrikeCharges{q, 0.0, 0.0}, true));
    q = q < 0.4 ? q + 1e-3 : 0.0;
  }
}
BENCHMARK(bm_pof_lookup_pv);

void bm_pof_lookup_pair(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& table = bench::cell_model(flow).at_vdd(0.8);
  double q = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pof(sram::StrikeCharges{q, 0.2 - q, 0.0}, true));
    q = q < 0.2 ? q + 1e-3 : 0.0;
  }
}
BENCHMARK(bm_pof_lookup_pair);

}  // namespace

FINSER_BENCH_MAIN(report)
