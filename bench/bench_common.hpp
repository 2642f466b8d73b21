#pragma once
/// \file bench_common.hpp
/// \brief Shared scaffolding of the figure-reproduction bench harness.
///
/// Every binary under bench/ reproduces one table/figure of the paper:
/// it (1) runs the experiment at bench fidelity (scaled by FINSER_MC_SCALE),
/// (2) prints the series to stdout in the same rows the paper plots,
/// (3) writes a CSV under bench_out/ for EXPERIMENTS.md, and then
/// (4) runs google-benchmark micro-benchmarks of the kernel it exercises.
///
/// The expensive POF-LUT characterization is shared by every binary through
/// the artifact store under bench_out/artifacts (kind "cell_model"): see
/// cell_model() below.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "finser/core/ser_flow.hpp"
#include "finser/exec/progress.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/surface/response_surface.hpp"
#include "finser/util/csv.hpp"

namespace finser::bench {

/// Output directory of the reproduction CSVs.
inline const char* kOutDir = "bench_out";

/// The paper's experimental setup (Sec. 6): 9×9 array, Vdd 0.7-1.1 V,
/// 14 nm SOI FinFET cell, checkerboard data. Monte-Carlo sizes are the
/// bench defaults (scaled by FINSER_MC_SCALE); the paper used 10M strikes
/// and 1000 PV samples — set FINSER_MC_SCALE accordingly to match.
inline core::SerFlowConfig paper_flow_config() {
  core::SerFlowConfig cfg;
  cfg.array_rows = 9;
  cfg.array_cols = 9;
  cfg.characterization.vdds = {0.7, 0.8, 0.9, 1.0, 1.1};
  cfg.characterization.pv_samples_single = 200;
  cfg.characterization.pv_samples_grid = 48;
  cfg.array_mc.strikes = 60000;
  cfg.proton_bins = 12;
  cfg.alpha_bins = 10;
  cfg.seed = 20140601;  // DAC'14 conference date.
  core::apply_mc_scale(cfg, core::mc_scale_from_env());
  return cfg;
}

/// \p flow's characterized cell model, shared by every bench binary: loaded
/// from the artifact store under bench_out/artifacts when a model with the
/// flow's fingerprint is there, else characterized and stored. Call it
/// before anything that needs the model (sweep, run_at_energy), so the flow
/// never characterizes on its own.
inline const sram::CellSoftErrorModel& cell_model(
    core::SerFlow& flow, const exec::ProgressSink& progress = {}) {
  const pipeline::ArtifactStore store(std::string(kOutDir) + "/artifacts");
  const pipeline::ArtifactKey key{"cell_model", flow.model_fingerprint()};
  std::vector<std::uint8_t> blob;
  if (store.try_get(key, blob)) {
    try {
      flow.set_cell_model(surface::decode_cell_model(blob, key.fingerprint));
      return flow.cell_model();
    } catch (const std::exception&) {
      // A malformed payload degrades to characterizing again.
    }
  }
  const sram::CellSoftErrorModel& model = flow.cell_model(progress);
  store.put(key, surface::encode_cell_model(model));
  return model;
}

/// Normalize a series to its maximum (the paper reports normalized data).
inline std::vector<double> normalized(std::vector<double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, x);
  if (m > 0.0) {
    for (double& x : v) x /= m;
  }
  return v;
}

/// Print the table and write the CSV artifact.
inline void emit(const util::CsvTable& table, const std::string& name,
                 const std::string& caption) {
  std::cout << "\n=== " << caption << " ===\n";
  table.write_pretty(std::cout);
  const std::string path = std::string(kOutDir) + "/" + name + ".csv";
  table.write_csv_file(path);
  std::cout << "[csv] " << path << "\n";
}

/// Machine-context fields for the bench_out/*.json reports. Benchmark
/// numbers are only interpretable against the machine that produced them,
/// so every report records the hardware thread count and the 1-minute load
/// average at emission time (how contended the box already was). Each line
/// is indented by \p indent and ends with ",\n" so the result splices
/// directly after a report's opening "{\n". loadavg is -1 where the
/// platform cannot report it.
inline std::string machine_json_fields(const char* indent = "  ") {
  double load1 = -1.0;
#if defined(__unix__) || defined(__APPLE__)
  double avg[1] = {0.0};
  if (::getloadavg(avg, 1) == 1) load1 = avg[0];
#endif
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s\"hardware_concurrency\": %u,\n"
                "%s\"loadavg_1min\": %.2f,\n",
                indent, std::thread::hardware_concurrency(), indent, load1);
  return buf;
}

/// Progress printer for long characterizations (rate-limited sink).
inline exec::ProgressSink progress_printer() {
  return exec::ProgressSink(
      [](const std::string& msg) { std::cout << "  [" << msg << "]\n"; });
}

}  // namespace finser::bench

/// Standard bench main: run the figure reproduction, then micro-benchmarks.
#define FINSER_BENCH_MAIN(report_fn)                              \
  int main(int argc, char** argv) {                               \
    report_fn();                                                  \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                   \
    }                                                             \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return 0;                                                     \
  }
