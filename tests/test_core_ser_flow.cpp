#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "finser/core/ser_flow.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/util/error.hpp"

namespace finser::core {
namespace {

/// Minimal-cost flow configuration for unit tests.
SerFlowConfig tiny_config() {
  SerFlowConfig cfg;
  cfg.array_rows = 2;
  cfg.array_cols = 2;
  cfg.characterization.vdds = {0.8};
  cfg.characterization.pv_samples_single = 10;
  cfg.characterization.pair_grid_points = 6;
  cfg.characterization.triple_grid_points = 6;
  cfg.characterization.pv_samples_grid = 6;
  cfg.array_mc.strikes = 1500;
  cfg.proton_bins = 3;
  cfg.alpha_bins = 3;
  cfg.seed = 5;
  return cfg;
}

TEST(SerFlow, LayoutMatchesConfig) {
  SerFlow flow(tiny_config());
  EXPECT_EQ(flow.layout().rows(), 2u);
  EXPECT_EQ(flow.layout().cols(), 2u);
  EXPECT_EQ(flow.layout().fins().size(), 24u);
}

TEST(SerFlow, CellModelIsCachedInMemory) {
  SerFlow flow(tiny_config());
  const auto& m1 = flow.cell_model();
  const auto& m2 = flow.cell_model();
  EXPECT_EQ(&m1, &m2);
  EXPECT_EQ(m1.tables.size(), 1u);
}

/// The flow's on-disk model cache is the artifact store of the campaign it
/// runs in: the first run characterizes and stores the `cell_model`
/// artifact, the next loads it, and a config change re-characterizes.
TEST(SerFlow, DiskCacheRoundTrip) {
  const auto store =
      (std::filesystem::temp_directory_path() / "finser_flow_cache").string();
  std::filesystem::remove_all(store);

  // Runs the characterize stage alone and returns its progress log.
  const auto characterize_stage = [&](const SerFlowConfig& cfg) {
    pipeline::CampaignSpec spec =
        pipeline::single_scenario_campaign(cfg, {"alpha"}, "");
    spec.artifact_dir = store;
    pipeline::CampaignRunner runner(std::move(spec));
    std::string log;
    runner.run_stage(0, 0, [&](const std::string& m) { log += m + "\n"; });
    return log;
  };

  const SerFlowConfig cfg = tiny_config();
  const SerFlow flow(cfg);
  const pipeline::ArtifactStore artifacts(store);
  const std::string cold = characterize_stage(cfg);
  EXPECT_NE(cold.find("characterizing"), std::string::npos) << cold;
  EXPECT_TRUE(std::filesystem::exists(artifacts.path_for(
      pipeline::ArtifactKey{"cell_model", flow.model_fingerprint()})));

  const std::string warm = characterize_stage(cfg);
  EXPECT_NE(warm.find("loaded from artifact store"), std::string::npos)
      << warm;
  EXPECT_EQ(warm.find("characterizing"), std::string::npos) << warm;

  // A config change invalidates the cache.
  SerFlowConfig cfg2 = cfg;
  cfg2.characterization.q_max_fc *= 1.05;
  const std::string changed = characterize_stage(cfg2);
  EXPECT_NE(changed.find("characterizing"), std::string::npos) << changed;
  std::filesystem::remove_all(store);
}

TEST(SerFlow, RunAtEnergyReturnsAllVddsAndModes) {
  SerFlow flow(tiny_config());
  const auto res = flow.run_at_energy(phys::Species::kAlpha, 1.0);
  ASSERT_EQ(res.vdds.size(), 1u);
  EXPECT_GE(res.est[0][kModeWithPv].tot, 0.0);
  EXPECT_GE(res.est[0][kModeNominal].tot, 0.0);
}

TEST(SerFlow, SweepProducesBinsAndFit) {
  SerFlow flow(tiny_config());
  const auto res = flow.sweep(env::package_alphas());
  EXPECT_EQ(res.species, phys::Species::kAlpha);
  ASSERT_EQ(res.bins.size(), 3u);
  ASSERT_EQ(res.per_bin.size(), 3u);
  ASSERT_EQ(res.fit.size(), 1u);
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const FitResult& f = res.fit[0][mode];
    EXPECT_GE(f.fit_tot, 0.0);
    EXPECT_NEAR(f.fit_tot, f.fit_seu + f.fit_mbu, 1e-9 * (f.fit_tot + 1e-30));
  }
}

TEST(SerFlow, SweepUsesSpeciesSpecificBinning) {
  SerFlowConfig cfg = tiny_config();
  cfg.proton_bins = 4;
  cfg.alpha_bins = 2;
  SerFlow flow(cfg);
  EXPECT_EQ(flow.sweep(env::sea_level_protons()).bins.size(), 4u);
  EXPECT_EQ(flow.sweep(env::package_alphas()).bins.size(), 2u);
}

TEST(McScale, EnvParsingAndDefaults) {
  unsetenv("FINSER_MC_SCALE");
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 1.0);
  setenv("FINSER_MC_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 2.5);
  setenv("FINSER_MC_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 1.0);
  setenv("FINSER_MC_SCALE", "-3", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 1.0);
  unsetenv("FINSER_MC_SCALE");
}

TEST(McScale, RejectsEveryMalformedEnvValue) {
  // Each of these must fall back to 1.0 rather than poisoning downstream
  // Monte-Carlo sizes with NaN/inf/zero scales.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999", "0", "0.0",
                          "-0.25", "abc", "", "2.5x", "3,5", "--2"}) {
    setenv("FINSER_MC_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(mc_scale_from_env(), 1.0) << "value: \"" << bad << '"';
  }
  // Leading/trailing whitespace around a valid number is tolerated.
  setenv("FINSER_MC_SCALE", "  0.5 ", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 0.5);
  setenv("FINSER_MC_SCALE", "4\t", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 4.0);
  unsetenv("FINSER_MC_SCALE");
}

TEST(McScale, AppliesToAllMonteCarloSizes) {
  SerFlowConfig cfg = tiny_config();
  apply_mc_scale(cfg, 3.0);
  EXPECT_EQ(cfg.array_mc.strikes, 4500u);
  EXPECT_EQ(cfg.characterization.pv_samples_single, 30u);
  EXPECT_EQ(cfg.characterization.pv_samples_grid, 18u);
  apply_mc_scale(cfg, 1e-9);  // Floors at 1.
  EXPECT_GE(cfg.array_mc.strikes, 1u);
  EXPECT_THROW(apply_mc_scale(cfg, 0.0), util::InvalidArgument);
}

}  // namespace
}  // namespace finser::core
