/// \file layers.cpp
/// \brief Traced per-layer replay of one benchmark workload.
///
/// Usage: finser_layers <plan.json>
///
/// run.py writes the plan from the same generated inputs the timed phase
/// used. This program calls each layer's public functions from outside —
/// the characterizer per supply voltage, the campaign stages one at a time,
/// the array Monte Carlo per energy bin, the FIT fold, the artifact store,
/// the response-surface codec and queries, the serve loop and a serve
/// refinement — times every call with a steady clock, and snapshots the
/// obs::Registry counters around it. It adds no instrumentation to the
/// library: the counters and spans it reads are the ones finser already
/// records when collection is enabled.
///
/// Plan keys (all optional except "threads"):
///   threads       thread budget handed to every call
///   characterize  campaign file: characterize_at() per Vdd of each model
///   stages        [{campaign, store, tag}]: run_stage() each stage alone
///   layers        {campaign, store, sink_store, device_lut}: device LUT,
///                 array MC per bin, FIT, artifact put/get
///   serve         {campaign, store, pool, hits, max_pending, burst,
///                  refine_scenario}
///
/// Prints one JSON object: {"metrics": {...}, "stages": {...},
/// "counters": {...}, "lanes": W}. "counters" is the registry's counter
/// section at exit, from which run.py takes the work-counter ledger; "lanes"
/// is the SPICE lane width this build resolves.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "finser/core/array_mc.hpp"
#include "finser/core/fit.hpp"
#include "finser/core/ser_flow.hpp"
#include "finser/obs/obs.hpp"
#include "finser/phys/fin_mc.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/pipeline/surface_provider.hpp"
#include "finser/spice/batch.hpp"
#include "finser/sram/characterize.hpp"
#include "finser/sram/cluster.hpp"
#include "finser/stats/rng.hpp"
#include "finser/surface/response_surface.hpp"
#include "finser/surface/serve.hpp"
#include "finser/util/json.hpp"

namespace {

using namespace finser;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().counter(name).total();
}

/// Campaign scenarios with their flows resolved the way CampaignRunner
/// resolves them (environment overrides applied, caches cleared).
std::vector<pipeline::ScenarioSpec> resolved_scenarios(
    const pipeline::CampaignSpec& spec) {
  std::vector<pipeline::ScenarioSpec> out = spec.scenarios;
  for (pipeline::ScenarioSpec& s : out) {
    pipeline::resolve_flow_for_execution(s.flow);
  }
  return out;
}

struct SpeciesBand {
  phys::Species species;
  std::size_t bins;
  double e_lo, e_hi;
};

SpeciesBand band_for(const core::SerFlowConfig& f, const std::string& name) {
  if (name == "alpha") {
    return {phys::Species::kAlpha, f.alpha_bins, f.alpha_e_lo_mev,
            f.alpha_e_hi_mev};
  }
  return {phys::Species::kProton, f.proton_bins, f.proton_e_lo_mev,
          f.proton_e_hi_mev};
}

/// characterize_at() per supply voltage of every unique cell model, with the
/// seeds CellCharacterizer::characterize() uses. Returns the models.
std::map<std::uint64_t, sram::CellSoftErrorModel> characterize_per_vdd(
    const pipeline::CampaignSpec& spec, std::size_t threads,
    util::JsonValue& metrics) {
  std::map<std::uint64_t, sram::CellSoftErrorModel> models;
  double sum = 0.0, max = 0.0;
  const std::uint64_t runs0 = counter("spice.tran.runs");
  for (const pipeline::ScenarioSpec& s : resolved_scenarios(spec)) {
    sram::CharacterizerConfig ccfg = s.flow.characterization;
    const std::uint64_t fp = ccfg.fingerprint(s.flow.cell_design);
    if (models.count(fp) != 0) continue;
    ccfg.threads = threads;
    const sram::CellCharacterizer characterizer(s.flow.cell_design, ccfg);
    std::vector<double> vdds = ccfg.vdds;
    std::sort(vdds.begin(), vdds.end());
    sram::CellSoftErrorModel model;
    model.config_fingerprint = fp;
    for (std::size_t v = 0; v < vdds.size(); ++v) {
      const auto t0 = Clock::now();
      model.tables.push_back(characterizer.characterize_at(
          vdds[v], stats::Rng::derive_seed(ccfg.seed, v)));
      const double dt = seconds_since(t0);
      sum += dt;
      max = std::max(max, dt);
    }
    models.emplace(fp, std::move(model));
  }
  metrics["sram.characterize_voltage_s.sum"] = sum;
  metrics["sram.characterize_voltage_s.max"] = max;
  const double runs = static_cast<double>(counter("spice.tran.runs") - runs0);
  metrics["spice.tran_per_s"] =
      sum > 0.0 ? runs / sum / static_cast<double>(threads) : 0.0;
  return models;
}

/// Each stage of the campaign's plan alone on the full thread budget, in
/// plan order, from the given store. Reports per-kind sums and the critical
/// path through the stage DAG.
util::JsonValue replay_stages(const std::string& campaign_path,
                              const std::string& store, std::size_t threads) {
  pipeline::CampaignSpec spec = pipeline::parse_campaign_file(campaign_path);
  spec.artifact_dir = store;
  spec.output_dir.clear();
  pipeline::CampaignRunner runner(spec);
  const std::vector<pipeline::StageInfo> plan = runner.plan();
  std::vector<double> dur(plan.size(), 0.0), finish(plan.size(), 0.0);
  std::map<std::string, double> by_kind{
      {"characterize", 0.0}, {"device_lut", 0.0}, {"sweep", 0.0}};
  double critical = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto t0 = Clock::now();
    runner.run_stage(i, threads);
    dur[i] = seconds_since(t0);
    double start = 0.0;
    for (std::size_t d : plan[i].deps) start = std::max(start, finish[d]);
    finish[i] = start + dur[i];
    critical = std::max(critical, finish[i]);
    const std::string kind = plan[i].label.substr(0, plan[i].label.find(' '));
    by_kind[kind] += dur[i];
  }
  util::JsonValue out = util::JsonValue::object();
  for (const auto& [kind, s] : by_kind) out[kind + "_s"] = s;
  out["critical_path_s"] = critical;
  return out;
}

/// Device LUT, array MC per energy bin, FIT fold and artifact put/get for
/// every scenario of the campaign, models loaded from \p store (or taken
/// from \p models when a characterize pass already built them).
void replay_layers(const std::string& campaign_path, const std::string& store,
                   bool device_lut, std::size_t threads,
                   std::map<std::uint64_t, sram::CellSoftErrorModel> models,
                   const std::string& sink_store, util::JsonValue& metrics) {
  const pipeline::CampaignSpec spec =
      pipeline::parse_campaign_file(campaign_path);
  const pipeline::ArtifactStore source(store, /*sweep_on_open=*/false);
  const pipeline::ArtifactStore sink(sink_store);

  double lut_s = 0.0;
  const std::uint64_t fin_runs0 =
      obs::Registry::global().duration("phys.fin_mc.run").count();
  std::set<std::tuple<double, double, double, int>> lut_done;
  double mc_s = 0.0, bin_max = 0.0, fit_s = 0.0, cluster_s = 0.0;
  const std::uint64_t sims0 = counter("sram.cluster.sims");
  double put_s = 0.0, get_s = 0.0;
  std::size_t blobs = 0;
  const std::uint64_t strikes0 = counter("core.array_mc.strikes");

  const auto time_artifact = [&](const std::string& kind, std::uint64_t fp,
                                 const std::vector<std::uint8_t>& blob) {
    const pipeline::ArtifactKey key{kind, fp};
    auto t0 = Clock::now();
    sink.put(key, blob);
    put_s += seconds_since(t0);
    std::vector<std::uint8_t> back;
    t0 = Clock::now();
    if (!sink.try_get(key, back) || back != blob) {
      throw std::runtime_error("artifact round trip failed for " + kind);
    }
    get_s += seconds_since(t0);
    ++blobs;
  };

  for (const pipeline::ScenarioSpec& s : resolved_scenarios(spec)) {
    const core::SerFlowConfig& f = s.flow;
    const std::uint64_t fp = f.characterization.fingerprint(f.cell_design);
    if (models.count(fp) == 0) {
      std::vector<std::uint8_t> blob;
      if (!source.try_get(pipeline::ArtifactKey{"cell_model", fp}, blob)) {
        throw std::runtime_error("no cell model for scenario " + s.name);
      }
      models.emplace(fp, surface::decode_cell_model(blob, fp));
    }
    const sram::CellSoftErrorModel& model = models.at(fp);
    time_artifact("cell_model", fp, surface::encode_cell_model(model));

    const core::SerFlow flow(f);
    std::unique_ptr<sram::ClusterPofSurface> cluster;
    if (f.array_mc.cluster.enabled()) {
      cluster = std::make_unique<sram::ClusterPofSurface>(f.cell_design,
                                                          f.array_mc.cluster);
    }
    std::uint64_t seed = f.seed;
    for (std::size_t si = 0; si < s.species.size(); ++si) {
      const SpeciesBand band = band_for(f, s.species[si]);
      const sram::CellGeometry& g = f.cell_geometry;
      // One LUT per (fin geometry, species), as the campaign plans them.
      if (device_lut &&
          lut_done
              .emplace(g.fin_w_nm, g.gate_len_nm, g.fin_h_nm,
                       static_cast<int>(band.species))
              .second) {
        const geom::Aabb fin_box{{0.0, 0.0, 0.0},
                                 {g.fin_w_nm, g.gate_len_nm, g.fin_h_nm}};
        // 25 points and this seed mirror the campaign's device-LUT stage.
        const auto t0 = Clock::now();
        pipeline::cached_device_lut(nullptr, fin_box,
                                    phys::FinStrikeMc::Config{}, band.species,
                                    band.e_lo, band.e_hi, 25, 0xF16D4EULL);
        lut_s += seconds_since(t0);
      }

      core::ArrayMcConfig cfg = f.array_mc;
      cfg.threads = threads;
      cfg.cluster_design = &f.cell_design;
      cfg.cluster_surface = cluster.get();
      const core::ArrayMc mc(flow.layout(), model, cfg);
      core::EnergySweepResult sweep;
      sweep.species = band.species;
      sweep.vdds = model.vdds();
      sweep.bins = pipeline::spectrum_for_species(s.species[si])
                       .discretize(band.e_lo, band.e_hi, band.bins);
      for (const env::EnergyBin& bin : sweep.bins) {
        const auto t0 = Clock::now();
        sweep.per_bin.push_back(mc.run(band.species, bin.e_rep_mev, seed++));
        const double dt = seconds_since(t0);
        mc_s += dt;
        if (cluster) cluster_s += dt;
        bin_max = std::max(bin_max, dt);
        time_artifact("array_bin", seed,
                      core::encode_result(sweep.per_bin.back()));
      }

      const double lx = flow.layout().width_nm() + 2.0 * cfg.source_margin_nm;
      const double ly = flow.layout().height_nm() + 2.0 * cfg.source_margin_nm;
      const auto t0 = Clock::now();
      sweep.fit.resize(sweep.vdds.size());
      for (std::size_t v = 0; v < sweep.vdds.size(); ++v) {
        for (std::size_t mode = 0; mode < 2; ++mode) {
          std::vector<core::PofEstimate> pofs;
          for (const core::ArrayMcResult& r : sweep.per_bin) {
            pofs.push_back(r.est[v][mode]);
          }
          sweep.fit[v][mode] = core::integrate_fit(sweep.bins, pofs, lx, ly);
        }
      }
      fit_s += seconds_since(t0);
      const surface::ResponseSurface surf =
          surface::ResponseSurface::from_sweep(
              s.name, f.cell_design.temp_k,
              pipeline::response_surface_fingerprint(s, si), sweep);
      time_artifact(surface::kResponseSurfaceKind, surf.fingerprint,
                    surf.encode());
    }
  }
  const double strikes =
      static_cast<double>(counter("core.array_mc.strikes") - strikes0);
  metrics["phys.device_lut_s"] = lut_s;
  metrics["phys.fin_mc.runs"] = static_cast<std::uint64_t>(
      obs::Registry::global().duration("phys.fin_mc.run").count() - fin_runs0);
  metrics["core.array_mc_s"] = mc_s;
  metrics["core.bin_max_s"] = bin_max;
  metrics["core.strikes_per_s"] = mc_s > 0.0 ? strikes / mc_s : 0.0;
  metrics["core.fit_ms"] = 1e3 * fit_s;
  const double sims =
      static_cast<double>(counter("sram.cluster.sims") - sims0);
  metrics["sram.cluster.sim_ms"] = sims > 0.0 ? 1e3 * cluster_s / sims : 0.0;
  const double n = static_cast<double>(std::max<std::size_t>(1, blobs));
  metrics["pipeline.artifact_put_ms"] = 1e3 * put_s / n;
  metrics["pipeline.artifact_get_ms"] = 1e3 * get_s / n;
}

/// A discarding output stream for the serve loop's replies.
class NullBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

void replay_serve(const util::JsonValue& cfg, std::size_t threads,
                  util::JsonValue& metrics) {
  pipeline::CampaignSpec spec =
      pipeline::parse_campaign_file(cfg.at("campaign").as_string());
  spec.artifact_dir = cfg.at("store").as_string();
  spec.output_dir.clear();
  pipeline::SurfaceProvider provider(spec, threads);
  const auto lookup = [&provider](const std::string& sc,
                                  const std::string& sp) {
    return provider.lookup(sc, sp);
  };
  const auto refine = [&provider](const std::string& sc,
                                  const std::string& sp) {
    return provider.refine(sc, sp);
  };

  // The query pool: one NDJSON request per line, all answerable from the
  // store (hits).
  std::vector<util::JsonValue> pool;
  std::vector<std::string> pool_lines;
  {
    std::istringstream in(read_file(cfg.at("pool").as_string()));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      pool_lines.push_back(line);
      pool.push_back(util::JsonValue::parse(line));
    }
  }

  // Decode + interpolated queries on the surfaces the pool touches.
  double decode_s = 0.0;
  std::size_t decodes = 0;
  std::map<std::pair<std::string, std::string>, surface::ResponseSurface> surfs;
  for (const util::JsonValue& q : pool) {
    const auto key = std::make_pair(q.at("scenario").as_string(),
                                    q.at("species").as_string());
    if (surfs.count(key) != 0) continue;
    const surface::ResponseSurface* s = provider.lookup(key.first, key.second);
    if (s == nullptr) throw std::runtime_error("pool query misses the store");
    const std::vector<std::uint8_t> blob = s->encode();
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 200; ++rep) {
      surfs.insert_or_assign(key, surface::ResponseSurface::decode(blob));
    }
    decode_s += seconds_since(t0);
    decodes += 200;
  }
  // Interpolated queries: the pool's pof and fit queries, each kind timed
  // as a whole over 50 passes so clock reads stay out of the figure.
  struct Query {
    const surface::ResponseSurface* surf;
    double vdd, energy_mev;
    bool with_pv;
  };
  std::vector<Query> pof_queries, fit_queries;
  for (const util::JsonValue& q : pool) {
    const Query query{
        &surfs.at({q.at("scenario").as_string(), q.at("species").as_string()}),
        q.at("vdd").as_double(),
        q.contains("energy_mev") ? q.at("energy_mev").as_double() : 0.0,
        !q.contains("with_pv") || q.at("with_pv").as_bool()};
    (q.at("op").as_string() == "pof" ? pof_queries : fit_queries)
        .push_back(query);
  }
  double sink = 0.0;
  const auto per_query_us = [&](const std::vector<Query>& queries, bool pof) {
    if (queries.empty()) return 0.0;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 50; ++rep) {
      for (const Query& q : queries) {
        sink += pof ? q.surf->pof(q.vdd, q.energy_mev, q.with_pv).tot
                    : q.surf->fit(q.vdd, q.with_pv).tot;
      }
    }
    return 1e6 * seconds_since(t0) /
           (50.0 * static_cast<double>(queries.size()));
  };
  metrics["surface.pof_query_us"] = per_query_us(pof_queries, true);
  metrics["surface.fit_query_us"] = per_query_us(fit_queries, false);
  if (!(sink >= 0.0)) throw std::runtime_error("non-finite query result");
  metrics["surface.decode_us"] = 1e6 * decode_s / static_cast<double>(decodes);

  // The NDJSON loop alone over an in-memory stream of hits, with a queue
  // bound large enough that nothing sheds.
  const std::size_t hits = static_cast<std::size_t>(cfg.at("hits").as_uint());
  std::string stream;
  for (std::size_t i = 0; i < hits; ++i) {
    stream += pool_lines[i % pool_lines.size()];
    stream += '\n';
  }
  NullBuf null;
  std::ostream devnull(&null);
  // Run it with collection off, then on: the ratio is the observability
  // overhead of the serve loop (serve always collects, for its stats op).
  double loop_s[2] = {0.0, 0.0};
  for (int on = 0; on < 2; ++on) {
    obs::set_enabled(on == 1);
    surface::ServeSession session(provider.catalog(), {hits + 1}, lookup,
                                  refine, nullptr);
    std::istringstream in(stream);
    const auto t0 = Clock::now();
    session.run(in, devnull);
    loop_s[on] = seconds_since(t0);
  }
  metrics["serve.loop_qps"] = static_cast<double>(hits) / loop_s[1];
  metrics["obs.trace_overhead_pct"] = 100.0 * (loop_s[1] / loop_s[0] - 1.0);
  // One burst through the loop at the CLI's queue bound: everything is
  // buffered, so the shed count is exact — the deterministic witness of
  // the shed-hits behaviour.
  {
    const std::size_t burst =
        static_cast<std::size_t>(cfg.at("burst").as_uint());
    const std::size_t max_pending =
        static_cast<std::size_t>(cfg.at("max_pending").as_uint());
    std::string burst_stream;
    for (std::size_t i = 0; i < burst; ++i) {
      burst_stream += pool_lines[i % pool_lines.size()];
      burst_stream += '\n';
    }
    surface::ServeSession session(provider.catalog(), {max_pending}, lookup,
                                  refine, nullptr);
    std::istringstream in(burst_stream);
    session.run(in, devnull);
  }

  // One refinement of the scenario the store has no surfaces for, traced
  // so its worker threads can be counted.
  const std::string scenario = cfg.at("refine_scenario").as_string();
  std::string species;
  for (const pipeline::ScenarioSpec& s : spec.scenarios) {
    if (s.name == scenario) species = s.species.front();
  }
  obs::set_trace_enabled(true);
  const std::uint64_t regions0 = counter("exec.regions");
  const auto t0 = Clock::now();
  provider.refine(scenario, species);
  metrics["serve.refine_s"] = seconds_since(t0);
  std::set<unsigned> tids;
  for (const obs::TraceEvent& e : obs::Registry::global().trace_events()) {
    tids.insert(e.tid);
  }
  obs::set_trace_enabled(false);
  metrics["exec.regions"] = counter("exec.regions") - regions0;
  metrics["exec.threads_seen"] = static_cast<std::uint64_t>(tids.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: finser_layers <plan.json>\n");
    return 2;
  }
  try {
    const util::JsonValue plan = util::JsonValue::parse(read_file(argv[1]));
    const std::size_t threads =
        static_cast<std::size_t>(plan.at("threads").as_uint());
    obs::set_enabled(true);
    util::JsonValue metrics = util::JsonValue::object();
    util::JsonValue stages = util::JsonValue::object();
    std::map<std::uint64_t, sram::CellSoftErrorModel> models;

    if (plan.contains("characterize")) {
      const pipeline::CampaignSpec spec =
          pipeline::parse_campaign_file(plan.at("characterize").as_string());
      models = characterize_per_vdd(spec, threads, metrics);
    }
    if (plan.contains("stages")) {
      const util::JsonValue& list = plan.at("stages");
      for (std::size_t i = 0; i < list.size(); ++i) {
        const util::JsonValue& st = list.at(i);
        stages[st.at("tag").as_string()] = replay_stages(
            st.at("campaign").as_string(), st.at("store").as_string(), threads);
      }
    }
    if (plan.contains("layers")) {
      const util::JsonValue& l = plan.at("layers");
      replay_layers(l.at("campaign").as_string(), l.at("store").as_string(),
                    l.at("device_lut").as_bool(), threads, models,
                    l.at("sink_store").as_string(), metrics);
    }
    if (plan.contains("serve")) {
      replay_serve(plan.at("serve"), threads, metrics);
    }

    util::JsonValue counters = util::JsonValue::object();
    for (const auto& row : obs::Registry::global().snapshot().counters) {
      counters[row.name] = row.total;
    }
    util::JsonValue out = util::JsonValue::object();
    out["metrics"] = std::move(metrics);
    out["stages"] = std::move(stages);
    out["counters"] = std::move(counters);
    out["lanes"] = static_cast<std::uint64_t>(spice::lane_width());
    std::printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "finser_layers: %s\n", e.what());
    return 1;
  }
}
