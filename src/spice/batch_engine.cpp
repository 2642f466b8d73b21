/// \file batch_engine.cpp
/// \brief Lane-width selection and the batched transient entry points.

#include <array>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "finser/spice/batch.hpp"
#include "engine_detail.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {

namespace {

/// Explicit set_lane_width() override; 0 = none (fall through to env/auto).
std::atomic<std::size_t> g_lane_override{0};

/// One-shot FINSER_LANES parse, hardened the same way as FINSER_MC_SCALE
/// (core/ser_flow.cpp): tolerate trailing whitespace, diagnose-and-ignore
/// anything else on stderr. Returns 0 for unset/auto/invalid.
std::size_t lanes_from_env_uncached() {
  const char* raw = std::getenv("FINSER_LANES");
  if (raw == nullptr) return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  while (end != nullptr && *end != '\0' &&
         std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  const bool parsed = end != nullptr && end != raw && *end == '\0';
  if (!parsed || !lane_width_valid(static_cast<std::size_t>(v))) {
    std::fprintf(stderr,
                 "finser: ignoring invalid FINSER_LANES=\"%s\" "
                 "(expected 0 = auto, 1, 4 or 8); using auto\n",
                 raw);
    return 0;
  }
  return static_cast<std::size_t>(v);
}

std::size_t lanes_from_env() {
  static const std::size_t cached = lanes_from_env_uncached();
  return cached;
}

}  // namespace

std::size_t lane_width() {
  const std::size_t over = g_lane_override.load(std::memory_order_relaxed);
  if (over != 0) return over;
  const std::size_t env = lanes_from_env();
  if (env != 0) return env;
  return kDefaultLaneWidth;
}

void set_lane_width(std::size_t w) {
  if (!lane_width_valid(w)) {
    throw util::InvalidArgument(
        "set_lane_width: lane width must be 0 (auto), 1, 4 or 8, got " +
        std::to_string(w));
  }
  g_lane_override.store(w, std::memory_order_relaxed);
}

void run_transient_stream(CompiledCircuit& cc, BatchWorkspace& bw,
                          TransientJobSource& jobs, const TransientOptions& opt,
                          const std::vector<std::string>& probe_nodes) {
  switch (bw.lanes) {
    case 1:
      return detail::run_transient_stream_impl<1>(cc, bw, jobs, opt,
                                                  probe_nodes);
    case 4:
      return detail::run_transient_stream_impl<4>(cc, bw, jobs, opt,
                                                  probe_nodes);
    case 8:
      return detail::run_transient_stream_impl<8>(cc, bw, jobs, opt,
                                                  probe_nodes);
    default:
      throw util::InvalidArgument(
          "run_transient_batch: workspace not configured (lanes must be 1, 4 "
          "or 8; call batch_configure first)");
  }
}

BatchTransientResult run_transient_batch(
    CompiledCircuit& cc, BatchWorkspace& bw,
    const std::vector<std::vector<double>>& x0, const TransientOptions& opt,
    const std::vector<std::string>& probe_nodes) {
  FINSER_REQUIRE(x0.size() <= bw.lanes,
                 "run_transient_batch: more lanes than width");

  // At most one job per lane, pinned to it: job w is x0[w] on lane w.
  struct FixedJobs final : TransientJobSource {
    const std::vector<std::vector<double>>& x0;
    BatchTransientResult& res;
    std::array<bool, kMaxLaneWidth> taken{};

    FixedJobs(const std::vector<std::vector<double>>& x,
              BatchTransientResult& r)
        : x0(x), res(r) {}

    const std::vector<double>* next(std::size_t lane,
                                    std::size_t& job) override {
      if (lane >= x0.size() || taken[lane] || x0[lane].empty()) return nullptr;
      taken[lane] = true;
      job = lane;
      return &x0[lane];
    }
    void finish(std::size_t job, const Waveform& wave,
                const std::string* error) override {
      res.waves[job] = wave;
      if (error != nullptr) {
        res.failed[job] = 1;
        res.errors[job] = *error;
      }
    }
  };

  std::vector<std::string> names;
  std::vector<std::size_t> nodes;
  detail::resolve_probes(cc, probe_nodes, names, nodes);
  BatchTransientResult res;
  res.failed.assign(bw.lanes, 0);
  res.errors.assign(bw.lanes, std::string());
  res.waves.reserve(bw.lanes);
  for (std::size_t w = 0; w < bw.lanes; ++w) res.waves.emplace_back(names, nodes);
  FixedJobs jobs(x0, res);
  run_transient_stream(cc, bw, jobs, opt, probe_nodes);
  return res;
}

}  // namespace finser::spice
