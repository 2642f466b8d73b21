#pragma once
/// \file serve.hpp
/// \brief Long-lived NDJSON query loop over ResponseSurfaces
/// (docs/serving.md).
///
/// The session reads line-delimited JSON requests and never blocks on a
/// refinement. A POF/FIT query whose surface is already cached (memory or
/// artifact) is answered inline, as soon as it is parsed. Cache misses
/// gather while more input is already buffered; at the boundary where the
/// next read could block (`in_avail() <= 0`) they are handed as one batch to
/// a background refiner thread, so one refinement run (which sweeps a whole
/// scenario through the lane-batched characterizer) serves every miss of
/// the batch touching that scenario, and the loop goes straight back to
/// reading. Inline replies are flushed at the same boundary; the refiner
/// flushes its own after each batch. The pending bound (`max_pending`)
/// counts misses queued or in flight only: a miss arriving with the bound
/// reached gets an immediate `shed` reply. `stats`, `shutdown` and EOF
/// settle first (wait until no miss batch is queued or in flight).
/// SIGINT/SIGTERM (via exec::CancelToken) cancels the in-flight refinement;
/// misses still waiting are answered from cache where possible and replied
/// `cancelled` otherwise, and no new simulation starts.
///
/// The session itself knows nothing about how surfaces are produced — cache
/// lookup and refinement are injected callbacks (pipeline::SurfaceProvider
/// in practice), which keeps `finser::surface` free of a pipeline
/// dependency.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/surface/response_surface.hpp"

namespace finser::surface {

/// One scenario the server can answer for, with its species in sweep order
/// (the order is part of the identity: SerFlow's Monte-Carlo seed cursor
/// advances serially across the species of a scenario).
struct ServeScenario {
  std::string name;
  std::vector<std::string> species;
  double temp_k = 0.0;
};

struct ServeConfig {
  /// Maximum cache misses queued or being refined before further misses
  /// are shed (backpressure bound). Cache hits never count against it.
  std::size_t max_pending = 64;
};

class ServeSession {
 public:
  /// Cache-only lookup (memory or artifact) — must never simulate.
  /// Returns nullptr on a miss. The pointer must stay valid for the
  /// session's lifetime. Called from the loop thread while a refinement
  /// may be running on the refiner thread.
  using LookupFn = std::function<const ResponseSurface*(
      const std::string& scenario, const std::string& species)>;

  /// Refinement: build (and cache) every surface of \p scenario, return the
  /// one for \p species. May throw (util::Cancelled on cooperative
  /// cancellation, util::Error on failure). Runs on the session's refiner
  /// thread, one call at a time.
  using RefineFn = LookupFn;

  ServeSession(std::vector<ServeScenario> catalog, ServeConfig config,
               LookupFn lookup, RefineFn refine, const exec::CancelToken* cancel);

  /// Run the request loop until EOF, a `shutdown` request, or cancellation.
  /// Responses go to \p out (one JSON object per line, flushed at batch
  /// boundaries); \p out must carry protocol traffic only. Replies to
  /// misses are written from the refiner thread, so their order relative
  /// to other replies is not the request order.
  /// \returns the process exit code: 0 for a clean drain (every request
  /// answered ok), 6 (degraded) when any request was shed, malformed, failed
  /// or cancelled.
  int run(std::istream& in, std::ostream& out);

 private:
  std::vector<ServeScenario> catalog_;
  ServeConfig config_;
  LookupFn lookup_;
  RefineFn refine_;
  const exec::CancelToken* cancel_;
};

}  // namespace finser::surface
