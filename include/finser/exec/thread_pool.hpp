#pragma once
/// \file thread_pool.hpp
/// \brief The process-lifetime chunked thread pool + pairwise reduction.
///
/// One pool serves the whole process. It is built lazily by the first
/// parallel region and grown to the largest thread count any region asks
/// for; its threads then live until exit. A parallel region splits
/// `n_items` into fixed-size chunks and its participants claim chunk
/// *indices* from a single atomic counter. Which thread executes which chunk
/// is scheduling noise; everything an engine needs for reproducibility is
/// keyed by the chunk index (RNG stream id, partial-result slot), so results
/// are bit-identical for 1 and N threads. parallel_reduce() completes the
/// pattern: per-chunk partials land in an index-addressed vector and are
/// merged by a deterministic pairwise tree, never in completion order.
///
/// Regions nest. A chunk may submit a region of its own; the submitting
/// thread is that region's worker slot 0 and, while it waits for the region
/// to drain, it runs chunks of that region only. Any idle pool thread claims
/// chunks of any active region (oldest first) as long as the region has
/// fewer than `threads` participants, and takes a free worker slot in
/// [1, threads). So ChunkRange::worker is unique among the running chunks of
/// one region — per-slot scratch needs no lock — while two regions may run
/// the same slot number at once.

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/util/error.hpp"

namespace finser::exec {

/// One chunk of a parallel region.
struct ChunkRange {
  std::size_t index;   ///< Chunk index — the deterministic key.
  std::size_t begin;   ///< First item of the chunk.
  std::size_t end;     ///< One past the last item.
  std::size_t worker;  ///< Worker slot in [0, threads) of the region.
};

using ChunkFn = std::function<void(const ChunkRange&)>;

/// Run \p fn over ceil(n_items / chunk) chunks with at most \p threads
/// participants (the caller included; 0 = resolve_threads(0)) and block
/// until the region drains. With threads == 1 or a single chunk the region
/// runs inline on the caller with no synchronization. May be called from
/// inside a chunk of another region, and from several threads at once.
///
/// The first exception thrown by \p fn aborts the region (chunks not yet
/// claimed are skipped) and is rethrown here. If \p cancel is non-null,
/// participants poll it before claiming each chunk and stop at the next
/// chunk boundary once it fires; chunks already started still run to
/// completion, so the region never leaves partial-chunk state behind.
/// Returns true iff every chunk executed (false means the region was
/// cancelled; the set of executed chunk indices is whatever \p fn recorded).
bool parallel_for_chunks(std::size_t threads, std::size_t n_items,
                         std::size_t chunk, const ChunkFn& fn,
                         const CancelToken* cancel = nullptr);

namespace detail {
struct Region;
}  // namespace detail

/// Releases further chunks of a parallel_for_released() region.
class Releaser {
 public:
  explicit Releaser(detail::Region& region) : region_(&region) {}

  /// Make the next \p n chunks (in index order) claimable.
  void release(std::size_t n = 1) const;

 private:
  detail::Region* region_;
};

/// Dependency-driven region of \p n_chunks one-item chunks: only chunks
/// below the release mark may be claimed. The mark starts at \p released
/// and a running chunk moves it on through the Releaser it is handed
/// (typically once the work that later chunks need is done). Participants,
/// slots, nesting and exceptions behave as in parallel_for_chunks(). Every
/// chunk must eventually be released by a chunk of this region; a region
/// whose running chunks all finish short of n_chunks throws
/// util::LogicError instead of waiting forever.
void parallel_for_released(
    std::size_t threads, std::size_t n_chunks, std::size_t released,
    const std::function<void(const ChunkRange&, const Releaser&)>& fn);

/// Deterministic pairwise tree reduction: merges (0,1), (2,3), ... and
/// repeats until one value remains. Independent of how \p parts were
/// produced, and numerically better-conditioned than a left fold for long
/// chains of Welford merges.
template <typename T, typename MergeFn>
T reduce_pairwise(std::vector<T> parts, MergeFn merge) {
  FINSER_REQUIRE(!parts.empty(), "reduce_pairwise: nothing to reduce");
  while (parts.size() > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
      parts[out++] = merge(std::move(parts[i]), std::move(parts[i + 1]));
    }
    if (parts.size() % 2 == 1) parts[out++] = std::move(parts.back());
    parts.resize(out);
  }
  return std::move(parts.front());
}

/// Map every chunk to a partial (any schedule), then reduce the partials
/// pairwise in chunk-index order. T must be default-constructible; \p map is
/// (const ChunkRange&) -> T, \p merge is (T, T) -> T. A fired \p cancel
/// stops the region at a chunk boundary and throws util::Cancelled.
template <typename T, typename MapFn, typename MergeFn>
T parallel_reduce(std::size_t threads, std::size_t n_items, std::size_t chunk,
                  MapFn&& map, MergeFn&& merge,
                  const CancelToken* cancel = nullptr) {
  FINSER_REQUIRE(n_items > 0 && chunk > 0, "parallel_reduce: empty region");
  const std::size_t n_chunks = (n_items + chunk - 1) / chunk;
  std::vector<T> parts(n_chunks);
  if (!parallel_for_chunks(
          threads, n_items, chunk,
          [&](const ChunkRange& r) { parts[r.index] = map(r); }, cancel)) {
    throw util::Cancelled("run cancelled at a chunk boundary");
  }
  return reduce_pairwise(std::move(parts), std::forward<MergeFn>(merge));
}

/// Round schedule of run_units_adaptive(): units run in deterministic
/// geometric rounds and the convergence predicate runs only at round
/// boundaries — a pure function of (n_units, schedule), never of the thread
/// schedule that executes it.
struct AdaptiveSchedule {
  std::size_t min_units = 8;  ///< Units before the first decision.
  double growth = 2.0;        ///< Round-size growth factor (>= 1).
};

/// Boundaries b_0 < b_1 < ... = n_units of the adaptive rounds:
/// b_0 = min(n_units, max(1, min_units)), b_{k+1} = min(n_units,
/// max(b_k + 1, ceil(b_k * growth))).
std::vector<std::size_t> round_boundaries(std::size_t n_units,
                                          const AdaptiveSchedule& schedule);

/// Result of run_units_adaptive(): the pairwise reduction of the completed
/// unit prefix [0, completed).
template <typename T>
struct AdaptiveReduction {
  T total;
  std::size_t completed = 0;
  bool stopped_early = false;  ///< Converged before n_units.
};

/// Adaptive parallel_reduce over \p n_units one-item units: units run round
/// by round (round_boundaries), and after each boundary b < n_units the
/// pairwise reduction of units [0, b) goes to \p converged; the first true
/// stops the run. Unit u is mapped with ChunkRange{u, u, u + 1, worker}, so
/// its identity (RNG stream, slot) never depends on the rounds, and both
/// the decision and the returned total are reductions of the same
/// index-ordered prefix — identical at any thread count. A fired \p cancel
/// throws util::Cancelled at a unit boundary.
template <typename T, typename MapFn, typename MergeFn>
AdaptiveReduction<T> run_units_adaptive(
    std::size_t threads, std::size_t n_units, const AdaptiveSchedule& schedule,
    MapFn&& map, MergeFn&& merge,
    const std::function<bool(const T&)>& converged,
    const CancelToken* cancel = nullptr) {
  FINSER_REQUIRE(n_units > 0, "run_units_adaptive: no work units");
  FINSER_REQUIRE(static_cast<bool>(converged),
                 "run_units_adaptive: convergence predicate required");
  std::vector<T> parts(n_units);
  AdaptiveReduction<T> out;
  for (const std::size_t bound : round_boundaries(n_units, schedule)) {
    const std::size_t lo = out.completed;
    if (!parallel_for_chunks(
            threads, bound - lo, 1,
            [&](const ChunkRange& r) {
              parts[r.index + lo] = map(ChunkRange{r.index + lo, r.begin + lo,
                                                   r.end + lo, r.worker});
            },
            cancel)) {
      throw util::Cancelled("run cancelled at a chunk boundary");
    }
    out.completed = bound;
    if (bound < n_units &&
        converged(reduce_pairwise(
            std::vector<T>(parts.begin(), parts.begin() + bound), merge))) {
      out.stopped_early = true;
      break;
    }
  }
  parts.resize(out.completed);
  out.total = reduce_pairwise(std::move(parts), std::forward<MergeFn>(merge));
  return out;
}

}  // namespace finser::exec
