#pragma once
/// \file checkpoint.hpp
/// \brief Crash-safe checkpoint/restore for chunked Monte-Carlo runs.
///
/// A checkpoint is the set of *completed work units* of a deterministic
/// parallel region: for each finished unit index, the serialized partial
/// result (an encoded McPartial, ArrayMcResult, or PofTable). Because every
/// engine keys its RNG streams and merge order by unit index — never by
/// thread or completion order — replaying the missing units and re-reducing
/// the full index-ordered set reproduces an uninterrupted run bit-for-bit.
/// That is the resume contract: same seed + same config ⇒ identical output,
/// whether or not the run was killed and resumed in between, at any thread
/// count (docs/robustness.md).
///
/// On-disk format (version 1, host byte order; see docs/robustness.md):
///
///   magic   "FNSRCKPT"                        8 bytes
///   payload u32 version                       |
///           u64 config fingerprint            | CRC-32 covers
///           u64 n_units                       | this region
///           u64 n_blobs                       |
///           n_blobs x { u64 index, u64 size, bytes }
///   crc     u32 CRC-32 of payload             4 bytes
///
/// Files are written atomically (util::atomic_write_file), so a crash
/// mid-save leaves the previous checkpoint intact; any torn, truncated or
/// bit-flipped file fails the CRC and is discarded with a logged reason —
/// the run falls back to recomputing from scratch, never to loading bad
/// state.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/exec/thread_pool.hpp"

namespace finser::ckpt {

/// Per-run robustness knobs, threaded from the CLI down to every engine.
struct RunOptions {
  /// Checkpoint file to write/resume ("" = checkpointing disabled).
  std::string checkpoint_path;
  /// Seconds between periodic flushes; <= 0 flushes after every unit.
  double checkpoint_interval_sec = 30.0;
  /// Cooperative cancellation token (nullptr = not cancellable). On
  /// cancellation the run flushes a final checkpoint (if enabled) and
  /// throws util::Cancelled.
  const exec::CancelToken* cancel = nullptr;

  bool checkpointing() const { return !checkpoint_path.empty(); }
  bool active() const { return checkpointing() || cancel != nullptr; }

  /// The same cancellation routed to a nested engine, without sharing the
  /// outer checkpoint file.
  RunOptions cancel_only() const {
    RunOptions inner;
    inner.cancel = cancel;
    return inner;
  }
};

/// In-memory image of a checkpoint file.
struct Checkpoint {
  std::uint64_t fingerprint = 0;
  /// One slot per work unit; an empty blob means "not completed yet".
  std::vector<std::vector<std::uint8_t>> blobs;

  std::size_t done_count() const;

  /// Atomically write to \p path. Returns false (reason in \p error) on I/O
  /// failure. Fires the `kill_after_flush` fault site after a successful
  /// write (the kill-and-resume test hinges on this being *after*).
  bool save(const std::string& path, std::string* error = nullptr) const;

  /// Load and validate \p path. Returns false with a human-readable
  /// \p reason on any problem — missing file, bad magic/version, CRC
  /// mismatch, fingerprint/unit-count mismatch, malformed records — and
  /// never throws: a bad checkpoint always degrades to a cold start.
  static bool try_load(const std::string& path,
                       std::uint64_t expected_fingerprint,
                       std::size_t expected_units, Checkpoint& out,
                       std::string* reason = nullptr);
};

/// Result of run_units() / run_units_adaptive(): the completed units' blobs
/// in index order. run_units always completes every unit; the adaptive
/// variant may stop at a round boundary, in which case blobs holds exactly
/// the completed prefix.
struct UnitRunResult {
  std::vector<std::vector<std::uint8_t>> blobs;
  std::size_t reused = 0;     ///< Units restored from the checkpoint.
  std::size_t completed = 0;  ///< Units computed or restored (= blobs.size()).
  bool stopped_early = false; ///< Adaptive runs only: converged before n_units.
};

/// Computes one work unit's serialized partial. The ChunkRange spans exactly
/// one unit (index == begin, end == begin + 1); must return a non-empty blob.
using UnitFn = std::function<std::vector<std::uint8_t>(const exec::ChunkRange&)>;

/// Run \p n_units independent work units, at most \p threads at once (0 =
/// auto), with checkpoint/resume and cooperative cancellation per \p run:
///
///  - A valid checkpoint at run.checkpoint_path (matching \p fingerprint and
///    \p n_units) seeds the completed set; an invalid one is discarded with
///    a warning to stderr and everything is recomputed.
///  - Completed blobs are flushed to the checkpoint at most every
///    checkpoint_interval_sec (<= 0: after every unit), and once more on
///    cancellation or error.
///  - Cancellation stops at the next unit boundary and throws
///    util::Cancelled after the final flush; no partial-unit state is ever
///    recorded.
///  - On success the checkpoint file is removed and all blobs returned in
///    index order, restored and fresh alike — callers decode and reduce them
///    pairwise exactly as an uninterrupted run would.
UnitRunResult run_units(std::size_t threads, std::size_t n_units,
                        std::uint64_t fingerprint, const RunOptions& run,
                        const UnitFn& compute);

/// Round schedule of run_units_adaptive(): units are computed in
/// deterministic geometric rounds and the convergence predicate runs only at
/// round boundaries — a pure function of (n_units, schedule), never of the
/// thread/worker schedule that executes it.
struct AdaptiveSchedule {
  std::size_t min_units = 8;  ///< Units before the first decision.
  double growth = 2.0;        ///< Round-size growth factor (>= 1).
};

/// Boundaries b_0 < b_1 < ... = n_units of the adaptive rounds:
/// b_0 = min(n_units, max(1, min_units)), b_{k+1} = min(n_units,
/// max(b_k + 1, ceil(b_k * growth))).
std::vector<std::size_t> round_boundaries(std::size_t n_units,
                                          const AdaptiveSchedule& schedule);

/// Convergence predicate of run_units_adaptive(): called at a round boundary
/// with the blobs of units [0, done) (in index order; later slots are
/// empty). Must be a pure function of the blob contents so the stopping
/// decision is identical at any thread count, worker count, and across
/// kill/resume.
using ConvergedFn = std::function<bool(
    std::size_t done, const std::vector<std::vector<std::uint8_t>>& blobs)>;

/// Adaptive variant of run_units(): computes units round by round and stops
/// at the first boundary b < n_units where \p converged(b, blobs) is true
/// (never before min_units, never mid-round). Checkpoint/resume and
/// cancellation behave exactly as in run_units — the checkpoint keeps one
/// slot per *potential* unit, so a resumed run replays the same rounds,
/// re-evaluates the same prefix statistics, and reaches the same stopping
/// boundary; the returned blobs are the completed prefix in index order.
UnitRunResult run_units_adaptive(std::size_t threads, std::size_t n_units,
                                 std::uint64_t fingerprint,
                                 const RunOptions& run,
                                 const AdaptiveSchedule& schedule,
                                 const UnitFn& compute,
                                 const ConvergedFn& converged);

}  // namespace finser::ckpt
