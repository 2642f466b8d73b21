#include "finser/ckpt/checkpoint.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "finser/util/bytes.hpp"
#include "finser/util/checksum.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/io.hpp"

namespace finser::ckpt {

namespace {

constexpr char kMagic[8] = {'F', 'N', 'S', 'R', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kFormatVersion = 1;

void warn(const std::string& msg) {
  std::fprintf(stderr, "[finser:ckpt] warning: %s\n", msg.c_str());
}

}  // namespace

std::size_t Checkpoint::done_count() const {
  std::size_t n = 0;
  for (const auto& b : blobs) {
    if (!b.empty()) ++n;
  }
  return n;
}

bool Checkpoint::save(const std::string& path, std::string* error) const {
  util::ByteWriter payload;
  payload.u32(kFormatVersion);
  payload.u64(fingerprint);
  payload.u64(blobs.size());
  payload.u64(done_count());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    if (blobs[i].empty()) continue;
    payload.u64(i);
    payload.u64(blobs[i].size());
    payload.bytes(blobs[i].data(), blobs[i].size());
  }

  util::ByteWriter file;
  file.bytes(kMagic, sizeof(kMagic));
  file.bytes(payload.data().data(), payload.size());
  file.u32(util::crc32(payload.data().data(), payload.size()));

  if (!util::atomic_write_file(path, file.data().data(), file.size(), error)) {
    return false;
  }
  // The kill-and-resume test SIGKILLs the process *after* a flush has safely
  // landed on disk — the checkpoint must survive exactly this death.
  if (util::fault_fire(util::FaultSite::kKillAfterFlush)) {
    std::raise(SIGKILL);
  }
  return true;
}

bool Checkpoint::try_load(const std::string& path,
                          std::uint64_t expected_fingerprint,
                          std::size_t expected_units, Checkpoint& out,
                          std::string* reason) {
  const auto reject = [&](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return false;
  };

  std::vector<std::uint8_t> raw;
  std::string io_error;
  if (!util::read_file(path, raw, &io_error)) return reject(io_error);
  if (raw.size() < sizeof(kMagic) + sizeof(std::uint32_t)) {
    return reject("file too short to be a checkpoint (" +
                  std::to_string(raw.size()) + " bytes)");
  }
  if (std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) {
    return reject("bad magic (not a finser checkpoint)");
  }

  const std::size_t payload_size =
      raw.size() - sizeof(kMagic) - sizeof(std::uint32_t);
  const std::uint8_t* payload = raw.data() + sizeof(kMagic);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, payload + payload_size, sizeof(stored_crc));
  const std::uint32_t actual_crc = util::crc32(payload, payload_size);
  if (stored_crc != actual_crc) {
    return reject("CRC mismatch (stored " + std::to_string(stored_crc) +
                  ", computed " + std::to_string(actual_crc) +
                  "): torn or corrupted file");
  }

  try {
    util::ByteReader r(payload, payload_size);
    const std::uint32_t version = r.u32();
    if (version != kFormatVersion) {
      return reject("unsupported format version " + std::to_string(version));
    }
    const std::uint64_t fp = r.u64();
    if (fp != expected_fingerprint) {
      return reject("config fingerprint mismatch (checkpoint is from a "
                    "different configuration)");
    }
    const std::uint64_t n_units = r.u64();
    if (n_units != expected_units) {
      return reject("unit count mismatch (checkpoint has " +
                    std::to_string(n_units) + ", run expects " +
                    std::to_string(expected_units) + ")");
    }
    const std::uint64_t n_blobs = r.u64();
    if (n_blobs > n_units) {
      return reject("blob count exceeds unit count");
    }
    Checkpoint ck;
    ck.fingerprint = fp;
    ck.blobs.assign(n_units, {});
    for (std::uint64_t b = 0; b < n_blobs; ++b) {
      const std::uint64_t index = r.u64();
      const std::uint64_t size = r.u64();
      if (index >= n_units) return reject("blob index out of range");
      if (!ck.blobs[index].empty()) return reject("duplicate blob index");
      if (size == 0 || size > r.remaining()) {
        return reject("blob size out of range");
      }
      ck.blobs[index].resize(size);
      r.bytes(ck.blobs[index].data(), size);
    }
    if (!r.exhausted()) return reject("trailing bytes after last blob");
    out = std::move(ck);
    return true;
  } catch (const std::exception& e) {
    return reject(std::string("malformed payload: ") + e.what());
  }
}

std::vector<std::size_t> round_boundaries(std::size_t n_units,
                                          const AdaptiveSchedule& schedule) {
  FINSER_REQUIRE(n_units > 0, "ckpt::round_boundaries: no work units");
  FINSER_REQUIRE(schedule.growth >= 1.0,
                 "ckpt::round_boundaries: growth must be >= 1");
  std::vector<std::size_t> bounds;
  std::size_t b =
      std::min(n_units, std::max<std::size_t>(1, schedule.min_units));
  bounds.push_back(b);
  while (b < n_units) {
    const double grown = std::ceil(static_cast<double>(b) * schedule.growth);
    std::size_t next = b + 1;
    if (grown >= static_cast<double>(n_units)) {
      next = n_units;
    } else if (grown > static_cast<double>(next)) {
      next = static_cast<std::size_t>(grown);
    }
    b = next;
    bounds.push_back(b);
  }
  return bounds;
}

namespace {

/// Shared core of run_units / run_units_adaptive. Rounds execute in order;
/// after each boundary short of n_units the (optional) predicate may stop
/// the run. The checkpoint always has one slot per potential unit, so both
/// entry points read and write the same file format and a checkpoint taken
/// by one resumes under the other (the fingerprint is what distinguishes
/// configurations, not the driver).
UnitRunResult run_rounds(std::size_t threads, std::size_t n_units,
                         std::uint64_t fingerprint, const RunOptions& run,
                         const std::vector<std::size_t>& bounds,
                         const UnitFn& compute, const ConvergedFn& converged) {
  UnitRunResult out;
  out.blobs.assign(n_units, {});

  if (run.checkpointing()) {
    Checkpoint restored;
    std::string reason;
    if (Checkpoint::try_load(run.checkpoint_path, fingerprint, n_units,
                             restored, &reason)) {
      out.blobs = std::move(restored.blobs);
      for (const auto& b : out.blobs) {
        if (!b.empty()) ++out.reused;
      }
    } else if (std::filesystem::exists(run.checkpoint_path)) {
      warn("discarding checkpoint " + run.checkpoint_path + ": " + reason +
           "; recomputing from scratch");
    }
  }

  // Workers publish each finished blob under this mutex; the flusher
  // snapshots the blob vector under the same mutex, so the periodic save
  // never races a concurrent store.
  std::mutex flush_m;
  using Clock = std::chrono::steady_clock;
  Clock::time_point last_flush = Clock::now();

  const auto flush_locked = [&]() {
    Checkpoint ck;
    ck.fingerprint = fingerprint;
    ck.blobs = out.blobs;
    std::string error;
    if (!ck.save(run.checkpoint_path, &error)) {
      warn("checkpoint flush to " + run.checkpoint_path + " failed: " + error +
           "; continuing without it");
    }
  };

  const auto body = [&](const exec::ChunkRange& r) {
    if (!out.blobs[r.index].empty()) return;  // Restored from the checkpoint.
    std::vector<std::uint8_t> blob = compute(r);
    FINSER_REQUIRE(!blob.empty(), "ckpt::run_units: unit produced empty blob");
    std::lock_guard<std::mutex> lk(flush_m);
    out.blobs[r.index] = std::move(blob);
    if (run.checkpointing()) {
      const Clock::time_point now = Clock::now();
      const double elapsed =
          std::chrono::duration<double>(now - last_flush).count();
      if (run.checkpoint_interval_sec <= 0.0 ||
          elapsed >= run.checkpoint_interval_sec) {
        flush_locked();
        last_flush = now;
      }
    }
  };

  std::size_t lo = 0;
  for (const std::size_t bound : bounds) {
    bool completed = false;
    try {
      // The round region re-bases chunk indices at lo so unit r.index keeps
      // its global identity (RNG stream, blob slot) regardless of rounds.
      completed = exec::parallel_for_chunks(
          threads, bound - lo, 1,
          [&](const exec::ChunkRange& r) {
            body(exec::ChunkRange{r.index + lo, r.begin + lo, r.end + lo,
                                  r.worker});
          },
          run.cancel);
    } catch (...) {
      // Whatever finished before the failure is still valid, deterministic
      // work — persist it so a retry does not repeat it.
      if (run.checkpointing()) {
        std::lock_guard<std::mutex> lk(flush_m);
        flush_locked();
      }
      throw;
    }

    if (!completed) {
      std::string msg = "run cancelled at a chunk boundary";
      if (run.checkpointing()) {
        std::lock_guard<std::mutex> lk(flush_m);
        flush_locked();
        msg += "; progress saved to " + run.checkpoint_path;
      }
      throw util::Cancelled(msg);
    }

    lo = bound;
    if (bound < n_units && converged && converged(bound, out.blobs)) {
      out.stopped_early = true;
      break;
    }
  }

  out.completed = lo;
  out.blobs.resize(lo);

  if (run.checkpointing()) {
    std::error_code ec;
    std::filesystem::remove(run.checkpoint_path, ec);  // Best-effort cleanup.
  }
  return out;
}

}  // namespace

UnitRunResult run_units(std::size_t threads, std::size_t n_units,
                        std::uint64_t fingerprint, const RunOptions& run,
                        const UnitFn& compute) {
  FINSER_REQUIRE(n_units > 0, "ckpt::run_units: no work units");
  // One round spanning everything, no predicate: completes every unit.
  return run_rounds(threads, n_units, fingerprint, run, {n_units}, compute,
                    ConvergedFn{});
}

UnitRunResult run_units_adaptive(std::size_t threads, std::size_t n_units,
                                 std::uint64_t fingerprint,
                                 const RunOptions& run,
                                 const AdaptiveSchedule& schedule,
                                 const UnitFn& compute,
                                 const ConvergedFn& converged) {
  FINSER_REQUIRE(n_units > 0, "ckpt::run_units_adaptive: no work units");
  FINSER_REQUIRE(static_cast<bool>(converged),
                 "ckpt::run_units_adaptive: convergence predicate required");
  return run_rounds(threads, n_units, fingerprint, run,
                    round_boundaries(n_units, schedule), compute, converged);
}

}  // namespace finser::ckpt
