/// \file test_ckpt.cpp
/// \brief Checkpoint file format + run_units resume/cancel semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "finser/ckpt/checkpoint.hpp"
#include "finser/exec/cancel.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/util/error.hpp"
#include "finser/util/io.hpp"

namespace finser::ckpt {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Removes the checkpoint file (and its temp sibling) on scope exit.
struct FileGuard {
  std::string path;
  ~FileGuard() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
};

std::vector<std::uint8_t> blob_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> out;
  for (int b : bytes) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.fingerprint = 0xFEEDFACEDEADBEEFull;
  ckpt.blobs.resize(5);
  ckpt.blobs[1] = blob_of({10, 11, 12});
  ckpt.blobs[3] = blob_of({42});
  return ckpt;
}

TEST(Checkpoint, RoundTripPreservesBlobsAndGaps) {
  const FileGuard file{temp_path("finser_ckpt_roundtrip.bin")};
  const Checkpoint ckpt = sample_checkpoint();
  EXPECT_EQ(ckpt.done_count(), 2u);

  std::string error;
  ASSERT_TRUE(ckpt.save(file.path, &error)) << error;

  Checkpoint loaded;
  std::string reason;
  ASSERT_TRUE(Checkpoint::try_load(file.path, ckpt.fingerprint, 5, loaded,
                                   &reason))
      << reason;
  EXPECT_EQ(loaded.fingerprint, ckpt.fingerprint);
  ASSERT_EQ(loaded.blobs.size(), 5u);
  EXPECT_EQ(loaded.blobs, ckpt.blobs);
  EXPECT_EQ(loaded.done_count(), 2u);
}

TEST(Checkpoint, TryLoadRejectsWrongFingerprint) {
  const FileGuard file{temp_path("finser_ckpt_fp.bin")};
  const Checkpoint ckpt = sample_checkpoint();
  ASSERT_TRUE(ckpt.save(file.path));

  Checkpoint loaded;
  std::string reason;
  EXPECT_FALSE(Checkpoint::try_load(file.path, ckpt.fingerprint + 1, 5, loaded,
                                    &reason));
  EXPECT_NE(reason.find("fingerprint"), std::string::npos) << reason;
}

TEST(Checkpoint, TryLoadRejectsWrongUnitCount) {
  const FileGuard file{temp_path("finser_ckpt_units.bin")};
  const Checkpoint ckpt = sample_checkpoint();
  ASSERT_TRUE(ckpt.save(file.path));

  Checkpoint loaded;
  std::string reason;
  EXPECT_FALSE(
      Checkpoint::try_load(file.path, ckpt.fingerprint, 7, loaded, &reason));
  EXPECT_FALSE(reason.empty());
}

TEST(Checkpoint, TryLoadRejectsBitFlip) {
  const FileGuard file{temp_path("finser_ckpt_flip.bin")};
  const Checkpoint ckpt = sample_checkpoint();
  ASSERT_TRUE(ckpt.save(file.path));

  std::vector<std::uint8_t> raw;
  ASSERT_TRUE(util::read_file(file.path, raw, nullptr));
  raw[raw.size() / 2] ^= 0x01;
  ASSERT_TRUE(util::atomic_write_file(file.path, raw.data(), raw.size()));

  Checkpoint loaded;
  std::string reason;
  EXPECT_FALSE(
      Checkpoint::try_load(file.path, ckpt.fingerprint, 5, loaded, &reason));
  EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;
}

TEST(Checkpoint, TryLoadRejectsTruncation) {
  const FileGuard file{temp_path("finser_ckpt_trunc.bin")};
  const Checkpoint ckpt = sample_checkpoint();
  ASSERT_TRUE(ckpt.save(file.path));

  std::vector<std::uint8_t> raw;
  ASSERT_TRUE(util::read_file(file.path, raw, nullptr));
  raw.resize(raw.size() - 5);
  ASSERT_TRUE(util::atomic_write_file(file.path, raw.data(), raw.size()));

  Checkpoint loaded;
  EXPECT_FALSE(
      Checkpoint::try_load(file.path, ckpt.fingerprint, 5, loaded, nullptr));
}

TEST(Checkpoint, TryLoadRejectsBadMagic) {
  const FileGuard file{temp_path("finser_ckpt_magic.bin")};
  const std::string junk = "definitely not a checkpoint file";
  ASSERT_TRUE(util::atomic_write_file(file.path, junk.data(), junk.size()));

  Checkpoint loaded;
  std::string reason;
  EXPECT_FALSE(Checkpoint::try_load(file.path, 1, 5, loaded, &reason));
  EXPECT_FALSE(reason.empty());
}

TEST(Checkpoint, TryLoadMissingFileIsClean) {
  Checkpoint loaded;
  std::string reason;
  EXPECT_FALSE(Checkpoint::try_load(temp_path("finser_ckpt_missing.bin"), 1, 5,
                                    loaded, &reason));
  EXPECT_FALSE(reason.empty());
}

std::vector<std::uint8_t> unit_blob(std::size_t index) {
  return blob_of({static_cast<int>(index) + 1, 7});
}

TEST(RunUnits, ComputesEverythingWhenInactive) {
  const std::size_t threads = 2;
  std::atomic<std::size_t> computed{0};
  const UnitRunResult out =
      run_units(threads, 8, /*fingerprint=*/123, RunOptions{},
                [&](const exec::ChunkRange& u) {
                  ++computed;
                  return unit_blob(u.index);
                });
  EXPECT_EQ(computed.load(), 8u);
  EXPECT_EQ(out.reused, 0u);
  ASSERT_EQ(out.blobs.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out.blobs[i], unit_blob(i));
}

TEST(RunUnits, ResumesFromExistingCheckpoint) {
  const FileGuard file{temp_path("finser_ckpt_resume.bin")};
  constexpr std::uint64_t kFp = 9001;

  Checkpoint seed;
  seed.fingerprint = kFp;
  seed.blobs.resize(5);
  seed.blobs[0] = unit_blob(0);
  seed.blobs[3] = unit_blob(3);
  ASSERT_TRUE(seed.save(file.path));

  RunOptions run;
  run.checkpoint_path = file.path;
  run.checkpoint_interval_sec = 0.0;

  const std::size_t threads = 1;
  std::vector<std::size_t> computed;
  const UnitRunResult out =
      run_units(threads, 5, kFp, run, [&](const exec::ChunkRange& u) {
        computed.push_back(u.index);
        return unit_blob(u.index);
      });

  EXPECT_EQ(out.reused, 2u);
  EXPECT_EQ(computed, (std::vector<std::size_t>{1, 2, 4}));
  ASSERT_EQ(out.blobs.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(out.blobs[i], unit_blob(i));
  // A finished run leaves no checkpoint behind.
  EXPECT_FALSE(std::filesystem::exists(file.path));
}

TEST(RunUnits, DiscardsMismatchedCheckpoint) {
  const FileGuard file{temp_path("finser_ckpt_stale.bin")};

  Checkpoint stale;
  stale.fingerprint = 111;  // Saved under a different config.
  stale.blobs.resize(4);
  stale.blobs[0] = blob_of({99});
  ASSERT_TRUE(stale.save(file.path));

  RunOptions run;
  run.checkpoint_path = file.path;
  run.checkpoint_interval_sec = 0.0;

  const std::size_t threads = 1;
  std::atomic<std::size_t> computed{0};
  const UnitRunResult out =
      run_units(threads, 4, /*fingerprint=*/222, run,
                [&](const exec::ChunkRange& u) {
                  ++computed;
                  return unit_blob(u.index);
                });
  EXPECT_EQ(out.reused, 0u);
  EXPECT_EQ(computed.load(), 4u);
  EXPECT_EQ(out.blobs[0], unit_blob(0));
}

TEST(RunUnits, CancelFlushesCheckpointAndResumeCompletes) {
  const FileGuard file{temp_path("finser_ckpt_cancel.bin")};
  constexpr std::uint64_t kFp = 4242;
  constexpr std::size_t kUnits = 6;

  RunOptions run;
  run.checkpoint_path = file.path;
  run.checkpoint_interval_sec = 0.0;
  exec::CancelToken token;
  run.cancel = &token;

  const std::size_t threads = 1;
  std::size_t before_cancel = 0;
  try {
    run_units(threads, kUnits, kFp, run, [&](const exec::ChunkRange& u) {
      ++before_cancel;
      if (u.index == 1) token.cancel();  // Fire mid-run, at a unit boundary.
      return unit_blob(u.index);
    });
    FAIL() << "cancelled run_units must throw util::Cancelled";
  } catch (const util::Cancelled&) {
  }
  // With one thread, units 0 and 1 ran; the cancel stopped the rest, and the
  // final flush persisted exactly the finished units.
  EXPECT_EQ(before_cancel, 2u);
  Checkpoint persisted;
  std::string reason;
  ASSERT_TRUE(
      Checkpoint::try_load(file.path, kFp, kUnits, persisted, &reason))
      << reason;
  EXPECT_EQ(persisted.done_count(), 2u);

  // Resume without the cancel: only the missing units are recomputed and the
  // assembled blob set is identical to an uninterrupted run.
  run.cancel = nullptr;
  std::atomic<std::size_t> resumed{0};
  const UnitRunResult out =
      run_units(threads, kUnits, kFp, run, [&](const exec::ChunkRange& u) {
        ++resumed;
        return unit_blob(u.index);
      });
  EXPECT_EQ(out.reused, 2u);
  EXPECT_EQ(resumed.load(), kUnits - 2);
  for (std::size_t i = 0; i < kUnits; ++i) EXPECT_EQ(out.blobs[i], unit_blob(i));
  EXPECT_FALSE(std::filesystem::exists(file.path));
}

// ---------------------------------------------------------------------------
// Adaptive (CI-stopped) unit runner
// ---------------------------------------------------------------------------

TEST(RoundBoundaries, GeometricScheduleEndsAtUnitCount) {
  const AdaptiveSchedule sched{4, 2.0};
  EXPECT_EQ(round_boundaries(100, sched),
            (std::vector<std::size_t>{4, 8, 16, 32, 64, 100}));
  // Boundaries always make progress, even with growth 1.
  EXPECT_EQ(round_boundaries(4, AdaptiveSchedule{1, 1.0}),
            (std::vector<std::size_t>{1, 2, 3, 4}));
  // min_units above n collapses to a single round.
  EXPECT_EQ(round_boundaries(5, AdaptiveSchedule{8, 2.0}),
            (std::vector<std::size_t>{5}));
  // min_units 0 still starts at one unit.
  EXPECT_EQ(round_boundaries(3, AdaptiveSchedule{0, 3.0}),
            (std::vector<std::size_t>{1, 3}));
}

TEST(RunUnitsAdaptive, StopsAtFirstConvergedBoundary) {
  const std::size_t threads = 2;
  std::atomic<std::size_t> computed{0};
  const AdaptiveSchedule sched{2, 2.0};  // Boundaries 2, 4, 8, 12.
  const UnitRunResult out = run_units_adaptive(
      threads, 12, /*fingerprint=*/5, RunOptions{}, sched,
      [&](const exec::ChunkRange& u) {
        ++computed;
        return unit_blob(u.index);
      },
      [](std::size_t done, const std::vector<std::vector<std::uint8_t>>&) {
        return done >= 4;  // Converged at the second boundary.
      });
  EXPECT_TRUE(out.stopped_early);
  EXPECT_EQ(out.completed, 4u);
  EXPECT_EQ(computed.load(), 4u);  // Later rounds never ran.
  ASSERT_EQ(out.blobs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out.blobs[i], unit_blob(i));
}

TEST(RunUnitsAdaptive, NeverConvergedRunsEveryUnit) {
  const std::size_t threads = 2;
  const UnitRunResult out = run_units_adaptive(
      threads, 10, /*fingerprint=*/6, RunOptions{}, AdaptiveSchedule{2, 2.0},
      [](const exec::ChunkRange& u) { return unit_blob(u.index); },
      [](std::size_t, const std::vector<std::vector<std::uint8_t>>&) {
        return false;
      });
  EXPECT_FALSE(out.stopped_early);
  EXPECT_EQ(out.completed, 10u);
  ASSERT_EQ(out.blobs.size(), 10u);
}

TEST(RunUnitsAdaptive, PredicateSeesOnlyTheCompletedPrefixInOrder) {
  const std::size_t threads = 4;
  std::vector<std::size_t> decision_points;
  run_units_adaptive(
      threads, 20, /*fingerprint=*/7, RunOptions{}, AdaptiveSchedule{4, 2.0},
      [](const exec::ChunkRange& u) { return unit_blob(u.index); },
      [&](std::size_t done,
          const std::vector<std::vector<std::uint8_t>>& blobs) {
        decision_points.push_back(done);
        // The prefix [0, done) is fully populated with the right blobs and
        // everything beyond it is still empty — regardless of the thread
        // schedule that computed the round.
        for (std::size_t i = 0; i < done; ++i) {
          EXPECT_EQ(blobs[i], unit_blob(i)) << "unit " << i;
        }
        for (std::size_t i = done; i < blobs.size(); ++i) {
          EXPECT_TRUE(blobs[i].empty()) << "unit " << i;
        }
        return false;
      });
  // Final boundary (done == n_units) needs no decision.
  EXPECT_EQ(decision_points, (std::vector<std::size_t>{4, 8, 16}));
}

TEST(RunUnitsAdaptive, ResumeReplaysTheSameStoppingDecision) {
  // Kill-and-resume with early stopping enabled: a checkpoint taken
  // mid-round must resume to the *same* stopping boundary with the same
  // blobs — the stopping state is derived, not stored, so byte-identity of
  // the prefix is the whole contract.
  const FileGuard file{temp_path("finser_ckpt_adaptive_resume.bin")};
  constexpr std::uint64_t kFp = 777;
  constexpr std::size_t kUnits = 16;
  const AdaptiveSchedule sched{2, 2.0};  // Boundaries 2, 4, 8, 16.
  const auto converged =
      [](std::size_t done, const std::vector<std::vector<std::uint8_t>>&) {
        return done >= 8;
      };

  RunOptions run;
  run.checkpoint_path = file.path;
  run.checkpoint_interval_sec = 0.0;
  exec::CancelToken token;
  run.cancel = &token;

  const std::size_t threads = 1;
  try {
    run_units_adaptive(threads, kUnits, kFp, run, sched,
                       [&](const exec::ChunkRange& u) {
                         if (u.index == 5) token.cancel();  // Mid round 3.
                         return unit_blob(u.index);
                       },
                       converged);
    FAIL() << "cancelled run_units_adaptive must throw util::Cancelled";
  } catch (const util::Cancelled&) {
  }
  // The flushed checkpoint keeps one slot per *potential* unit, so a resumed
  // run can still schedule every remaining round.
  Checkpoint persisted;
  std::string reason;
  ASSERT_TRUE(Checkpoint::try_load(file.path, kFp, kUnits, persisted, &reason))
      << reason;
  EXPECT_GE(persisted.done_count(), 5u);
  EXPECT_LT(persisted.done_count(), 8u);

  run.cancel = nullptr;
  std::vector<std::size_t> recomputed;
  const UnitRunResult out = run_units_adaptive(
      threads, kUnits, kFp, run,
      sched,
      [&](const exec::ChunkRange& u) {
        recomputed.push_back(u.index);
        return unit_blob(u.index);
      },
      converged);
  EXPECT_TRUE(out.stopped_early);
  EXPECT_EQ(out.completed, 8u);
  ASSERT_EQ(out.blobs.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out.blobs[i], unit_blob(i));
  // Only the units the kill lost were recomputed, and none past the
  // stopping boundary.
  EXPECT_EQ(out.reused, persisted.done_count());
  for (std::size_t i : recomputed) EXPECT_LT(i, 8u);
  EXPECT_FALSE(std::filesystem::exists(file.path));
}

TEST(RunUnitsAdaptive, RequiresAPredicate) {
  const std::size_t threads = 1;
  EXPECT_THROW(
      run_units_adaptive(
          threads, 4, 1, RunOptions{}, AdaptiveSchedule{},
          [](const exec::ChunkRange& u) { return unit_blob(u.index); },
          ConvergedFn{}),
      util::InvalidArgument);
}

}  // namespace
}  // namespace finser::ckpt
