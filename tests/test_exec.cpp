#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "finser/core/array_mc.hpp"
#include "finser/exec/exec.hpp"
#include "finser/exec/progress.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/error.hpp"

namespace finser::exec {
namespace {

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

TEST(ExecConfig, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ExecConfig, ExplicitRequestWins) {
  setenv("FINSER_THREADS", "7", 1);
  EXPECT_EQ(resolve_threads(3), 3u);
  unsetenv("FINSER_THREADS");
}

TEST(ExecConfig, EnvUsedWhenRequestIsAuto) {
  setenv("FINSER_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5u);
  unsetenv("FINSER_THREADS");
  EXPECT_EQ(resolve_threads(0), hardware_threads());
}

TEST(ExecConfig, MalformedEnvIsRejected) {
  for (const char* bad : {"0", "-2", "abc", "", "2.5", "3x"}) {
    setenv("FINSER_THREADS", bad, 1);
    EXPECT_EQ(threads_from_env(), 0u) << "value: \"" << bad << '"';
  }
  setenv("FINSER_THREADS", "4", 1);
  EXPECT_EQ(threads_from_env(), 4u);
  setenv("FINSER_THREADS", "4 ", 1);  // Trailing whitespace tolerated.
  EXPECT_EQ(threads_from_env(), 4u);
  unsetenv("FINSER_THREADS");
  EXPECT_EQ(threads_from_env(), 0u);
}

// ---------------------------------------------------------------------------
// ThreadPool: regions on the shared process-lifetime pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversEveryItemExactlyOnce) {
  const std::size_t n = 1237;  // Deliberately not a multiple of the chunk.
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(4, n, 64, [&](const ChunkRange& r) {
    EXPECT_LT(r.worker, 4u);
    for (std::size_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ChunkDecompositionIsThreadCountInvariant) {
  auto ranges_with = [](std::size_t threads) {
    std::mutex mu;
    std::vector<std::array<std::size_t, 3>> out;
    parallel_for_chunks(threads, 1000, 96, [&](const ChunkRange& r) {
      std::lock_guard<std::mutex> lock(mu);
      out.push_back({r.index, r.begin, r.end});
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(ranges_with(1), ranges_with(4));
}

TEST(ThreadPool, EmptyRegionIsNoOp) {
  bool called = false;
  parallel_for_chunks(3, 0, 16, [&](const ChunkRange&) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  parallel_for_chunks(1, 10, 3, [&](const ChunkRange& r) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(r.worker, 0u);
  });
}

TEST(ThreadPool, PropagatesFirstException) {
  EXPECT_THROW(parallel_for_chunks(4, 100, 1,
                                   [](const ChunkRange& r) {
                                     if (r.index == 17)
                                       throw std::runtime_error("chunk 17");
                                   }),
               std::runtime_error);
  // The pool survives the exception and runs subsequent regions.
  std::atomic<std::size_t> count{0};
  parallel_for_chunks(4, 50, 5, [&](const ChunkRange&) { ++count; });
  EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  std::atomic<long> sum{0};
  for (int round = 0; round < 20; ++round) {
    parallel_for_chunks(2, 100, 7, [&](const ChunkRange& r) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        sum.fetch_add(static_cast<long>(i));
      }
    });
  }
  EXPECT_EQ(sum.load(), 20L * (99L * 100L / 2L));
}

TEST(ThreadPool, NestedRegionFromInsideAChunkCompletes) {
  std::vector<std::atomic<int>> hits(8 * 100);
  parallel_for_chunks(4, 8, 1, [&](const ChunkRange& outer) {
    parallel_for_chunks(4, 100, 3, [&](const ChunkRange& inner) {
      EXPECT_LT(inner.worker, 4u);
      for (std::size_t i = inner.begin; i < inner.end; ++i) {
        hits[outer.index * 100 + i].fetch_add(1);
      }
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, TwoThreadsSubmitRegionsConcurrently) {
  std::atomic<long> sums[2] = {{0}, {0}};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < 25; ++round) {
        parallel_for_chunks(3, 200, 9, [&](const ChunkRange& r) {
          for (std::size_t i = r.begin; i < r.end; ++i) {
            sums[t].fetch_add(static_cast<long>(i));
          }
        });
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  for (const auto& sum : sums) EXPECT_EQ(sum.load(), 25L * (199L * 200L / 2L));
}

TEST(ThreadPool, NestedExceptionAndCancelReachTheirCaller) {
  // An exception in a nested region surfaces from that region's call and,
  // unhandled, aborts the outer region too.
  std::atomic<int> caught{0};
  parallel_for_chunks(4, 4, 1, [&](const ChunkRange&) {
    try {
      parallel_for_chunks(4, 50, 1, [](const ChunkRange& r) {
        if (r.index == 7) throw std::runtime_error("inner 7");
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
  });
  EXPECT_EQ(caught.load(), 4);
  EXPECT_THROW(parallel_for_chunks(4, 4, 1,
                                   [](const ChunkRange&) {
                                     parallel_for_chunks(
                                         4, 10, 1, [](const ChunkRange& r) {
                                           if (r.index == 3)
                                             throw std::logic_error("deep");
                                         });
                                   }),
               std::logic_error);

  // A cancel fired inside a nested region stops that region (its call
  // returns false) without disturbing the outer one.
  std::atomic<int> cancelled{0};
  parallel_for_chunks(4, 3, 1, [&](const ChunkRange&) {
    CancelToken token;
    const bool done = parallel_for_chunks(
        4, 1000, 1, [&](const ChunkRange&) { token.cancel(); }, &token);
    if (!done) ++cancelled;
  });
  EXPECT_EQ(cancelled.load(), 3);
}

TEST(ThreadPool, WorkerSlotIsUniqueAmongRunningChunks) {
  // Slots index per-worker scratch without locks: no two running chunks of
  // one region may share one, even while other regions run beside it.
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> submitters;
  std::atomic<bool> clash{false};
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&] {
      std::array<std::atomic<int>, kThreads> busy{};
      parallel_for_chunks(kThreads, 400, 1, [&](const ChunkRange& r) {
        ASSERT_LT(r.worker, kThreads);
        if (busy[r.worker].fetch_add(1) != 0) clash = true;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        busy[r.worker].fetch_sub(1);
      });
    });
  }
  for (std::thread& s : submitters) s.join();
  EXPECT_FALSE(clash.load());
}

TEST(ThreadPool, ReleasedChunksRunInReleaseOrder) {
  // Chunk k may run only after k releases; each chunk releases the next.
  std::atomic<std::size_t> done{0};
  parallel_for_released(
      4, 20, 1, [&](const ChunkRange& r, const Releaser& releaser) {
        EXPECT_EQ(done.load(), r.index);
        ++done;
        releaser.release();
      });
  EXPECT_EQ(done.load(), 20u);
  // A region that never releases its tail fails instead of hanging.
  EXPECT_THROW(parallel_for_released(4, 3, 1,
                                     [](const ChunkRange&, const Releaser&) {}),
               util::LogicError);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

TEST(CancelToken, SetResetHandshake) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // Idempotent.
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(ThreadPool, NullCancelTokenRunsEverything) {
  std::atomic<std::size_t> ran{0};
  const bool completed = parallel_for_chunks(
      3, 100, 4, [&](const ChunkRange&) { ++ran; }, nullptr);
  EXPECT_TRUE(completed);
  EXPECT_EQ(ran.load(), 25u);
}

TEST(ThreadPool, CancelStopsAtChunkBoundary) {
  CancelToken token;
  std::atomic<std::size_t> ran{0};
  const bool completed = parallel_for_chunks(
      4, 1000, 1,
      [&](const ChunkRange&) {
        ++ran;
        token.cancel();  // Fired from inside the first executing chunks.
      },
      &token);
  EXPECT_FALSE(completed);
  // Chunks already claimed still finish (no mid-chunk interruption), but the
  // region stops well short of the full 1000.
  EXPECT_GE(ran.load(), 1u);
  EXPECT_LT(ran.load(), 1000u);

  // An already-cancelled token stops the region before any chunk runs.
  std::atomic<std::size_t> ran2{0};
  EXPECT_FALSE(parallel_for_chunks(
      4, 100, 1, [&](const ChunkRange&) { ++ran2; }, &token));
  EXPECT_EQ(ran2.load(), 0u);

  // After a reset the same token runs a full region again.
  token.reset();
  std::atomic<std::size_t> ran3{0};
  EXPECT_TRUE(parallel_for_chunks(
      4, 100, 1, [&](const ChunkRange&) { ++ran3; }, &token));
  EXPECT_EQ(ran3.load(), 100u);
}

TEST(CancelToken, SignalHandlerRoutesSigintToToken) {
  CancelToken token;
  install_signal_cancel(&token);
  std::raise(SIGINT);
  EXPECT_TRUE(token.cancelled());
  // Restore the default disposition before the token leaves scope.
  install_signal_cancel(nullptr);
}

TEST(CancelToken, SignalFanoutForwardsSigtermToRegisteredChildren) {
  // The supervisor registers worker pids so one Ctrl-C stops the whole
  // fleet. Fork a child with default SIGTERM disposition, register it, and
  // check the forwarded signal kills it.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (;;) ::pause();  // Waits for the fan-out SIGTERM.
  }

  CancelToken token;
  install_signal_cancel(&token);
  ASSERT_TRUE(signal_fanout_add(static_cast<int>(child)));
  EXPECT_TRUE(signal_fanout_add(static_cast<int>(child)));  // Idempotent.
  EXPECT_FALSE(signal_fanout_add(0));  // Pid 0 would signal our own group.

  std::raise(SIGTERM);
  EXPECT_TRUE(token.cancelled());
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  // Remove frees the slot; a later signal must not touch the stale pid.
  signal_fanout_remove(static_cast<int>(child));
  token.reset();
  std::raise(SIGTERM);
  EXPECT_TRUE(token.cancelled());
  install_signal_cancel(nullptr);
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

TEST(Reduce, PairwiseMatchesFold) {
  std::vector<double> parts(13);
  std::iota(parts.begin(), parts.end(), 1.0);
  const double got =
      reduce_pairwise(parts, [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(got, 13.0 * 14.0 / 2.0);
  EXPECT_THROW(reduce_pairwise(std::vector<double>{},
                               [](double a, double b) { return a + b; }),
               util::InvalidArgument);
}

TEST(Reduce, ParallelReduceSumsItems) {
  const auto got = parallel_reduce<long>(
      4, 5000, 128,
      [](const ChunkRange& r) {
        long s = 0;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          s += static_cast<long>(i);
        }
        return s;
      },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(got, 4999L * 5000L / 2L);
  EXPECT_THROW((parallel_reduce<long>(
                   4, 0, 16, [](const ChunkRange&) { return 0L; },
                   [](long a, long b) { return a + b; })),
               util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Deterministic RNG streams
// ---------------------------------------------------------------------------

TEST(RngStream, SameStreamIdReproduces) {
  stats::Rng a = stats::Rng::stream(42, 7);
  stats::Rng b = stats::Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngStream, DistinctStreamsAndRootsDiffer) {
  std::set<std::uint64_t> firsts;
  for (std::uint64_t id = 0; id < 256; ++id) {
    firsts.insert(stats::Rng::stream(42, id)());
  }
  EXPECT_EQ(firsts.size(), 256u);  // No collisions across stream ids.
  EXPECT_NE(stats::Rng::stream(1, 0)(),
            stats::Rng::stream(2, 0)());
  EXPECT_EQ(stats::Rng::derive_seed(9, 3), stats::Rng::derive_seed(9, 3));
  EXPECT_NE(stats::Rng::derive_seed(9, 3), stats::Rng::derive_seed(9, 4));
}

// ---------------------------------------------------------------------------
// ProgressSink
// ---------------------------------------------------------------------------

TEST(Progress, DisabledSinkIsNoOp) {
  const ProgressSink sink;
  EXPECT_FALSE(static_cast<bool>(sink));
  sink.message("ignored");
  sink.start_phase("x", 10);
  sink.tick(10);
  EXPECT_EQ(sink.completed(), 0u);
}

TEST(Progress, CountsTicksFromManyThreads) {
  std::vector<std::string> lines;
  std::mutex mu;
  const ProgressSink sink(
      [&](const std::string& m) {
        std::lock_guard<std::mutex> lock(mu);
        lines.push_back(m);
      },
      std::chrono::milliseconds(0));
  sink.start_phase("strikes", 1000);
  parallel_for_chunks(4, 1000, 10,
                      [&](const ChunkRange& r) { sink.tick(r.end - r.begin); });
  EXPECT_EQ(sink.completed(), 1000u);
  // The final line is always emitted, whatever the throttle swallowed.
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("1000/1000"), std::string::npos);
}

TEST(Progress, ThrottleSuppressesFloodButKeepsFinalTick) {
  int calls = 0;
  const ProgressSink sink([&](const std::string&) { ++calls; },
                          std::chrono::milliseconds(10000));
  sink.start_phase("work", 500);
  for (int i = 0; i < 500; ++i) sink.tick();
  // First emission plus the guaranteed final one at most.
  EXPECT_LE(calls, 2);
  EXPECT_GE(calls, 1);
  EXPECT_EQ(sink.completed(), 500u);
}

TEST(Progress, MessageNeverThrottled) {
  int calls = 0;
  const ProgressSink sink([&](const std::string&) { ++calls; },
                          std::chrono::milliseconds(10000));
  for (int i = 0; i < 5; ++i) sink.message("m");
  EXPECT_EQ(calls, 5);
}

TEST(Progress, ImplicitFromLambdaKeepsCallSitesWorking) {
  std::string got;
  const ProgressSink sink = [&](const std::string& m) { got = m; };
  EXPECT_TRUE(static_cast<bool>(sink));
  sink.message("hello");
  EXPECT_EQ(got, "hello");
}

// ---------------------------------------------------------------------------
// PofAccumulator: merged chunks must reproduce the single-pass statistics
// ---------------------------------------------------------------------------

TEST(PofAccumulator, MergedChunksEqualSinglePass) {
  stats::Rng rng(123);
  std::vector<core::CombinedPof> obs(4097);
  for (auto& o : obs) {
    o.tot = rng.uniform(0.0, 1.0);
    o.seu = 0.8 * o.tot;
    o.mbu = o.tot - o.seu;
  }

  core::PofAccumulator single;
  for (const auto& o : obs) {
    single.add(o);
    single.add_multiplicity(o.tot > 0.5 ? 2 : 1, o.tot);
  }

  // Chunked accumulation with an uneven tail, merged pairwise.
  const std::size_t chunk = 256;
  std::vector<core::PofAccumulator> parts;
  for (std::size_t b = 0; b < obs.size(); b += chunk) {
    core::PofAccumulator acc;
    for (std::size_t i = b; i < std::min(b + chunk, obs.size()); ++i) {
      acc.add(obs[i]);
      acc.add_multiplicity(obs[i].tot > 0.5 ? 2 : 1, obs[i].tot);
    }
    parts.push_back(acc);
  }
  const core::PofAccumulator merged = reduce_pairwise(
      parts, [](core::PofAccumulator a, const core::PofAccumulator& b) {
        a.merge(b);
        return a;
      });

  EXPECT_EQ(merged.count(), single.count());
  const core::PofEstimate es = single.finalize(obs.size(), 1.0);
  const core::PofEstimate em = merged.finalize(obs.size(), 1.0);
  // The Chan merge is exact for counts and near-exact for mean/M2; allow a
  // few ulps of reassociation noise.
  EXPECT_NEAR(em.tot, es.tot, 1e-13);
  EXPECT_NEAR(em.seu, es.seu, 1e-13);
  EXPECT_NEAR(em.mbu, es.mbu, 1e-13);
  EXPECT_NEAR(em.tot_se, es.tot_se, 1e-13);
  EXPECT_NEAR(em.seu_se, es.seu_se, 1e-13);
  EXPECT_NEAR(em.mbu_se, es.mbu_se, 1e-13);
  for (std::size_t n = 0; n < core::kMaxMultiplicity; ++n) {
    EXPECT_NEAR(em.multiplicity[n], es.multiplicity[n], 1e-13) << n;
  }
}

// --- adaptive rounds (the CI-stopping driver of the array engines) ---------

/// Units as index lists: merging concatenates, so a reduction spells out
/// exactly which units it covers, in order.
using Units = std::vector<std::size_t>;

Units merge_units(Units a, Units b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

Units iota_units(std::size_t n) {
  Units out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

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
  std::atomic<std::size_t> computed{0};
  const AdaptiveSchedule sched{2, 2.0};  // Boundaries 2, 4, 8, 12.
  const AdaptiveReduction<Units> out = run_units_adaptive<Units>(
      2, 12, sched,
      [&](const ChunkRange& u) {
        ++computed;
        return Units{u.index};
      },
      merge_units,
      [](const Units& prefix) { return prefix.size() >= 4; });
  EXPECT_TRUE(out.stopped_early);
  EXPECT_EQ(out.completed, 4u);
  EXPECT_EQ(computed.load(), 4u);  // Later rounds never ran.
  EXPECT_EQ(out.total, iota_units(4));
}

TEST(RunUnitsAdaptive, NeverConvergedRunsEveryUnit) {
  const AdaptiveReduction<Units> out = run_units_adaptive<Units>(
      2, 10, AdaptiveSchedule{2, 2.0},
      [](const ChunkRange& u) { return Units{u.index}; }, merge_units,
      [](const Units&) { return false; });
  EXPECT_FALSE(out.stopped_early);
  EXPECT_EQ(out.completed, 10u);
  EXPECT_EQ(out.total, iota_units(10));
}

TEST(RunUnitsAdaptive, PredicateSeesOnlyTheCompletedPrefixInOrder) {
  std::vector<std::size_t> decision_points;
  run_units_adaptive<Units>(
      4, 20, AdaptiveSchedule{4, 2.0},
      [](const ChunkRange& u) {
        // Each unit is one item at its global index, whatever the round.
        EXPECT_EQ(u.begin, u.index);
        EXPECT_EQ(u.end, u.index + 1);
        return Units{u.index};
      },
      merge_units,
      [&](const Units& prefix) {
        // The prefix [0, done) in index order and nothing beyond it —
        // regardless of the thread schedule that computed the round.
        decision_points.push_back(prefix.size());
        EXPECT_EQ(prefix, iota_units(prefix.size()));
        return false;
      });
  // Final boundary (done == n_units) needs no decision.
  EXPECT_EQ(decision_points, (std::vector<std::size_t>{4, 8, 16}));
}

TEST(RunUnitsAdaptive, RequiresAPredicate) {
  EXPECT_THROW(run_units_adaptive<Units>(
                   1, 4, AdaptiveSchedule{},
                   [](const ChunkRange& u) { return Units{u.index}; },
                   merge_units, std::function<bool(const Units&)>{}),
               util::InvalidArgument);
}

TEST(RunUnitsAdaptive, CancelThrowsAtARoundBoundary) {
  CancelToken token;
  std::atomic<std::size_t> computed{0};
  EXPECT_THROW(run_units_adaptive<Units>(
                   1, 16, AdaptiveSchedule{2, 2.0},
                   [&](const ChunkRange& u) {
                     if (++computed == 3) token.cancel();
                     return Units{u.index};
                   },
                   merge_units, [](const Units&) { return false; }, &token),
               util::Cancelled);
  EXPECT_LT(computed.load(), 16u);
}

}  // namespace
}  // namespace finser::exec
