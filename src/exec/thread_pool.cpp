#include "finser/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "finser/exec/exec.hpp"
#include "finser/obs/obs.hpp"

namespace finser::exec {

namespace detail {

/// One parallel region. Lives on its owner's stack; the pool only points at
/// it while it is registered.
struct Region {
  Region(const ChunkFn& f, const CancelToken* c, std::size_t items,
         std::size_t chunk_size, std::size_t threads_requested)
      : fn(&f),
        cancel(c),
        n_items(items),
        chunk(chunk_size),
        n_chunks((items + chunk_size - 1) / chunk_size),
        threads(std::min(resolve_threads(threads_requested), n_chunks)),
        released(n_chunks) {}

  const ChunkFn* fn;
  const CancelToken* cancel;
  const std::size_t n_items;
  const std::size_t chunk;
  const std::size_t n_chunks;
  const std::size_t threads;  // Participant cap, owner included.

  std::atomic<std::size_t> next{0};  // Next chunk index to claim.
  std::atomic<std::size_t> released;  // Chunks below this may be claimed.
  std::atomic<std::size_t> executed{0};
  std::atomic<std::uint64_t> cancel_seen_ns{0};  // now_ns() at first detection.

  std::mutex error_m;
  std::exception_ptr error;

  // Guarded by the pool mutex.
  std::size_t helpers = 0;               // Pool threads inside run_chunks.
  std::vector<std::uint8_t> slot_taken;  // Helper slots [1, threads).
  std::condition_variable owner_cv;

  bool claimable() const {
    return next.load(std::memory_order_relaxed) <
           released.load(std::memory_order_acquire);
  }

  /// Stop handing out chunks (error or cancel): claims fail from now on.
  void drain() { next.store(n_chunks, std::memory_order_relaxed); }

  bool try_claim(std::size_t& i) {
    std::size_t cur = next.load(std::memory_order_relaxed);
    while (cur < released.load(std::memory_order_acquire)) {
      if (next.compare_exchange_weak(cur, cur + 1,
                                     std::memory_order_relaxed)) {
        i = cur;
        return true;
      }
    }
    return false;
  }

  /// Claim and execute chunks until none is claimable. Any schedule is
  /// fine: chunk indices, not threads, key the deterministic state. The
  /// cancel token is polled only here, between chunks, so a chunk either
  /// runs to completion or never starts.
  void run_chunks(std::size_t slot) {
    for (;;) {
      if (cancel != nullptr && cancel->cancelled()) {
        if (obs::enabled()) {
          std::uint64_t expect = 0;
          cancel_seen_ns.compare_exchange_strong(expect, obs::now_ns(),
                                                 std::memory_order_relaxed);
        }
        drain();
        return;
      }
      std::size_t i = 0;
      if (!try_claim(i)) return;
      const ChunkRange r{i, i * chunk, std::min(n_items, (i + 1) * chunk),
                         slot};
      try {
        obs::ScopedSpan span("exec.chunk");
        (*fn)(r);
        executed.fetch_add(1, std::memory_order_relaxed);
        FINSER_OBS_COUNT("exec.chunks", 1);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_m);
          if (!error) error = std::current_exception();
        }
        // Fail fast instead of finishing a region whose result is lost.
        drain();
      }
    }
  }
};

/// The process-lifetime pool: a set of parked threads plus the list of
/// regions they may help. Destroyed at exit, when every region has drained.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Share \p r with the pool, run it on the calling thread as slot 0, and
  /// return once it is drained and no pool thread is inside it.
  void run(Region& r) {
    {
      std::lock_guard<std::mutex> lk(m_);
      while (threads_.size() + 1 < r.threads) {
        threads_.emplace_back([this] { worker_main(); });
      }
      r.slot_taken.assign(r.threads, 0);
      active_.push_back(&r);
    }
    work_cv_.notify_all();

    // The owner helps only its own region — which keeps the region's slot
    // bookkeeping local and makes nested waits deadlock-free: every region
    // can always be finished by its owner alone.
    std::unique_lock<std::mutex> lk(m_, std::defer_lock);
    for (;;) {
      r.run_chunks(0);
      lk.lock();
      r.owner_cv.wait(lk, [&] { return r.claimable() || r.helpers == 0; });
      if (!r.claimable()) break;
      lk.unlock();
    }
    active_.erase(std::find(active_.begin(), active_.end(), &r));
  }

  void release(Region& r, std::size_t n) {
    {
      std::lock_guard<std::mutex> lk(m_);
      r.released.store(
          std::min(r.n_chunks, r.released.load(std::memory_order_relaxed) + n),
          std::memory_order_release);
      r.owner_cv.notify_one();
    }
    work_cv_.notify_all();
  }

 private:
  Pool() = default;

  /// Oldest registered region with a claimable chunk and a free slot.
  Region* pick_locked() const {
    for (Region* r : active_) {
      if (r->helpers + 1 < r->threads && r->claimable()) return r;
    }
    return nullptr;
  }

  void worker_main() {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      Region* r = nullptr;
      work_cv_.wait(lk, [&] {
        r = pick_locked();
        return stop_ || r != nullptr;
      });
      if (stop_) return;
      std::size_t slot = 1;
      while (r->slot_taken[slot] != 0) ++slot;
      r->slot_taken[slot] = 1;
      ++r->helpers;
      lk.unlock();
      r->run_chunks(slot);
      lk.lock();
      r->slot_taken[slot] = 0;
      if (--r->helpers == 0) r->owner_cv.notify_one();
    }
  }

  std::mutex m_;
  std::condition_variable work_cv_;
  std::vector<Region*> active_;  // Registration order: oldest first.
  bool stop_ = false;
  std::vector<std::thread> threads_;  // Last: the workers use the above.
};

}  // namespace detail

namespace {

/// Run \p r to completion: inline when it cannot use a second thread, else
/// shared with the pool. Rethrows the region's first exception; returns
/// true iff every chunk executed (false: cancelled).
bool run_region(detail::Region& r) {
  obs::ScopedSpan region_span("exec.region");
  FINSER_OBS_COUNT("exec.regions", 1);
  FINSER_OBS_COUNT("exec.items", r.n_items);
  FINSER_OBS_GAUGE("exec.region_chunks", r.n_chunks);

  if (r.threads > 1 && r.n_chunks > 1) {
    detail::Pool::instance().run(r);
  } else {
    r.run_chunks(0);
  }
  if (r.error) std::rethrow_exception(r.error);
  const std::size_t unclaimed =
      r.n_chunks - r.next.load(std::memory_order_relaxed);
  if (unclaimed > 0) {
    throw util::LogicError("exec: region stalled with " +
                           std::to_string(unclaimed) +
                           " chunk(s) never released");
  }

  const std::size_t executed = r.executed.load(std::memory_order_relaxed);
  if (executed != r.n_chunks) {
    FINSER_OBS_COUNT("exec.cancelled_regions", 1);
    if (obs::enabled()) {
      // Latency from the first participant noticing the cancel to the
      // region fully draining (helpers gone, caller unblocked).
      const std::uint64_t seen =
          r.cancel_seen_ns.load(std::memory_order_relaxed);
      if (seen != 0) {
        const std::uint64_t end = obs::now_ns();
        static obs::DurationStat& latency =
            obs::Registry::global().duration("exec.cancel_latency");
        latency.record_ns(end > seen ? end - seen : 0);
      }
    }
  }
  return executed == r.n_chunks;
}

}  // namespace

void Releaser::release(std::size_t n) const {
  detail::Pool::instance().release(*region_, n);
}

bool parallel_for_chunks(std::size_t threads, std::size_t n_items,
                         std::size_t chunk, const ChunkFn& fn,
                         const CancelToken* cancel) {
  FINSER_REQUIRE(chunk > 0, "parallel_for_chunks: chunk size must be positive");
  if (n_items == 0) return true;
  detail::Region r(fn, cancel, n_items, chunk, threads);
  return run_region(r);
}

void parallel_for_released(
    std::size_t threads, std::size_t n_chunks, std::size_t released,
    const std::function<void(const ChunkRange&, const Releaser&)>& fn) {
  FINSER_REQUIRE(released <= n_chunks,
                 "parallel_for_released: more chunks released than exist");
  if (n_chunks == 0) return;
  ChunkFn body;
  detail::Region r(body, nullptr, n_chunks, 1, threads);
  r.released.store(released, std::memory_order_relaxed);
  const Releaser releaser(r);
  body = [&](const ChunkRange& c) { fn(c, releaser); };
  run_region(r);
}

std::vector<std::size_t> round_boundaries(std::size_t n_units,
                                          const AdaptiveSchedule& schedule) {
  FINSER_REQUIRE(n_units > 0, "round_boundaries: no work units");
  FINSER_REQUIRE(schedule.growth >= 1.0,
                 "round_boundaries: growth must be >= 1");
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

}  // namespace finser::exec
