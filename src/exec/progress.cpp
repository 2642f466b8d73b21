#include "finser/exec/progress.hpp"

#include <atomic>
#include <mutex>

namespace finser::exec {

struct ProgressSink::State {
  MessageFn fn;
  std::chrono::milliseconds min_interval{250};

  std::mutex mutex;  // Guards fn, last_emit, label, total and done updates.
  std::chrono::steady_clock::time_point last_emit{};
  std::string label = "progress";
  std::uint64_t total = 0;

  std::atomic<std::uint64_t> done{0};

  std::string line(std::uint64_t n) const {
    if (total > 0) {
      return label + " " + std::to_string(n) + "/" + std::to_string(total);
    }
    return label + " " + std::to_string(n);
  }
};

ProgressSink::ProgressSink(MessageFn fn, std::chrono::milliseconds min_interval)
    : state_(fn ? std::make_shared<State>() : nullptr) {
  if (state_) {
    state_->fn = std::move(fn);
    state_->min_interval = min_interval;
  }
}

void ProgressSink::message(const std::string& m) const {
  if (!state_) return;
  std::lock_guard<std::mutex> lk(state_->mutex);
  state_->fn(m);
}

void ProgressSink::start_phase(const std::string& label,
                               std::uint64_t total) const {
  if (!state_) return;
  std::lock_guard<std::mutex> lk(state_->mutex);
  state_->label = label;
  state_->total = total;
  state_->done.store(0, std::memory_order_relaxed);
  state_->last_emit = std::chrono::steady_clock::now();
}

void ProgressSink::tick(std::uint64_t n) const {
  if (!state_) return;
  // Count and emit under one lock: a tick that counted earlier can never
  // print after the line of a tick that counted later, so the phase's
  // final "N/N" line is always the last one.
  std::lock_guard<std::mutex> lk(state_->mutex);
  const std::uint64_t done =
      state_->done.fetch_add(n, std::memory_order_relaxed) + n;

  // The final tick of a phase always reports; intermediate ticks are
  // throttled to one line per min_interval.
  const bool final_tick = state_->total > 0 && done >= state_->total;
  const auto now = std::chrono::steady_clock::now();
  if (!final_tick && now - state_->last_emit < state_->min_interval) return;
  state_->last_emit = now;
  state_->fn(state_->line(done));
}

std::uint64_t ProgressSink::completed() const {
  return state_ ? state_->done.load(std::memory_order_relaxed) : 0;
}

}  // namespace finser::exec
