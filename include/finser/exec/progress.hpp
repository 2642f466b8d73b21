#pragma once
/// \file progress.hpp
/// \brief Thread-safe, rate-limited progress reporting for the MC engines.
///
/// ProgressSink replaces the old single-threaded string-callback progress
/// hook: work units are counted and lines emitted under one mutex, so lines
/// appear in count order, throttled (tick floods from thousands of parallel
/// chunks collapse into one line every `min_interval`), and the sink is a
/// cheap shared-state handle, so engines can pass it by value into worker
/// lambdas. A default-constructed sink is disabled and every call on it is a
/// no-op, which keeps engine code free of null checks.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

namespace finser::exec {

/// Shared-state progress handle (copy = same sink).
class ProgressSink {
 public:
  using MessageFn = std::function<void(const std::string&)>;

  /// Disabled sink: all calls are no-ops.
  ProgressSink() = default;

  /// Sink forwarding to \p fn, throttled to one tick line per
  /// \p min_interval. message() is never throttled.
  ProgressSink(MessageFn fn, std::chrono::milliseconds min_interval);

  /// Convenience: any callable taking `const std::string&`, default
  /// throttle (250 ms). Implicit so existing lambda call sites keep working.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ProgressSink> &&
                std::is_invocable_v<F&, const std::string&>>>
  ProgressSink(F&& fn)  // NOLINT(google-explicit-constructor)
      : ProgressSink(MessageFn(std::forward<F>(fn)),
                     std::chrono::milliseconds(250)) {}

  /// True when the sink forwards anywhere (lets callers skip building
  /// expensive strings for a disabled sink).
  explicit operator bool() const { return state_ != nullptr; }

  /// Emit one message unconditionally (thread-safe, not rate-limited).
  void message(const std::string& m) const;

  /// Begin a counted phase: resets the tick counter and names the lines
  /// tick() emits ("label 1234/40000").
  void start_phase(const std::string& label, std::uint64_t total) const;

  /// Count \p n finished work units; emits a rate-limited progress line, and
  /// always emits the final line when the phase total is reached.
  void tick(std::uint64_t n = 1) const;

  /// Work units counted since the last start_phase().
  std::uint64_t completed() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace finser::exec
