/// \file serve.cpp
/// \brief NDJSON serve loop: inline hits, background refinement of miss
/// batches, backpressure, drain.

#include "finser/surface/serve.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <string_view>
#include <thread>
#include <utility>

#include "finser/obs/obs.hpp"
#include "finser/util/error.hpp"
#include "finser/util/json.hpp"

namespace finser::surface {

namespace {

/// The member \p key of object \p obj, or nullptr when absent.
const util::JsonValue* field(const util::JsonValue& obj, std::string_view key) {
  for (const auto& [k, v] : obj.items()) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool is_finite_number(const util::JsonValue* v) {
  if (v == nullptr || !v->is_number()) return false;
  const double d = v->as_double();
  return d == d && d - d == 0.0;  // finite: not NaN, not ±inf
}

struct Request {
  util::JsonValue id;
  bool has_id = false;
  std::string op;  ///< "fit" or "pof".
  std::string scenario;
  std::string species;
  double vdd = 0.0;
  double energy_mev = 0.0;
  bool with_pv = true;
};

/// A reply carrying the request's id (when it had one) and \p status.
util::JsonValue reply(const Request& q, const char* status) {
  util::JsonValue r = util::JsonValue::object();
  if (q.has_id) r["id"] = q.id;
  r["status"] = status;
  return r;
}

util::JsonValue failure(const Request& q, const char* status,
                        std::string reason) {
  util::JsonValue r = reply(q, status);
  r["reason"] = std::move(reason);
  return r;
}

/// The `ok` reply to \p q, read off surface \p s. Written straight into one
/// string rather than built as a util::JsonValue and dumped: the same keys
/// in the same order and the same bytes, at a fraction of the cost, since
/// formatting the reply is most of what a cache hit costs.
std::string answer(const Request& q, const ResponseSurface& s) {
  std::string r;
  r.reserve(384);
  const auto number = [&r](const char* key, double v) {
    r += key;
    util::append_json_double(r, v);
  };
  const auto flag = [&r](const char* key, bool b) {
    r += key;
    r += b ? "true" : "false";
  };
  r += '{';
  if (q.has_id) {
    r += "\"id\":";
    r += q.id.dump();  // any JSON value
    r += ',';
  }
  r += "\"status\":\"ok\",\"op\":";
  util::append_json_string(r, q.op);
  r += ",\"scenario\":";
  util::append_json_string(r, q.scenario);
  r += ",\"species\":";
  util::append_json_string(r, q.species);
  number(",\"vdd\":", q.vdd);
  if (q.op == "pof") {
    number(",\"energy_mev\":", q.energy_mev);
    flag(",\"with_pv\":", q.with_pv);
    flag(",\"grid_point\":",
         s.is_grid_vdd(q.vdd) && s.is_grid_energy(q.energy_mev));
    const PofSample p = s.pof(q.vdd, q.energy_mev, q.with_pv);
    number(",\"pof_tot\":", p.tot);
    number(",\"pof_seu\":", p.seu);
    number(",\"pof_mbu\":", p.mbu);
    number(",\"pof_tot_se\":", p.tot_se);
  } else {
    flag(",\"with_pv\":", q.with_pv);
    flag(",\"grid_point\":", s.is_grid_vdd(q.vdd));
    const FitSample f = s.fit(q.vdd, q.with_pv);
    number(",\"fit_tot\":", f.tot);
    number(",\"fit_seu\":", f.seu);
    number(",\"fit_mbu\":", f.mbu);
  }
  r += '}';
  FINSER_OBS_COUNT("serve.ok", 1);
  return r;
}

/// The reply stream, shared by the loop and the refiner thread: each reply
/// line is written whole under one mutex.
class Replies {
 public:
  explicit Replies(std::ostream& out) : out_(out) {}

  void write(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mu_);
    out_ << line << '\n';
  }

  /// A degraded reply (error, shed, cancelled): written, and remembered for
  /// the exit code.
  void degraded(const util::JsonValue& r) {
    write(r.dump());
    degraded_.store(true, std::memory_order_relaxed);
  }

  void flush() {
    const std::lock_guard<std::mutex> lock(mu_);
    out_.flush();
  }

  bool any_degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::ostream& out_;
  std::atomic<bool> degraded_{false};
};

/// Resolves miss batches in FIFO order on one plain thread, started by the
/// first batch and joined when the session ends, so at most one refinement
/// is in flight. Not a pool thread: a refinement submits its own regions to
/// the shared exec pool, and parking it on a pool worker would take that
/// worker away from them.
class Refiner {
 public:
  Refiner(const ServeSession::LookupFn& lookup,
          const ServeSession::RefineFn& refine,
          const exec::CancelToken* cancel, Replies& replies)
      : lookup_(lookup), refine_(refine), cancel_(cancel), replies_(replies) {}

  ~Refiner() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  Refiner(const Refiner&) = delete;
  Refiner& operator=(const Refiner&) = delete;

  /// Queue \p batch (non-empty) for resolution and return at once.
  void submit(std::vector<Request> batch) {
    FINSER_OBS_COUNT("serve.batches", 1);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      outstanding_ += batch.size();
      queue_.push_back(Batch{std::move(batch), obs::now_ns()});
      if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
    }
    cv_.notify_all();
  }

  /// Misses queued or in flight.
  std::size_t outstanding() {
    const std::lock_guard<std::mutex> lock(mu_);
    return outstanding_;
  }

  /// Block until no batch is queued or in flight.
  void settle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

 private:
  struct Batch {
    std::vector<Request> misses;
    std::uint64_t handed_ns = 0;  ///< obs::now_ns() at hand-off.
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped, nothing left
      Batch batch = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      resolve(batch);
      replies_.flush();
      lock.lock();
      outstanding_ -= batch.misses.size();
      cv_.notify_all();
    }
  }

  void resolve(const Batch& batch) {
    bool cache_only = false;
    for (const Request& q : batch.misses) {
      // Nothing may escape this thread: a failure is the request's reply.
      try {
        resolve_one(q, cache_only);
      } catch (const std::exception& e) {
        replies_.degraded(failure(
            q, "error", std::string("refinement failed: ") + e.what()));
        FINSER_OBS_COUNT("serve.errors", 1);
      }
      FINSER_OBS_RECORD("serve.miss_wait_ms",
                        (obs::now_ns() - batch.handed_ns) / 1000000);
    }
  }

  /// Answer one miss; \p cache_only turns on (for the rest of the batch)
  /// once the drain has begun.
  void resolve_one(const Request& q, bool& cache_only) {
    // A batch queued behind a refinement may be answerable by now.
    const ResponseSurface* s =
        lookup_ ? lookup_(q.scenario, q.species) : nullptr;
    if (s != nullptr) FINSER_OBS_COUNT("serve.cache_hits", 1);
    if (s == nullptr && !cache_only) {
      if (cancel_ != nullptr && cancel_->cancelled()) {
        cache_only = true;  // drain: no new simulations past this point
      } else {
        try {
          FINSER_OBS_COUNT("serve.refines", 1);
          const std::uint64_t t0 = obs::now_ns();
          s = refine_(q.scenario, q.species);
          FINSER_OBS_RECORD("serve.refine_ms", (obs::now_ns() - t0) / 1000000);
        } catch (const util::Cancelled&) {
          cache_only = true;
        }
      }
    }
    if (s == nullptr) {
      // Cache miss during a cache-only drain: the request is answered with
      // an explicit `cancelled` status rather than silently dropped.
      replies_.degraded(
          failure(q, "cancelled", "draining: refinement not started"));
      FINSER_OBS_COUNT("serve.cancelled", 1);
      return;
    }
    replies_.write(answer(q, *s));
  }

  const ServeSession::LookupFn& lookup_;
  const ServeSession::RefineFn& refine_;
  const exec::CancelToken* cancel_;
  Replies& replies_;

  std::mutex mu_;
  std::condition_variable cv_;  ///< Queue non-empty / stop / outstanding_ 0.
  std::deque<Batch> queue_;
  std::size_t outstanding_ = 0;  ///< Misses queued or being resolved.
  bool stop_ = false;
  std::thread thread_;  ///< Last: the loop uses the members above.
};

}  // namespace

ServeSession::ServeSession(std::vector<ServeScenario> catalog,
                           ServeConfig config, LookupFn lookup, RefineFn refine,
                           const exec::CancelToken* cancel)
    : catalog_(std::move(catalog)),
      config_(std::move(config)),
      lookup_(std::move(lookup)),
      refine_(std::move(refine)),
      cancel_(cancel) {
  FINSER_REQUIRE(!catalog_.empty(), "serve: empty scenario catalog");
  FINSER_REQUIRE(config_.max_pending > 0, "serve: max_pending must be >= 1");
}

int ServeSession::run(std::istream& in, std::ostream& out) {
  Replies replies(out);
  Refiner refiner(lookup_, refine_, cancel_, replies);
  std::vector<Request> pending;  // misses parsed since the last boundary
  const auto hand_off = [&] {
    if (pending.empty()) return;
    refiner.submit(std::move(pending));
    pending.clear();
  };
  // Wait for every miss received so far to be answered.
  const auto settle = [&] {
    hand_off();
    refiner.settle();
  };

  std::string line;
  bool shutdown = false;
  while (!shutdown) {
    if (cancel_ != nullptr && cancel_->cancelled()) break;
    // About to block on input? Hand this burst's misses to the refiner as
    // one batch, so a burst costs one refinement pass while a lone request
    // never waits, and push out the replies answered inline.
    if (in.rdbuf()->in_avail() <= 0) {
      hand_off();
      replies.flush();
    }
    if (!std::getline(in, line)) break;  // EOF, or EINTR after a signal
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    FINSER_OBS_COUNT("serve.requests", 1);
    // serve.hit_us spans parse to reply for each inline hit: the clock is
    // read only while collecting, twice per hit.
    const std::uint64_t parse_ns = obs::enabled() ? obs::now_ns() : 0;
    Request q;
    util::JsonValue req;
    try {
      req = util::JsonValue::parse(line);
      FINSER_REQUIRE(req.is_object(), "request must be a JSON object");
    } catch (const std::exception& e) {
      replies.degraded(
          failure(q, "error", std::string("bad request: ") + e.what()));
      FINSER_OBS_COUNT("serve.errors", 1);
      continue;
    }

    if (const util::JsonValue* id = field(req, "id")) {
      q.has_id = true;
      q.id = *id;
    }
    const util::JsonValue* const op_field = field(req, "op");
    const std::string op = op_field != nullptr && op_field->is_string()
                               ? op_field->as_string()
                               : std::string();

    if (op == "shutdown") {
      settle();
      util::JsonValue r = reply(q, "ok");
      r["op"] = "shutdown";
      replies.write(r.dump());
      shutdown = true;
      continue;
    }
    if (op == "stats") {
      // Settle first so the metrics reflect every request received so far.
      settle();
      util::JsonValue r = reply(q, "ok");
      r["op"] = "stats";
      const obs::Snapshot snap = obs::Registry::global().snapshot();
      util::JsonValue counters = util::JsonValue::object();
      for (const auto& row : snap.counters) counters[row.name] = row.total;
      util::JsonValue histograms = util::JsonValue::object();
      for (const auto& row : snap.histograms) {
        util::JsonValue h = util::JsonValue::object();
        h["count"] = row.count;
        h["sum"] = row.sum;
        h["min"] = row.min;
        h["max"] = row.max;
        histograms[row.name] = std::move(h);
      }
      r["counters"] = std::move(counters);
      r["histograms"] = std::move(histograms);
      replies.write(r.dump());
      continue;
    }

    // Query ops: validate against the catalog before answering or queueing.
    const auto reject = [&](std::string reason) {
      replies.degraded(failure(q, "error", std::move(reason)));
      FINSER_OBS_COUNT("serve.errors", 1);
    };
    if (op != "fit" && op != "pof") {
      reject("unknown op (expected fit|pof|stats|shutdown)");
      continue;
    }
    q.op = op;
    const util::JsonValue* const scenario = field(req, "scenario");
    q.scenario = scenario != nullptr && scenario->is_string()
                     ? scenario->as_string()
                     : catalog_.front().name;
    const ServeScenario* scen = nullptr;
    for (const ServeScenario& c : catalog_) {
      if (c.name == q.scenario) scen = &c;
    }
    if (scen == nullptr) {
      reject("unknown scenario: " + q.scenario);
      continue;
    }
    const util::JsonValue* const species = field(req, "species");
    if (species == nullptr || !species->is_string()) {
      reject("missing species");
      continue;
    }
    q.species = species->as_string();
    bool species_known = false;
    for (const std::string& sp : scen->species) {
      species_known = species_known || sp == q.species;
    }
    if (!species_known) {
      reject("scenario '" + q.scenario + "' has no species '" + q.species +
             "'");
      continue;
    }
    const util::JsonValue* const vdd = field(req, "vdd");
    if (!is_finite_number(vdd)) {
      reject("missing or non-finite vdd");
      continue;
    }
    q.vdd = vdd->as_double();
    if (op == "pof") {
      const util::JsonValue* const energy = field(req, "energy_mev");
      if (!is_finite_number(energy)) {
        reject("missing or non-finite energy_mev");
        continue;
      }
      q.energy_mev = energy->as_double();
    }
    if (const util::JsonValue* with_pv = field(req, "with_pv")) {
      if (!with_pv->is_bool()) {
        reject("with_pv must be a boolean");
        continue;
      }
      q.with_pv = with_pv->as_bool();
    }

    // Cache hit: answer inline, never behind a refinement.
    if (const ResponseSurface* s =
            lookup_ ? lookup_(q.scenario, q.species) : nullptr) {
      FINSER_OBS_COUNT("serve.cache_hits", 1);
      replies.write(answer(q, *s));
      FINSER_OBS_RECORD("serve.hit_us", (obs::now_ns() - parse_ns) / 1000);
      continue;
    }
    // Backpressure: with max_pending misses queued or being refined, a new
    // miss is shed instead of buffered without bound. Shed replies are
    // immediate (they may interleave ahead of queued misses' answers).
    if (pending.size() + refiner.outstanding() >= config_.max_pending) {
      replies.degraded(failure(q, "shed",
                               "pending queue full (max_pending=" +
                                   std::to_string(config_.max_pending) + ")"));
      FINSER_OBS_COUNT("serve.shed", 1);
      continue;
    }
    pending.push_back(std::move(q));
  }

  // Drain: EOF, shutdown or cancellation. Every miss received is answered;
  // once the token is cancelled the refiner answers from cache only and
  // replies `cancelled` to the rest.
  settle();
  replies.flush();
  return replies.any_degraded() ? 6 : 0;
}

}  // namespace finser::surface
