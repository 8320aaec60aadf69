// admire_e2e: end-to-end benchmark of a live threaded ADMIRE cluster
// (central + 2 mirrors over in-process channels, plus the TCP serving front
// end on the flash_crowd workload).
//
//   admire_e2e --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs an untraced and
// a traced pass plus a single-threaded baseline and reports the per-layer
// metrics. Every layer is measured from outside: the benchmark times its own
// calls into public functions, timestamps its own subscribers on the public
// channels and reads the cluster's metrics registry at the end. A watchdog
// ends any run whose counters stop advancing. Human-readable lines go to
// stdout first; the last line is one JSON object. See README.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <pthread.h>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/coordinator.h"
#include "cluster/cluster.h"
#include "histogram.h"
#include "mirror/main_unit_core.h"
#include "mirror/mirror_aux_core.h"
#include "mirror/pipeline_core.h"
#include "serve/query.h"
#include "workload/scenario.h"
#include "workload/serve_driver.h"

namespace e2ebench {
namespace {

using namespace admire;
using SteadyTp = std::chrono::steady_clock::time_point;

constexpr std::size_t kMirrors = 2;
constexpr std::uint32_t kFlights = 500;
constexpr int kSetupRepeats = 9;
constexpr Nanos kTick = kMilli;  // flash_crowd release granularity
constexpr auto kStallWindow = std::chrono::seconds(2);
constexpr auto kRunBudget = std::chrono::seconds(150);

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workloads --------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  rules::MirrorFunctionSpec function;
  std::size_t padding = 0;
  /// Events per second the trace is sized for: the closed-loop workloads
  /// replay `seconds * rate` FAA events as fast as ingest accepts them,
  /// flash_crowd releases exactly this rate.
  double rate = 0;
  bool open_loop = false;  ///< paced in 1 ms ticks, with a serving crowd
};

std::optional<WorkloadSpec> workload_by_name(const std::string& name) {
  if (name == "ois_saturate") {
    return WorkloadSpec{name, rules::selective_mirroring(8), 1024, 200'000,
                        false};
  }
  if (name == "fanout_saturate") {
    return WorkloadSpec{name, rules::simple_mirroring(), 64, 150'000, false};
  }
  if (name == "flash_crowd") {
    return WorkloadSpec{name, rules::selective_mirroring(8), 1024, 50'000,
                        true};
  }
  return std::nullopt;
}

std::shared_ptr<const Bytes> padding_buffer(std::size_t n) {
  // Same bytes event::make_faa_position / make_delta_status write; checked
  // against a generated event in build_trace.
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>(i * 31 + 7);
  return std::make_shared<const Bytes>(std::move(out));
}

/// The seeded OIS trace (FAA positions + Delta lifecycle, kFlights flights).
/// The generator pads every event with identical bytes, so the trace is
/// generated unpadded and every event then shares one immutable padding
/// buffer per size: byte-identical events at a fraction of the memory.
workload::Trace build_trace(const WorkloadSpec& w, std::uint64_t seed,
                            std::uint64_t faa_events, double horizon_s) {
  workload::ScenarioConfig sc;
  sc.faa_events = faa_events;
  sc.num_flights = kFlights;
  sc.event_padding = 0;
  sc.event_horizon = static_cast<Nanos>(horizon_s * 1e9);
  sc.seed = seed;
  workload::Trace trace = workload::make_ois_trace(sc);
  const auto faa_pad = padding_buffer(w.padding);
  const auto delta_pad = padding_buffer(std::min<std::size_t>(w.padding, 256));
  const event::Event reference =
      event::make_faa_position(0, 1, event::FaaPosition{}, w.padding);
  if (reference.padding().size() != faa_pad->size() ||
      std::memcmp(reference.padding().data(), faa_pad->data(),
                  faa_pad->size()) != 0) {
    std::fprintf(stderr, "padding layout differs from the generator's\n");
    std::exit(2);
  }
  for (auto& item : trace.items) {
    const auto& pad = item.ev.stream() == 0 ? faa_pad : delta_pad;
    item.ev.set_padding_view(pad, ByteSpan(pad->data(), pad->size()));
  }
  return trace;
}

/// Length of the trace prefix that touches every flight (the warm-up).
std::size_t warmup_length(const workload::Trace& trace) {
  std::vector<bool> seen(kFlights + 1, false);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const FlightKey k = trace.items[i].ev.key();
    if (k <= kFlights && !seen[k]) {
      seen[k] = true;
      if (++distinct == kFlights) return i + 1;
    }
  }
  return trace.size();
}

// --- Process memory -----------------------------------------------------------

std::uint64_t rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  f >> size >> resident;
  return resident * 4096;
}

/// Bytes the allocator has handed out and not had back (all arenas).
std::uint64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Pin the calling thread (and every thread it creates afterwards) to the
/// last CPU (`clients`) or to all the others. The flash crowd's clients
/// would run on other machines; on one host they get a core of their own,
/// so the server's tail latency is not the scheduler's doing. No-op on a
/// host with fewer than two CPUs.
void pin_to(bool clients) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (clients) {
    CPU_SET(n - 1, &set);
  } else {
    for (unsigned i = 0; i + 1 < n; ++i) CPU_SET(i, &set);
  }
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

// --- Probes: the benchmark's own subscribers ---------------------------------

/// ingress_time -> time the event reached the local TxStage outbox
/// (central.data anonymous subscriber). Direct-mapped, lock-free; a slot
/// overwritten before its mirror output arrives just loses that sample.
class SpanTable {
 public:
  static constexpr std::size_t kSlots = std::size_t{1} << 18;

  void put(Nanos key, Nanos value) {
    const std::size_t s = slot(key);
    keys_[s].store(-1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    values_[s].store(value, std::memory_order_relaxed);
    keys_[s].store(key, std::memory_order_release);
  }
  std::optional<Nanos> get(Nanos key) const {
    const std::size_t s = slot(key);
    if (keys_[s].load(std::memory_order_acquire) != key) return std::nullopt;
    const Nanos value = values_[s].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (keys_[s].load(std::memory_order_relaxed) != key) return std::nullopt;
    return value;
  }

 private:
  static std::size_t slot(Nanos key) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> 46);
  }
  std::array<std::atomic<Nanos>, kSlots> keys_{};
  std::array<std::atomic<Nanos>, kSlots> values_{};
};

/// Release schedule of the open-loop generator: the clock reading taken
/// just before tick k's first ingest. Every event of tick k is stamped at
/// ingest between tick_start[k] and tick_start[k+1], so a subscriber finds
/// an output's due time from its ingress_time by binary search.
class TickSchedule {
 public:
  /// Before the cluster starts (its threads then see the allocation).
  void allocate(std::size_t ticks) {
    starts_ = std::make_unique<std::atomic<Nanos>[]>(ticks);
  }
  /// Before the first publish(), which orders it for the readers.
  void set_base(Nanos base) { base_ = base; }
  void publish(std::size_t k, Nanos start) {
    starts_[k].store(start, std::memory_order_relaxed);
    published_.store(k + 1, std::memory_order_release);
  }
  Nanos due(std::size_t k) const { return base_ + static_cast<Nanos>(k) * kTick; }
  /// Due time of an event stamped at `ingress`; nullopt before the
  /// schedule started (warm-up events).
  std::optional<Nanos> due_of(Nanos ingress) const {
    const std::size_t n = published_.load(std::memory_order_acquire);
    if (n == 0 || ingress < starts_[0].load(std::memory_order_relaxed)) {
      return std::nullopt;
    }
    std::size_t lo = 0;
    std::size_t hi = n;  // invariant: starts_[lo] <= ingress
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (starts_[mid].load(std::memory_order_relaxed) <= ingress) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return due(lo);
  }
  bool active() const { return starts_ != nullptr; }

 private:
  std::unique_ptr<std::atomic<Nanos>[]> starts_;
  std::atomic<std::size_t> published_{0};
  Nanos base_ = 0;
};

/// Everything the subscribers write. One histogram per writing thread (the
/// central receiving task, each mirror event loop, the local tx worker), so
/// recording never contends across cores.
struct Probes {
  bool traced = false;
  WindowedHistogram central_delay;
  std::array<WindowedHistogram, kMirrors> mirror_delay;
  Histogram span_central;                  // ingest -> central update
  Histogram span_tx_local;                 // ingest -> local tx outbox
  std::array<Histogram, kMirrors> span_mirror;  // tx local -> mirror update
  SpanTable tx_seen;
  TickSchedule ticks;
  std::shared_ptr<Clock> clock;

  void reset() {
    const Nanos origin = clock->now();
    central_delay.reset(origin);
    for (auto& h : mirror_delay) h.reset(origin);
    span_central.reset();
    span_tx_local.reset();
    for (auto& h : span_mirror) h.reset();
  }
  /// When an event's update delay starts: at ingest, or at its due time
  /// on the paced workload.
  Nanos delay_start(Nanos ingress) const {
    if (ticks.active()) {
      if (auto due = ticks.due_of(ingress)) return *due;
    }
    return ingress;
  }
};

// --- Watchdog -----------------------------------------------------------------

/// Counters sampled during the run; a stall is a window in which none of
/// them advances.
struct Progress {
  std::vector<std::pair<std::string, std::uint64_t>> values;

  static Progress sample(cluster::Cluster& c) {
    Progress p;
    auto& central = c.central();
    const auto counters = central.core().counters();
    p.values = {
        {"ingested", central.ingested()},
        {"ede_processed", central.processed_by_ede()},
        {"credits_granted", central.credits_granted()},
        {"credits_consumed", central.credits_consumed()},
        {"checkpoints_due", counters.checkpoints_due},
        {"checkpoint_rounds_started", central.coordinator().rounds_started()},
    };
    for (std::size_t i = 0; i < c.num_mirrors(); ++i) {
      const std::string m = "mirror" + std::to_string(i + 1);
      p.values.emplace_back(m + "_received", c.mirror(i).events_received());
      p.values.emplace_back(m + "_applied", c.mirror(i).events_processed());
    }
    return p;
  }
  std::uint64_t get(const std::string& name) const {
    for (const auto& [n, v] : values) {
      if (n == name) return v;
    }
    return 0;
  }
  std::uint64_t backlog() const {
    const auto due = get("checkpoints_due");
    const auto started = get("checkpoint_rounds_started");
    return due > started ? due - started : 0;
  }
};

/// Mirrored events between the central EDE and the mirrors' apply: ready-
/// queue credits not yet sent plus events a mirror received but has not
/// applied.
std::uint64_t in_flight_after_ede(const Progress& p) {
  std::uint64_t n = 0;
  const auto granted = p.get("credits_granted");
  const auto consumed = p.get("credits_consumed");
  if (granted > consumed) n += granted - consumed;
  for (std::size_t i = 0; i < kMirrors; ++i) {
    const std::string m = "mirror" + std::to_string(i + 1);
    const auto rx = p.get(m + "_received");
    const auto applied = p.get(m + "_applied");
    if (rx > applied) n += rx - applied;
  }
  return n;
}

/// Events offered but not applied at every site: events the central EDE
/// has not processed, ready-queue credits not yet sent, and mirrored events
/// a mirror received but has not applied.
std::uint64_t unapplied_events(const Progress& p, std::uint64_t offered) {
  const auto ede = p.get("ede_processed");
  std::uint64_t failed = offered > ede ? offered - ede : 0;
  return failed + in_flight_after_ede(p);
}

class Watchdog {
 public:
  /// `on_stall` gets the signature text and the last progress sample; it
  /// must not return (it reports and exits the process, because a stalled
  /// cluster cannot be stopped).
  using StallHandler = std::function<void(const std::string&, const Progress&)>;

  explicit Watchdog(StallHandler on_stall)
      : on_stall_(std::move(on_stall)),
        rss_baseline_(rss_bytes()),
        deadline_(std::chrono::steady_clock::now() + kRunBudget),
        thread_([this] { loop(); }) {}
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void watch(cluster::Cluster* c) {
    std::lock_guard lock(mu_);
    cluster_ = c;
    last_.reset();
    backlog_max_ = 0;
  }
  std::uint64_t backlog_max() const {
    std::lock_guard lock(mu_);
    return backlog_max_;
  }
  double peak_rss_mb() const {
    const std::uint64_t peak = rss_peak_.load();
    return peak > rss_baseline_
               ? static_cast<double>(peak - rss_baseline_) / (1024.0 * 1024.0)
               : 0.0;
  }

 private:
  void loop() {
    std::vector<SteadyTp> changed;
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::uint64_t rss = rss_bytes();
      if (rss > rss_peak_.load()) rss_peak_.store(rss);
      std::lock_guard lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      if (now > deadline_) {
        on_stall_("run exceeded its " + std::to_string(kRunBudget.count()) +
                      " s budget",
                  cluster_ ? Progress::sample(*cluster_) : Progress{});
      }
      if (cluster_ == nullptr) continue;
      Progress p = Progress::sample(*cluster_);
      backlog_max_ = std::max(backlog_max_, p.backlog());
      if (!last_ || last_->values.size() != p.values.size()) {
        changed.assign(p.values.size(), now);
      } else {
        for (std::size_t i = 0; i < p.values.size(); ++i) {
          if (p.values[i].second != last_->values[i].second) changed[i] = now;
        }
      }
      last_ = p;
      // Nothing ingested is still in flight: the cluster is idle (e.g. the
      // benchmark is between phases), not stalled.
      const auto ingested = p.get("ingested");
      const auto ede = p.get("ede_processed");
      if (ingested <= ede && in_flight_after_ede(p) == 0) {
        changed.assign(p.values.size(), now);
        continue;
      }
      const auto newest = *std::max_element(changed.begin(), changed.end());
      if (now - newest < kStallWindow) continue;
      // Stalled: name the counters in the order they stopped (oldest
      // first — the first to stop is nearest the blocked task).
      std::vector<std::size_t> order(p.values.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
        return changed[a] < changed[b];
      });
      std::string sig = "no counter advanced for " +
                        std::to_string(kStallWindow.count()) +
                        " s; counters in the order they stopped:";
      for (const auto i : order) {
        const double ago =
            std::chrono::duration<double>(now - changed[i]).count();
        char buf[160];
        std::snprintf(buf, sizeof buf, "\n  %-28s %12" PRIu64 "  (last advanced %.2f s ago)",
                      p.values[i].first.c_str(), p.values[i].second, ago);
        sig += buf;
      }
      const auto granted = p.get("credits_granted");
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "\n  ingested - credits_granted = %" PRIu64
                    "; ede_processed - credits_granted = %" PRId64
                    "; checkpoint trigger backlog = %" PRIu64
                    " (max %" PRIu64 ")",
                    ingested - granted,
                    static_cast<std::int64_t>(p.get("ede_processed")) -
                        static_cast<std::int64_t>(granted),
                    p.backlog(), backlog_max_);
      sig += buf;
      on_stall_(sig, p);
    }
  }

  StallHandler on_stall_;
  const std::uint64_t rss_baseline_;
  std::atomic<std::uint64_t> rss_peak_{0};
  const SteadyTp deadline_;
  mutable std::mutex mu_;
  cluster::Cluster* cluster_ = nullptr;
  std::optional<Progress> last_;
  std::uint64_t backlog_max_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- Output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_result(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note = "") {
  std::printf("  %-40s %16.6f %-6s %s\n", name.c_str(), value, unit,
              note.c_str());
}

std::string samples(std::uint64_t n) { return "(n=" + std::to_string(n) + ")"; }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- One pass over a live cluster ------------------------------------------------

struct RequestStats {
  std::uint64_t ok = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< given up + I/O errors + protocol errors
  std::uint64_t protocol_errors = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<double> latency_ns;
  double seconds = 0;
};

double percentile_of(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

struct PassResult {
  double setup_s = 0;
  std::vector<double> setup_samples;
  std::atomic<std::uint64_t> offered{0};  ///< read by the stall handler
  std::uint64_t rejected = 0;  ///< ingest calls that returned an error
  std::uint64_t failed_events = 0;
  double run_s = 0;
  double events_per_s = 0;
  double drain_tail_ms = 0;
  std::unique_ptr<WindowedHistogram> central_delay =
      std::make_unique<WindowedHistogram>();
  std::unique_ptr<WindowedHistogram> mirror_delay =
      std::make_unique<WindowedHistogram>();
  std::unique_ptr<Histogram> ingest_block = std::make_unique<Histogram>();
  std::unique_ptr<Histogram> gen_lag = std::make_unique<Histogram>();
  std::unique_ptr<Histogram> serve_inproc = std::make_unique<Histogram>();
  std::unique_ptr<Histogram> span_central = std::make_unique<Histogram>();
  std::unique_ptr<Histogram> span_tx_local = std::make_unique<Histogram>();
  std::unique_ptr<Histogram> span_mirror = std::make_unique<Histogram>();
  RequestStats requests;
  std::optional<obs::Snapshot> snapshot;
  std::uint64_t backlog_max = 0;
  double heap_retained_mb = 0;
  double front_overhead_ns = 0;  ///< TCP p50 minus in-process p50 (traced)
  std::vector<std::string> failures;
};

struct Run {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  const workload::Trace* trace = nullptr;
  std::size_t warm = 0;  ///< warm-up prefix length
  Watchdog* watchdog = nullptr;
};

struct Live {
  std::unique_ptr<cluster::Cluster> cluster;
  std::vector<echo::Subscription> subs;
  std::unique_ptr<Probes> probes;
  std::uint64_t heap_before = 0;  ///< live heap just before construction

  ~Live() {
    subs.clear();
    if (cluster) cluster->stop();
  }
};

std::size_t events_per_tick(const Run& run) {
  return static_cast<std::size_t>(run.spec.rate * static_cast<double>(kTick) / 1e9);
}

/// Ticks the open-loop generator needs for the measured part of the trace.
std::size_t ticks_for(const Run& run) {
  const std::size_t per_tick = events_per_tick(run);
  return (run.trace->size() - run.warm + per_tick - 1) / per_tick;
}

serve::Request draw_request(Rng& rng, const serve::FlightPicker& picker,
                            std::uint64_t id) {
  const serve::QueryMix mix;
  const FlightKey flight = picker.pick(rng.next_double());
  const serve::QueryKey q = serve::pick_query(mix, rng.next_double(), flight);
  return serve::Request{id, q.shape, q.key};
}

serve::FlightDist crowd_dist() {
  serve::FlightDist d;
  d.kind = serve::FlightDist::Kind::kZipfian;
  return d;
}

/// Cluster construction, start(), front end listening, subscribers and a
/// warm-up that touches every flight (the trace prefix up to the first
/// event of the last unseen flight, then drain; plus one in-process query
/// per flight where the serving plane is exercised).
std::unique_ptr<Live> set_up(const Run& run, bool traced) {
  auto live = std::make_unique<Live>();
  live->probes = std::make_unique<Probes>();
  Probes& pr = *live->probes;
  pr.traced = traced;

  if (run.spec.open_loop) pin_to(/*clients=*/false);
  live->heap_before = heap_in_use();
  cluster::ClusterConfig cfg;
  cfg.num_mirrors = kMirrors;
  cfg.params.function = run.spec.function;
  cfg.num_streams = workload::kOisStreams;
  // The traced pass always listens, for the front-end probe.
  cfg.serve_front_end = run.spec.open_loop || traced;
  live->cluster = std::make_unique<cluster::Cluster>(cfg);
  cluster::Cluster& c = *live->cluster;
  pr.clock = c.clock();
  Clock* clock = pr.clock.get();

  auto reg = c.registry();
  live->subs.push_back(reg->by_name("central.updates")
                           ->subscribe([&pr, clock](const event::Event& ev) {
                             const Nanos now = clock->now();
                             const Nanos ingress = ev.header().ingress_time;
                             const Nanos start = pr.delay_start(ingress);
                             pr.central_delay.record(start, now - start);
                             if (pr.traced) pr.span_central.record(now - ingress);
                           }));
  for (std::size_t i = 0; i < kMirrors; ++i) {
    const std::string name = "mirror" + std::to_string(c.mirror(i).site()) + ".updates";
    live->subs.push_back(reg->by_name(name)->subscribe(
        [&pr, clock, i](const event::Event& ev) {
          const Nanos now = clock->now();
          const Nanos ingress = ev.header().ingress_time;
          const Nanos start = pr.delay_start(ingress);
          pr.mirror_delay[i].record(start, now - start);
          if (pr.traced) {
            if (auto tx = pr.tx_seen.get(ingress)) pr.span_mirror[i].record(now - *tx);
          }
        }));
  }
  if (traced) {
    // Anonymous subscriber: fed by the always-present local TxStage outbox.
    live->subs.push_back(reg->by_name("central.data")
                             ->subscribe([&pr, clock](const event::Event& ev) {
                               const Nanos now = clock->now();
                               const Nanos ingress = ev.header().ingress_time;
                               pr.span_tx_local.record(now - ingress);
                               pr.tx_seen.put(ingress, now);
                             }));
  }

  if (run.spec.open_loop) pr.ticks.allocate(ticks_for(run));
  run.watchdog->watch(&c);
  c.start();
  if (cfg.serve_front_end && c.serve_port() == 0) {
    std::fprintf(stderr, "serving front end did not start\n");
    std::exit(2);
  }
  for (std::size_t i = 0; i < run.warm; ++i) {
    (void)c.ingest(run.trace->items[i].ev);
  }
  c.drain();
  if (run.spec.open_loop) {
    for (std::uint32_t f = 1; f <= kFlights; ++f) {
      (void)c.serve(serve::Request{f, serve::QueryShape::kFlight, f});
    }
  }
  pr.reset();
  return live;
}

void tear_down(const Run& run, std::unique_ptr<Live> live) {
  live->subs.clear();
  live->cluster->stop();
  run.watchdog->watch(nullptr);
  live.reset();
}

workload::ServeDriverConfig crowd_config(const Run& run, cluster::Cluster& c) {
  workload::ServeDriverConfig dc;
  dc.port = c.serve_port();
  dc.threads = 1;
  dc.connections = 4;
  dc.requests_per_connection = 200;
  dc.flight_space = kFlights;
  dc.flight_dist = crowd_dist();
  dc.seed = run.seed * 0x9E3779B97F4A7C15ULL + 1;
  return dc;
}

/// Front-end cost on a drained cluster (workloads without a crowd): TCP
/// round trips vs direct serve() calls, same mix, p50 difference in ns.
double front_probe(const Run& run, cluster::Cluster& c) {
  constexpr std::size_t kCalls = 2000;
  Rng rng(run.seed ^ 0xF207);
  const serve::FlightPicker picker(crowd_dist(), kFlights);
  for (std::size_t i = 0; i < kCalls / 4; ++i) (void)c.serve(draw_request(rng, picker, i));
  auto dc = crowd_config(run, c);
  dc.connections = 1;
  dc.requests_per_connection = kCalls;
  auto rep = workload::run_serve_driver(dc);
  std::vector<double> inproc;
  for (std::size_t i = 0; i < kCalls; ++i) {
    const serve::Request req = draw_request(rng, picker, i);
    const auto t0 = std::chrono::steady_clock::now();
    (void)c.serve(req);
    inproc.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  if (rep.latency_ns.count() == 0) return 0.0;
  return rep.latency_ns.percentile(0.50) - percentile_of(inproc, 0.50);
}

/// Drive the measured part of the trace [run.warm, end) through `live`.
void drive(const Run& run, Live& live, std::size_t end, PassResult& out) {
  cluster::Cluster& c = *live.cluster;
  Probes& pr = *live.probes;
  const bool traced = pr.traced;
  Clock& clock = *pr.clock;
  const auto& items = run.trace->items;
  std::atomic<bool> stream_done{false};

  // Traced: sampled direct in-process serve() calls, same mix as the crowd.
  std::thread sampler;
  if (traced) {
    sampler = std::thread([&] {
      Rng rng(run.seed ^ 0x5A3D1E);
      const serve::FlightPicker picker(crowd_dist(), kFlights);
      std::uint64_t id = 1;
      while (!stream_done.load()) {
        const serve::Request req = draw_request(rng, picker, id++);
        const auto t0 = std::chrono::steady_clock::now();
        (void)c.serve(req);
        out.serve_inproc->record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // Serving crowd (flash_crowd): closed loop, 1 thread, 4 connections,
  // default QueryMix, Zipfian keys, repeated until the stream ends.
  std::thread crowd;
  if (run.spec.open_loop) {
    crowd = std::thread([&] {
      pin_to(/*clients=*/true);
      auto dc = crowd_config(run, c);
      const double t0 = now_s();
      while (!stream_done.load()) {
        const auto rep = workload::run_serve_driver(dc);
        ++dc.seed;
        auto& r = out.requests;
        r.ok += rep.requests_ok;
        r.attempted += rep.requests_attempted() + rep.io_errors + rep.connect_failures;
        r.failed += rep.requests_given_up + rep.io_errors + rep.protocol_errors +
                    rep.connect_failures;
        r.protocol_errors += rep.protocol_errors;
        r.payload_bytes += rep.payload_bytes;
        for (std::size_t i = 0; i < rep.latency_ns.count(); ++i) {
          r.latency_ns.push_back(rep.latency_ns.sample(i));
        }
      }
      out.requests.seconds = now_s() - t0;
    });
  }

  const Nanos t_first = clock.now();
  if (!run.spec.open_loop) {
    // Closed loop: the next ingest goes as soon as the last returns.
    for (std::size_t i = run.warm; i < end; ++i) {
      out.offered.fetch_add(1, std::memory_order_relaxed);
      Nanos t0 = traced ? clock.now() : 0;
      if (!c.ingest(items[i].ev).is_ok()) ++out.rejected;
      if (traced) out.ingest_block->record(clock.now() - t0);
    }
  } else {
    // Open loop: rate/1000 events released per 1 ms tick, each due at its
    // tick's scheduled start.
    const std::size_t per_tick = events_per_tick(run);
    const std::size_t ticks = ticks_for(run);
    const Nanos base = clock.now() + 2 * kTick;
    const SteadyTp tp_base =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(base - clock.now());
    pr.ticks.set_base(base);
    std::size_t i = run.warm;
    for (std::size_t k = 0; k < ticks; ++k) {
      std::this_thread::sleep_until(tp_base + std::chrono::nanoseconds(k * kTick));
      const Nanos start = clock.now();
      pr.ticks.publish(k, start);
      out.gen_lag->record(start - pr.ticks.due(k));
      for (std::size_t j = 0; j < per_tick && i < end; ++j, ++i) {
        out.offered.fetch_add(1, std::memory_order_relaxed);
        Nanos t0 = traced ? clock.now() : 0;
        if (!c.ingest(items[i].ev).is_ok()) ++out.rejected;
        if (traced) out.ingest_block->record(clock.now() - t0);
      }
    }
  }
  const Nanos t_last = clock.now();
  stream_done.store(true);
  if (crowd.joinable()) crowd.join();
  if (sampler.joinable()) sampler.join();
  c.drain();
  const Nanos t_drained = clock.now();

  out.run_s = static_cast<double>(t_drained - t_first) / 1e9;
  out.events_per_s = ratio(static_cast<double>(out.offered - out.rejected), out.run_s);
  out.drain_tail_ms = static_cast<double>(t_drained - t_last) / 1e6;
  out.central_delay->merge_from(pr.central_delay);
  for (const auto& h : pr.mirror_delay) out.mirror_delay->merge_from(h);
  out.span_central->merge_from(pr.span_central);
  out.span_tx_local->merge_from(pr.span_tx_local);
  for (const auto& h : pr.span_mirror) out.span_mirror->merge_from(h);

  if (traced) {
    if (run.spec.open_loop) {
      out.front_overhead_ns =
          percentile_of(out.requests.latency_ns, 0.50) - out.serve_inproc->percentile(0.50);
    } else {
      out.front_overhead_ns = front_probe(run, c);
    }
  }
  const std::uint64_t heap = heap_in_use();
  out.heap_retained_mb =
      heap > live.heap_before
          ? static_cast<double>(heap - live.heap_before) / (1024.0 * 1024.0)
          : 0.0;

  // --- Correctness -----------------------------------------------------------
  const Progress p = Progress::sample(c);
  out.failed_events = unapplied_events(p, out.offered + run.warm) + out.rejected;
  out.backlog_max = run.watchdog->backlog_max();
  const auto fps = c.state_fingerprints();
  for (std::size_t m = 2; m < fps.size(); ++m) {
    if (fps[m] != fps[1]) {
      out.failures.push_back("mirror" + std::to_string(m) +
                             " state fingerprint differs from mirror1");
    }
  }
  // Simple mirroring sends every event to every mirror, so the central
  // table must match the mirrors' too.
  if (run.spec.name == "fanout_saturate" && fps.size() > 1 && fps[0] != fps[1]) {
    out.failures.push_back("central state fingerprint differs from the mirrors'");
  }
  if (c.central().processed_by_ede() != c.central().ingested()) {
    out.failures.push_back("central EDE processed " +
                           std::to_string(c.central().processed_by_ede()) +
                           " events of " + std::to_string(c.central().ingested()) +
                           " ingested");
  }
  if (out.failed_events != 0) {
    out.failures.push_back(std::to_string(out.failed_events) +
                           " events not applied at every site");
  }
  if (run.spec.open_loop) {
    const auto& r = out.requests;
    if (r.ok == 0) out.failures.push_back("no request answered OK");
    if (r.payload_bytes < r.ok) out.failures.push_back("OK responses without state bytes");
    if (r.protocol_errors != 0) out.failures.push_back("client saw protocol errors");
  }
  out.snapshot = c.obs().snapshot();
  if (run.spec.open_loop &&
      out.snapshot->counter_or("serve.front.protocol_errors_total") != 0) {
    out.failures.push_back("front end counted protocol errors");
  }
}

// --- Single-threaded baseline ---------------------------------------------------

/// The same trace through PipelineCore -> central MainUnitCore, and each
/// send step into one MirrorAuxCore + MainUnitCore per mirror, with
/// checkpoint rounds run inline: one thread, no queues, no channels.
double serial_events_per_s(const Run& run, std::size_t end,
                           std::vector<std::string>& failures) {
  rules::MirroringParams params;
  params.function = run.spec.function;
  mirror::PipelineCore core(params, workload::kOisStreams);
  mirror::MainUnitCore central(kCentralSite);
  checkpoint::Coordinator coordinator(kCentralSite, 1 + kMirrors);
  std::vector<std::unique_ptr<mirror::MirrorAuxCore>> aux;
  std::vector<std::unique_ptr<mirror::MainUnitCore>> mains;
  for (std::size_t m = 0; m < kMirrors; ++m) {
    aux.push_back(std::make_unique<mirror::MirrorAuxCore>(static_cast<SiteId>(m + 1)));
    mains.push_back(std::make_unique<mirror::MainUnitCore>(static_cast<SiteId>(m + 1)));
  }
  SteadyClock clock;

  const auto mirror_out = [&](const std::vector<event::Event>& events, Nanos now) {
    for (std::size_t m = 0; m < kMirrors; ++m) {
      for (const auto& ev : events) {
        aux[m]->on_mirrored(ev, now);
        while (auto next = aux[m]->next_for_main(now)) (void)mains[m]->process(*next);
      }
    }
  };
  const auto checkpoint_round = [&](Nanos now) {
    const auto chkpt = coordinator.begin_round(
        core.backup().last_vts().value_or(core.stamp()), {}, now);
    auto commit = coordinator.on_reply(central.on_chkpt(chkpt), now);
    for (std::size_t m = 0; m < kMirrors; ++m) {
      const auto reply = aux[m]->relay_reply(mains[m]->on_chkpt(aux[m]->relay_chkpt(chkpt)));
      if (!reply) continue;
      if (auto c = coordinator.on_reply(*reply, now)) commit = c;
    }
    if (!commit) return;
    core.backup().trim_committed(commit->vts);
    (void)central.on_commit(*commit);
    for (std::size_t m = 0; m < kMirrors; ++m) {
      (void)mains[m]->on_commit(aux[m]->on_commit(*commit));
    }
  };

  const auto& items = run.trace->items;
  const double t0 = now_s();
  for (std::size_t i = 0; i < end; ++i) {
    event::Event ev = items[i].ev;
    const Nanos now = clock.now();
    ev.mutable_header().ingress_time = now;
    auto outcome = core.on_incoming(std::move(ev), now);
    if (outcome.forward) (void)central.process(*outcome.forward);
    if (outcome.checkpoint_due) checkpoint_round(now);
    const std::size_t credits =
        (outcome.enqueued ? 1u : 0u) + (outcome.combined_enqueued ? 1u : 0u);
    if (credits > 0) {
      if (auto step = core.try_send_batch(credits, now)) mirror_out(step->to_send, now);
    }
  }
  mirror_out(core.flush(clock.now()).to_send, clock.now());
  const double elapsed = now_s() - t0;

  const auto fp1 = mains[0]->state().fingerprint();
  for (std::size_t m = 1; m < kMirrors; ++m) {
    if (mains[m]->state().fingerprint() != fp1) {
      failures.push_back("serial baseline: mirror states differ");
    }
  }
  if (run.spec.name == "fanout_saturate" && central.state().fingerprint() != fp1) {
    failures.push_back("serial baseline: central state differs from the mirrors'");
  }
  return ratio(static_cast<double>(end), elapsed);
}

// --- Reports ---------------------------------------------------------------------

/// Update-delay figures: the median over 100 ms windows (those with at
/// least 1000 samples, so ten lie beyond p99) of each window's p50 and
/// p99, plus the whole-run percentiles for reference.
struct DelayFigures {
  double p50_ms = 0;
  double p99_ms = 0;
  double p50_whole_run_ms = 0;
  double p99_whole_run_ms = 0;
  std::uint64_t n = 0;
};

DelayFigures delay_figures(const WindowedHistogram& w) {
  auto total = std::make_unique<Histogram>();
  w.merge_into(*total);
  DelayFigures f;
  f.n = total->count();
  f.p50_whole_run_ms = total->percentile(0.50) / 1e6;
  f.p99_whole_run_ms = total->percentile(0.99) / 1e6;
  f.p50_ms = w.windowed_percentile(0.50, 1000, total->percentile(0.50)) / 1e6;
  f.p99_ms = w.windowed_percentile(0.99, 1000, total->percentile(0.99)) / 1e6;
  return f;
}

/// The gated end-to-end metrics (BENCHMARK.json); print_end_to_end shows
/// the rest.
std::vector<Metric> end_to_end_metrics(const PassResult& r) {
  const auto central = delay_figures(*r.central_delay);
  const auto mirror = delay_figures(*r.mirror_delay);
  return {
      {"events_per_s", r.events_per_s, "1/s"},
      {"central_delay_p50_ms", central.p50_ms, "ms"},
      {"central_delay_p99_ms", central.p99_ms, "ms"},
      {"mirror_delay_p50_ms", mirror.p50_ms, "ms"},
      {"setup_s", r.setup_s, "s"},
  };
}

void print_end_to_end(const Run& run, PassResult& r, double peak_rss_mb) {
  const std::uint64_t n_events = r.offered.load();
  print_metric("events_per_s", r.events_per_s, "1/s",
               samples(n_events) + " events in " + std::to_string(r.run_s) + " s");
  const auto central = delay_figures(*r.central_delay);
  const auto mirror = delay_figures(*r.mirror_delay);
  const std::string from = run.spec.open_loop ? " from due time" : " from ingest";
  const auto whole = [](double ms) {
    return "; whole run " + std::to_string(ms) + " ms";
  };
  const std::string pooled = ", pooled over " + std::to_string(kMirrors) + " mirrors";
  print_metric("central_delay_p50_ms", central.p50_ms, "ms",
               samples(central.n) + from + whole(central.p50_whole_run_ms));
  print_metric("central_delay_p99_ms", central.p99_ms, "ms",
               samples(central.n) + whole(central.p99_whole_run_ms));
  print_metric("mirror_delay_p50_ms", mirror.p50_ms, "ms",
               samples(mirror.n) + from + pooled + whole(mirror.p50_whole_run_ms));
  print_metric("mirror_delay_p99_ms", mirror.p99_ms, "ms",
               samples(mirror.n) + whole(mirror.p99_whole_run_ms));
  std::printf("  (delay percentiles: median over 100 ms windows of each window's "
              "percentile)\n");
  auto& q = r.requests;
  if (run.spec.open_loop) {
    print_metric("gen.lag_p99_ms", r.gen_lag->percentile(0.99) / 1e6, "ms",
                 samples(r.gen_lag->count()) + " ticks; max " +
                     std::to_string(r.gen_lag->max() / 1e6) + " ms");
    print_metric("requests_per_s", ratio(static_cast<double>(q.ok), q.seconds), "1/s",
                 samples(q.ok) + " OK requests");
    print_metric("request_p50_ms", percentile_of(q.latency_ns, 0.50) / 1e6, "ms",
                 samples(q.latency_ns.size()) + " TCP, first attempt to OK");
    print_metric("request_p99_ms", percentile_of(q.latency_ns, 0.99) / 1e6, "ms",
                 samples(q.latency_ns.size()));
  }
  print_metric("events_failed_ratio",
               ratio(static_cast<double>(r.failed_events),
                     static_cast<double>(r.offered + run.warm)),
               "ratio", samples(r.offered + run.warm) + " events offered");
  if (run.spec.open_loop) {
    print_metric("requests_failed_ratio",
                 ratio(static_cast<double>(q.failed), static_cast<double>(q.attempted)),
                 "ratio", samples(q.attempted) + " requests attempted");
  }
  print_metric("setup_s", r.setup_s,
               "s", "median of " + std::to_string(r.setup_samples.size()) + " set-ups");
  print_metric("heap_retained_mb", r.heap_retained_mb, "MB",
               "live heap after drain, above the pre-construction heap");
  print_metric("peak_rss_mb", peak_rss_mb, "MB", "above the pre-setup baseline");
}

std::vector<Metric> per_layer_metrics(const PassResult& t,
                                      double untraced_events_per_s,
                                      double serial_rate) {
  const obs::Snapshot& s = *t.snapshot;
  const auto counter = [&](const std::string& n) {
    return static_cast<double>(s.counter_or(n));
  };
  const auto gauge = [&](const std::string& n) { return s.gauge_or(n); };
  const double seen = counter("rules.central.seen_total");
  const double discarded = counter("rules.central.discarded_overwritten_total") +
                           counter("rules.central.discarded_suppressed_total") +
                           counter("rules.central.discarded_filtered_total");
  double tx_enq = 0;
  double tx_sent = 0;
  std::vector<std::string> sites = {"central"};
  for (std::size_t m = 1; m <= kMirrors; ++m) sites.push_back("mirror" + std::to_string(m));
  for (std::size_t m = 1; m <= kMirrors; ++m) {
    tx_enq += counter("tx.mirror" + std::to_string(m) + ".enqueued_total");
    tx_sent += counter("tx.mirror" + std::to_string(m) + ".sent_total");
  }
  tx_enq += counter("tx.local.enqueued_total");
  tx_sent += counter("tx.local.sent_total");
  double hits = 0, misses = 0, shed = 0, accepted = 0, indexed = 0, scanned = 0,
         fallback = 0;
  for (const auto& site : sites) {
    hits += counter("serve." + site + ".cache.hits_total");
    misses += counter("serve." + site + ".cache.misses_total");
    shed += counter("serve." + site + ".shed_total");
    accepted += counter("serve." + site + ".accepted_total");
    indexed += counter("index." + site + ".builds_indexed_total");
    scanned += counter("index." + site + ".builds_scanned_total");
    fallback += counter("index." + site + ".fallback_scans_total");
  }
  return {
      {"ingest.block_ns_p50", t.ingest_block->percentile(0.50), "ns"},
      {"ingest.block_ns_p99", t.ingest_block->percentile(0.99), "ns"},
      {"drain.tail_ms", t.drain_tail_ms, "ms"},
      {"rules.discard_ratio", ratio(discarded, seen), "ratio"},
      {"pipeline.sent_per_received",
       ratio(gauge("pipeline.central.sent_total"), gauge("pipeline.central.received_total")),
       "ratio"},
      {"queue.central.ready.high_water", gauge("queue.central.ready.high_water"), "count"},
      {"span.ingest_to_central_update_ns_p50", t.span_central->percentile(0.50), "ns"},
      {"span.ingest_to_central_update_ns_p99", t.span_central->percentile(0.99), "ns"},
      {"span.ingest_to_tx_local_ns_p50", t.span_tx_local->percentile(0.50), "ns"},
      {"span.ingest_to_tx_local_ns_p99", t.span_tx_local->percentile(0.99), "ns"},
      {"tx.batch_events_mean",
       ratio(gauge("pipeline.central.sent_total"),
             gauge("cluster.central.send.batches_total")),
       "count"},
      {"tx.sent_per_enqueued", ratio(tx_sent, tx_enq), "ratio"},
      {"span.tx_local_to_mirror_update_ns_p50", t.span_mirror->percentile(0.50), "ns"},
      {"span.tx_local_to_mirror_update_ns_p99", t.span_mirror->percentile(0.99), "ns"},
      {"checkpoint.rounds_committed",
       counter("checkpoint.coordinator.rounds_committed_total"), "count"},
      {"checkpoint.trigger_backlog_max", static_cast<double>(t.backlog_max), "count"},
      {"serve.inproc_ns_p50", t.serve_inproc->percentile(0.50), "ns"},
      {"serve.inproc_ns_p99", t.serve_inproc->percentile(0.99), "ns"},
      {"serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"serve.shed_ratio", ratio(shed, shed + accepted), "ratio"},
      {"index.indexed_build_ratio", ratio(indexed, indexed + scanned), "ratio"},
      {"index.fallback_scans", fallback, "count"},
      {"front.overhead_ns_p50", t.front_overhead_ns, "ns"},
      {"front.protocol_errors", counter("serve.front.protocol_errors_total"), "count"},
      {"serial.events_per_s", serial_rate, "1/s"},
      {"trace.overhead_ratio", ratio(t.events_per_s, untraced_events_per_s), "ratio"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds <= 0) return std::nullopt;
  return a;
}

int main_impl(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: admire_e2e --workload ois_saturate|fanout_saturate|"
                 "flash_crowd --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const auto spec = workload_by_name(args->workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }

  // The traced invocation runs two passes (untraced, traced) of half the
  // events each, plus the serial baseline over the same events.
  const double pass_s = args->trace ? args->seconds / 2 : args->seconds;
  const auto faa_events = static_cast<std::uint64_t>(spec->rate * pass_s);
  const double t_gen = now_s();
  const workload::Trace trace = build_trace(*spec, args->seed, faa_events, pass_s);
  std::printf("workload %s  seed %" PRIu64 "  trace %d  events %zu  "
              "(trace generated in %.2f s, not timed)\n",
              spec->name.c_str(), args->seed, args->trace ? 1 : 0, trace.size(),
              now_s() - t_gen);
  std::fflush(stdout);

  Run run;
  run.spec = *spec;
  run.seed = args->seed;
  run.trace = &trace;
  run.warm = warmup_length(trace);

  // A stalled cluster cannot be stopped (its tasks are blocked), so the
  // stall report ends the process here.
  std::atomic<std::uint64_t> offered_before{0};  // events of earlier passes
  std::atomic<const PassResult*> current{nullptr};
  Watchdog watchdog([&](const std::string& signature, const Progress& p) {
    const PassResult* r = current.load();
    const std::uint64_t offered = (r != nullptr ? r->offered.load() : 0) + run.warm;
    const std::uint64_t failed = std::max<std::uint64_t>(1, unapplied_events(p, offered));
    std::printf("STALL in workload %s, seed %" PRIu64 ": %s\n", spec->name.c_str(),
                args->seed, signature.c_str());
    std::printf("  events_failed_ratio %.6f (%" PRIu64 " of %" PRIu64
                " offered not applied at every site)\n",
                ratio(static_cast<double>(failed), static_cast<double>(offered)),
                failed, offered);
    // The metrics were not measured; report the expected names as 0.
    PassResult empty;
    empty.snapshot = obs::Snapshot{};
    const auto names = args->trace ? per_layer_metrics(empty, 0, 0)
                                   : end_to_end_metrics(empty);
    std::printf("%s\n",
                json_result(false, offered + offered_before.load(), failed, names).c_str());
    std::fflush(stdout);
    std::_Exit(1);
  });
  run.watchdog = &watchdog;

  if (!args->trace) {
    PassResult r;
    current.store(&r);
    std::unique_ptr<Live> live;
    for (int k = 0; k < kSetupRepeats; ++k) {
      if (live) tear_down(run, std::move(live));
      const double t0 = now_s();
      live = set_up(run, /*traced=*/false);
      r.setup_samples.push_back(now_s() - t0);
    }
    auto sorted = r.setup_samples;
    std::sort(sorted.begin(), sorted.end());
    r.setup_s = sorted[sorted.size() / 2];
    drive(run, *live, trace.size(), r);
    tear_down(run, std::move(live));
    const double rss = watchdog.peak_rss_mb();
    std::printf("end-to-end metrics\n");
    print_end_to_end(run, r, rss);
    for (const auto& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
    if (r.failures.empty()) std::printf("checks: all passed\n");
    const bool correct = r.failures.empty();
    const std::uint64_t attempted = r.offered + run.warm + r.requests.attempted;
    const std::uint64_t failed = r.failed_events + r.requests.failed;
    std::printf("%s\n", json_result(correct, attempted, failed,
                                    end_to_end_metrics(r))
                            .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  // Traced invocation: untraced pass, traced pass, serial baseline.
  PassResult plain;
  current.store(&plain);
  {
    auto live = set_up(run, /*traced=*/false);
    drive(run, *live, trace.size(), plain);
    tear_down(run, std::move(live));
  }
  offered_before.store(plain.offered.load() + run.warm);
  PassResult traced;
  current.store(&traced);
  {
    auto live = set_up(run, /*traced=*/true);
    drive(run, *live, trace.size(), traced);
    tear_down(run, std::move(live));
  }
  std::vector<std::string> failures = plain.failures;
  failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
  const double serial = serial_events_per_s(run, trace.size(), failures);
  auto metrics = per_layer_metrics(traced, plain.events_per_s, serial);

  std::printf("per-layer metrics (traced pass; %" PRIu64 " events)\n", traced.offered.load());
  for (const auto& m : metrics) print_metric(m.name, m.value, m.unit.c_str());
  if (run.spec.open_loop) {
    std::printf("  open-loop generator (no JSON slot: this workload only)\n");
    print_metric("gen.lag_p50_ms", traced.gen_lag->percentile(0.50) / 1e6, "ms");
    print_metric("gen.lag_p99_ms", traced.gen_lag->percentile(0.99) / 1e6, "ms",
                 samples(traced.gen_lag->count()) + " ticks");
    print_metric("gen.lag_max_ms", traced.gen_lag->max() / 1e6, "ms");
  }
  print_metric("untraced events_per_s", plain.events_per_s, "1/s");
  print_metric("traced events_per_s", traced.events_per_s, "1/s");
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  if (failures.empty()) std::printf("checks: all passed\n");
  const bool correct = failures.empty();
  const std::uint64_t attempted = plain.offered + traced.offered + 2 * run.warm +
                                  plain.requests.attempted + traced.requests.attempted;
  const std::uint64_t failed = plain.failed_events + traced.failed_events +
                               plain.requests.failed + traced.requests.failed;
  std::printf("%s\n", json_result(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::main_impl(argc, argv); }
