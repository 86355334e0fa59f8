// gesture_paced: the paper's touch-to-policy path with no HTTP in it.
//
// Set-up builds a pool of live sessions: each a generate_page corpus page
// (all 25 sites, images expanded to 3 versions), its own Middleware with no
// simulator, and a cycle of swipes from BrowsingGestureSource. One generator
// thread then releases gestures open-loop as a Poisson stream, phase by
// phase: the `low` and `high` offered rates, then a fixed rate ladder for
// capacity. Each worker thread owns the sessions s with s % workers == its
// index, so a session's gestures are always handled in release order by
// the same thread. Touch-to-policy is timed from the gesture's due time
// (finger lift) to the return of the touch feed, which delivers the policy.
//
// Phases release a fixed number of gestures (rate x phase length), and
// gesture i always goes to the same session as its k-th gesture, so each
// policy is a pure function of (seed, session, k): the decision fingerprint
// over every session's first few gestures does not depend on the rate, the
// thread count or the timing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include "core/middleware.h"
#include "gesture/synthetic.h"
#include "net/bandwidth_trace.h"
#include "spans.h"
#include "util/rng.h"
#include "web/corpus.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mfhttp::DeviceProfile;
using mfhttp::DownloadDecision;
using mfhttp::DownloadPolicy;
using mfhttp::Gesture;
using mfhttp::MediaObject;
using mfhttp::Middleware;
using mfhttp::ScrollAnalysis;
using mfhttp::TimeMs;
using mfhttp::TouchEventMonitor;

// Live sessions in the pool. Their middleware state (about 300 MB) exceeds
// the last-level cache, so memory layout matters.
constexpr std::size_t kSessions = 4096;
// Swipes in a session's cycle: half down, then the same ones mirrored up.
constexpr std::size_t kSwipesPerSession = 16;
// Gestures fed to each session during set-up, before the timed phases.
constexpr std::size_t kWarmupGestures = 2;
// Policies per session folded into the decision fingerprint (the warm-up
// ones included, so every session is covered on any run length).
constexpr std::uint32_t kFpGestures = 4;
constexpr unsigned kMaxWorkers = 3;
// Offered rates in gestures/s: about 1/4 and 3/4 of the median
// capacity_gps (21 600) measured on a 4-vCPU x86-64 VM (see README.md).
constexpr double kRateLow = 5000;
constexpr double kRateHigh = 15000;
// Low and high alternate in this many blocks each, so a host disturbance
// hits one block, not a whole rate.
constexpr std::size_t kPacedBlocks = 20;
// The capacity ladder in gestures/s, climbed this many times; each rung's
// figure is the median over the climbs, so one disturbed climb does not
// decide the capacity.
constexpr double kLadder[] = {12000, 14000, 16000, 18000, 20000, 22000, 24000, 26000};
constexpr std::size_t kLadderClimbs = 3;
// Sizes the saturation blocks (gestures per second of block time).
constexpr double kSaturateRate = 24000;
// Touch-to-policy limit: one 60 Hz frame.
constexpr double kSloMs = 16;
// A paced phase whose release lag p99 exceeds this is invalid.
constexpr double kGenLagLimitUs = 1000;
// Set-up is timed in this many equal slices; setup_s is the median x slices.
constexpr std::size_t kSetupSlices = 4;

// The corpus's single image file becomes the middle of three ascending
// versions, as the scale engine's session worlds do, so the knapsack picks
// quality levels.
std::vector<MediaObject> three_versions(std::vector<MediaObject> images) {
  static const double kSizeFactor[] = {0.25, 1.0, 2.5};
  static const double kResolution[] = {360, 720, 1080};
  for (MediaObject& obj : images) {
    const mfhttp::MediaVersion base = obj.versions.front();
    obj.versions.clear();
    for (int j = 0; j < 3; ++j) {
      mfhttp::MediaVersion v;
      v.resolution = kResolution[j];
      v.size = std::max<mfhttp::Bytes>(
          1, static_cast<mfhttp::Bytes>(static_cast<double>(base.size) *
                                        kSizeFactor[j]));
      v.url = base.url + "?v=" + std::to_string(j);
      obj.versions.push_back(std::move(v));
    }
  }
  return images;
}

struct Item {
  std::uint32_t session = 0;
  std::uint32_t phase = 0;
  std::uint64_t op = 0;     // global gesture index
  std::int64_t due_ns = 0;  // finger lift on the wall clock
};

// Bounded single-producer single-consumer ring: generator -> one worker.
class Ring {
 public:
  explicit Ring(std::size_t capacity_pow2)
      : buf_(capacity_pow2), mask_(capacity_pow2 - 1) {}
  bool push(const Item& item) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) > mask_) return false;
    buf_[t & mask_] = item;
    tail_.store(t + 1, std::memory_order_release);
    ring_bell();
    return true;
  }
  // An idle consumer sleeps on the bell instead of spinning, so that at low
  // rates the generator keeps a CPU to itself.
  void ring_bell() {
    bell_.fetch_add(1, std::memory_order_release);
    bell_.notify_one();
  }
  std::uint32_t bell() const { return bell_.load(std::memory_order_acquire); }
  void wait_bell(std::uint32_t seen) const { bell_.wait(seen, std::memory_order_acquire); }
  bool pop(Item& item) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    item = buf_[h & mask_];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }
  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  std::vector<Item> buf_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::atomic<std::uint32_t> bell_{0};
};

struct Worker;

struct Session {
  std::unique_ptr<Middleware> middleware;
  std::unique_ptr<TouchEventMonitor> monitor;
  std::vector<mfhttp::TouchEvent> events;   // the swipe cycle, back to back
  std::vector<std::uint32_t> swipe_begin;   // swipe j = [begin[j], begin[j+1])
  TimeMs cycle_span_ms = 0;                 // time shift per pass of the cycle
  std::uint32_t fed = 0;                    // gestures fed so far
  Fnv fp;                                   // over the first kFpGestures
  std::uint32_t gestures = 0;               // per fed swipe: recognized gestures
  std::uint32_t policies = 0;               // per fed swipe: policies delivered
  bool scrolls = false;
  Worker* worker = nullptr;
};

struct Counts {
  std::uint64_t gestures = 0;
  std::uint64_t policies = 0;
  std::uint64_t non_scroll = 0;
  std::uint64_t broken = 0;  // a swipe without exactly one policy or non-scroll
  std::uint64_t involved = 0;
  std::uint64_t downloads = 0;
  std::uint64_t planned_bytes = 0;
};

struct Worker {
  Worker(unsigned index, std::size_t phases)
      : log(false, index + 1), ring(1u << 17),
        t2p_us(phases), wait_us(phases), service_us(phases), busy_ns(phases, 0) {}

  SpanLog log;
  Ring ring;
  alignas(64) std::atomic<std::uint64_t> done{0};
  std::vector<std::vector<double>> t2p_us;  // per phase
  std::vector<std::vector<double>> wait_us;
  // Service time, worker start -> policy, as the worker's CPU time (the
  // host's steal and preemption left out).
  std::vector<std::vector<double>> service_us;
  std::vector<std::int64_t> busy_ns;
  Counts counts;
  double inject_core_us = 0;
  std::uint32_t parent = 0;  // span handle the core span nests under
  std::uint64_t op = 0;
};

void fold_policy(Fnv& fp, const ScrollAnalysis& analysis,
                 const DownloadPolicy& policy) {
  fp.u64(policy.decisions.size());
  fp.f64(policy.objective);
  for (const DownloadDecision& d : policy.decisions) {
    fp.u64(d.object_index);
    fp.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.version)));
    fp.f64(d.entry_time_ms);
    fp.f64(d.value);
  }
  fp.f64(analysis.prediction.displacement.y);
  fp.f64(analysis.prediction.duration_ms);
}

void build_session(Session& s, std::uint64_t seed, std::uint32_t id,
                   std::size_t swipes, Worker* worker) {
  const DeviceProfile device = DeviceProfile::nexus6();
  mfhttp::Rng master(mfhttp::splitmix64(seed ^ mfhttp::splitmix64(id + 1)));
  mfhttp::Rng page_rng = master.fork();
  mfhttp::Rng bw_rng = master.fork();
  mfhttp::Rng gesture_rng = master.fork();

  const auto& specs = mfhttp::alexa25_specs();
  mfhttp::WebPage page = mfhttp::generate_page(specs[id % specs.size()], device,
                                               page_rng);
  const double mean_bps = 16.0e6 / 8.0;
  mfhttp::BandwidthTrace bandwidth = mfhttp::BandwidthTrace::random_walk(
      bw_rng, mean_bps, mean_bps * 0.3, mean_bps * 0.2, mean_bps * 2.0, 180);

  Middleware::Params params;
  params.tracker.scroll = mfhttp::ScrollConfig(device);
  params.tracker.content_bounds = page.bounds();
  params.initial_viewport = {0, 0, device.screen_w_px, device.screen_h_px};
  s.middleware = std::make_unique<Middleware>(
      std::move(params), three_versions(std::move(page.images)),
      std::move(bandwidth), nullptr);
  s.worker = worker;

  Session* sp = &s;
  s.middleware->set_policy_callback(
      [sp](const ScrollAnalysis& analysis, const DownloadPolicy& policy) {
        Counts& c = sp->worker->counts;
        ++sp->policies;
        ++c.policies;
        c.involved += policy.decisions.size();
        c.planned_bytes += static_cast<std::uint64_t>(policy.total_bytes);
        for (const DownloadDecision& d : policy.decisions)
          if (d.download()) ++c.downloads;
        if (sp->fed < kFpGestures) fold_policy(sp->fp, analysis, policy);
      });
  s.monitor = std::make_unique<TouchEventMonitor>(
      device, [sp](const Gesture& g) {
        Worker& w = *sp->worker;
        ++sp->gestures;
        sp->scrolls = g.scrolls();
        const std::uint32_t h = w.log.open(SpanName::kCoreOnGesture, w.parent, w.op);
        spin_for_us(w.inject_core_us);
        sp->middleware->on_gesture(g);
        w.log.close(h);
        if (!sp->scrolls && sp->fed < kFpGestures) sp->fp.u64(0x6e6f6e7363726f6cull);
      });

  // The cycle scrolls down the page with swipes drawn from the device
  // class's speed distribution, then back up with the same swipes mirrored
  // in reverse order, so every pass of the cycle starts near the top of the
  // page: the sessions stay in a steady state instead of drifting to the
  // page end, where clamped flings are cheap.
  mfhttp::BrowsingGestureSource::Params down;
  down.p_scroll_up = 0;
  mfhttp::BrowsingGestureSource source(device, down, gesture_rng);
  std::vector<mfhttp::TouchTrace> traces;
  TimeMs next_down = 0;
  for (std::size_t j = 0; j < swipes / 2; ++j) {
    traces.push_back(source.next_swipe(next_down));
    next_down = traces.back().back().time_ms;
  }
  for (std::size_t j = swipes / 2; j-- > 0;) {
    mfhttp::TouchTrace mirrored = traces[j];
    const TimeMs think = mirrored.front().time_ms -
                         (j == 0 ? TimeMs{0} : traces[j - 1].back().time_ms);
    const TimeMs shift = next_down + think - mirrored.front().time_ms;
    for (mfhttp::TouchEvent& ev : mirrored) {
      ev.time_ms += shift;
      ev.pos.y = device.screen_h_px - ev.pos.y;
    }
    next_down = mirrored.back().time_ms;
    traces.push_back(std::move(mirrored));
  }
  for (const mfhttp::TouchTrace& trace : traces) {
    s.swipe_begin.push_back(static_cast<std::uint32_t>(s.events.size()));
    s.events.insert(s.events.end(), trace.begin(), trace.end());
  }
  s.swipe_begin.push_back(static_cast<std::uint32_t>(s.events.size()));
  // The next pass of the cycle starts one think time after the last lift.
  s.cycle_span_ms = next_down + 1000;
}

// Feeds session s its next swipe (the cycle shifted in time per pass).
void feed_next_swipe(Session& s) {
  s.gestures = 0;
  s.policies = 0;
  const std::size_t swipes = s.swipe_begin.size() - 1;
  const std::size_t j = s.fed % swipes;
  const TimeMs shift = static_cast<TimeMs>(s.fed / swipes) * s.cycle_span_ms;
  for (std::uint32_t e = s.swipe_begin[j]; e < s.swipe_begin[j + 1]; ++e) {
    mfhttp::TouchEvent ev = s.events[e];
    ev.time_ms += shift;
    s.monitor->on_touch_event(ev);
  }
}

void serve(Worker& w, std::vector<Session>& sessions, const Item& item) {
  Session& s = sessions[item.session];
  const std::int64_t start = now_ns();
  const std::int64_t cpu_start = cpu_ns();
  w.log.add(SpanName::kQueueWait, 0, item.op, item.due_ns, start);
  w.op = item.op;
  w.parent = w.log.open(SpanName::kGestureTouch, 0, item.op);
  feed_next_swipe(s);
  w.log.close(w.parent);
  const std::int64_t cpu_end = cpu_ns();
  const std::int64_t end = now_ns();

  // Traced run only: re-run the (const) analysis on every 8th policy's
  // prediction to time the scroll/geom layer on its own.
  if (w.log.enabled() && item.op % 8 == 0 && s.policies == 1 &&
      s.middleware->last_analysis()) {
    const std::uint32_t h = w.log.open(SpanName::kScrollAnalyze, 0, item.op);
    s.middleware->tracker().analyze(s.middleware->last_analysis()->prediction,
                                    s.middleware->objects(),
                                    s.middleware->object_index());
    w.log.close(h);
  }

  ++w.counts.gestures;
  if (s.gestures == 1 && !s.scrolls && s.policies == 0) ++w.counts.non_scroll;
  if (s.gestures != 1 || s.policies != (s.scrolls ? 1u : 0u)) ++w.counts.broken;
  ++s.fed;
  w.t2p_us[item.phase].push_back(static_cast<double>(end - item.due_ns) / 1e3);
  w.wait_us[item.phase].push_back(static_cast<double>(start - item.due_ns) / 1e3);
  w.service_us[item.phase].push_back(static_cast<double>(cpu_end - cpu_start) / 1e3);
  w.busy_ns[item.phase] += end - start;
}

// An idle worker spins this long before it sleeps on the ring's bell: long
// enough to catch the next gesture at the high rate without a wake-up, short
// enough that idle workers leave CPUs to the generator at the low rate.
constexpr std::int64_t kIdleSpinNs = 200'000;
// A release later than this counts in gen.late_frac.
constexpr double kLateUs = 100;

void worker_loop(Worker& w, std::vector<Session>& sessions,
                 const std::atomic<bool>& stop) {
  Item item;
  for (;;) {
    const std::uint32_t seen = w.ring.bell();
    if (w.ring.pop(item)) {
      serve(w, sessions, item);
      w.done.fetch_add(1, std::memory_order_release);
      continue;
    }
    if (stop.load(std::memory_order_acquire)) break;
    // Spin briefly, then sleep until the generator rings.
    const std::int64_t spin_until = now_ns() + kIdleSpinNs;
    bool ready = false;
    while (!ready && now_ns() < spin_until)
      ready = w.ring.size() > 0 || stop.load(std::memory_order_relaxed);
    if (!ready) w.ring.wait_bell(seen);
  }
}

// Spins to `due_ns`. The generator never sleeps: waking a sleeping thread
// on a virtual machine can take milliseconds, which would show as release
// lag.
void wait_until(std::int64_t due_ns) {
  while (now_ns() < due_ns) {
  }
}

enum class PhaseKind { kLow, kHigh, kLadder, kSaturateUntraced, kSaturateTraced };

struct Phase {
  PhaseKind kind = PhaseKind::kLow;
  double rate = 0;          // gestures per second; 0 = all due at once
  std::uint64_t count = 0;  // gestures released
  // Filled after the phase ran.
  std::vector<double> lag_us;
  std::size_t depth_max = 0;
  double drain_ms = 0;      // last release -> last policy
  double wall_s = 0;        // first due -> last policy
};

std::string phase_name(const Phase& p) {
  switch (p.kind) {
    case PhaseKind::kLow: return "low";
    case PhaseKind::kHigh: return "high";
    case PhaseKind::kLadder: return "ladder@" + std::to_string(static_cast<long>(p.rate));
    case PhaseKind::kSaturateUntraced: return "saturate.untraced";
    case PhaseKind::kSaturateTraced: return "saturate.traced";
  }
  return "?";
}

}  // namespace

Report run_gesture_paced(const Options& opts) {
  Report report;
  report.workload = "gesture_paced";
  report.host = host_at_start();
  const unsigned nworkers = opts.workers(report.host, kMaxWorkers);

  // ---- Phases: low and high interleaved in blocks, then the ladder. Each
  // releases a fixed count (rate x length), so the gesture stream depends
  // only on the seed and the run length.
  const double saturate_share = 0.15;
  const double measured_s = opts.seconds * (1.0 - saturate_share);
  std::vector<Phase> phases;
  auto add_phase = [&](PhaseKind kind, double rate, double seconds) {
    Phase p;
    p.kind = kind;
    p.rate = rate;
    p.count = static_cast<std::uint64_t>(std::max(1.0, std::round(rate * seconds)));
    phases.push_back(std::move(p));
  };
  const double block_s = measured_s * 0.7 / static_cast<double>(2 * kPacedBlocks);
  for (std::size_t b = 0; b < kPacedBlocks; ++b) {
    add_phase(PhaseKind::kLow, kRateLow, block_s);
    add_phase(PhaseKind::kHigh, kRateHigh, block_s);
  }
  const double rung_s =
      measured_s * 0.3 / static_cast<double>(std::size(kLadder) * kLadderClimbs);
  for (std::size_t climb = 0; climb < kLadderClimbs; ++climb)
    for (double r : kLadder) add_phase(PhaseKind::kLadder, r, rung_s);
  // Saturation blocks: every gesture of a block is due at once, so the
  // workers run flat out; their median rate is the saturation throughput. A
  // traced run alternates traced and untraced blocks (ABAB) for the tracing
  // overhead figure.
  for (int b = 0; b < 4; ++b) {
    add_phase(opts.trace && b % 2 == 1 ? PhaseKind::kSaturateTraced
                                       : PhaseKind::kSaturateUntraced,
              kSaturateRate, opts.seconds * saturate_share / 4);
    phases.back().rate = 0;
  }

  // ---- Set-up: the session pool, built and warmed in equal slices.
  std::vector<std::unique_ptr<Worker>> workers;
  for (unsigned i = 0; i < nworkers; ++i)
    workers.push_back(std::make_unique<Worker>(i, phases.size()));
  std::uint64_t total_gestures = 0;
  for (const Phase& p : phases) total_gestures += p.count;
  for (auto& w : workers) {
    w->inject_core_us = opts.inject_core_us;
    if (opts.trace) {
      w->log.set_enabled(true);
      w->log.reserve(4 * (total_gestures / nworkers + 16));
      w->log.set_enabled(false);
    }
    for (std::size_t p = 0; p < phases.size(); ++p) {
      w->t2p_us[p].reserve(phases[p].count / nworkers + 64);
      w->wait_us[p].reserve(phases[p].count / nworkers + 64);
      w->service_us[p].reserve(phases[p].count / nworkers + 64);
    }
  }
  std::vector<Session> sessions(kSessions);
  std::vector<double> slice_s;
  for (std::size_t slice = 0; slice < kSetupSlices; ++slice) {
    const std::size_t lo = kSessions * slice / kSetupSlices;
    const std::size_t hi = kSessions * (slice + 1) / kSetupSlices;
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> pool_threads;
    for (unsigned t = 0; t < nworkers; ++t) {
      pool_threads.emplace_back([&, t] {
        for (std::size_t s = lo; s < hi; ++s) {
          if (s % nworkers != t) continue;
          build_session(sessions[s], opts.seed, static_cast<std::uint32_t>(s),
                        kSwipesPerSession, workers[t].get());
          // Warm-up: a session's first gestures allocate its planning
          // buffers; the pool is timed warm, as live sessions would be.
          for (std::size_t g = 0; g < kWarmupGestures; ++g) {
            feed_next_swipe(sessions[s]);
            ++sessions[s].fed;
          }
        }
      });
    }
    for (std::thread& b : pool_threads) b.join();
    slice_s.push_back(seconds_since(t0));
  }
  const double setup_s = median(slice_s) * static_cast<double>(kSetupSlices);
  const double rss_after_setup = peak_rss_mb();
  for (auto& w : workers) {
    w->counts = Counts{};  // warm-up gestures are not part of the run
    w->log.set_enabled(opts.trace);
  }

  // Release order: gesture i goes to session order[i % kSessions].
  std::mt19937_64 rng(mfhttp::splitmix64(opts.seed ^ 0x67657374757265ull));
  std::vector<std::uint32_t> order(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kSessions; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);

  // ---- Timed phases.
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (auto& w : workers)
    threads.emplace_back(
        [&, wp = w.get()] { worker_loop(*wp, sessions, stop); });

  const std::int64_t run_start = now_ns();
  std::uint64_t released = 0;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    Phase& phase = phases[pi];
    if (opts.trace && phase.rate <= 0)
      for (auto& w : workers) w->log.set_enabled(phase.kind == PhaseKind::kSaturateTraced);
    phase.lag_us.assign(phase.count, 0.0);  // touched before timing
    const std::int64_t start = now_ns() + 200'000;  // 0.2 ms lead
    std::int64_t due = start;
    for (std::uint64_t n = 0; n < phase.count; ++n) {
      if (phase.rate > 0) {
        const double u = static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
        due += static_cast<std::int64_t>(-std::log1p(-u) / phase.rate * 1e9);
      }
      wait_until(due);
      const std::uint32_t s = order[released % kSessions];
      Worker& w = *workers[s % nworkers];
      const Item item{s, static_cast<std::uint32_t>(pi), released, due};
      while (!w.ring.push(item)) {
      }
      phase.lag_us[n] = static_cast<double>(now_ns() - due) / 1e3;
      phase.depth_max = std::max(phase.depth_max, w.ring.size());
      ++released;
    }
    const std::int64_t last_release = now_ns();
    // Wait until every worker has served everything released so far.
    for (;;) {
      std::uint64_t done = 0;
      for (auto& w : workers) done += w->done.load(std::memory_order_acquire);
      if (done == released) break;
      std::this_thread::yield();
    }
    const std::int64_t end = now_ns();
    phase.drain_ms = static_cast<double>(end - last_release) / 1e6;
    phase.wall_s = static_cast<double>(end - start) * 1e-9;
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w->ring.ring_bell();
  for (std::thread& t : threads) t.join();
  const double run_s = seconds_since(run_start);

  // ---- Per-phase figures.
  enum class Series { kT2p, kWait, kService };
  auto samples = [&](std::size_t pi, Series series) {
    std::vector<double> all;
    for (auto& w : workers) {
      const auto& v = series == Series::kWait      ? w->wait_us[pi]
                      : series == Series::kService ? w->service_us[pi]
                                                   : w->t2p_us[pi];
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };
  auto to_ms = [](std::vector<double> v) {
    for (double& x : v) x /= 1e3;
    return v;
  };
  // Touch-to-policy at one paced rate: median over the union of its blocks,
  // tail as the median of the blocks' own tails (one disturbed block does
  // not move it).
  struct Paced {
    std::vector<double> t2p_ms, wait_us;
    std::vector<double> block_tails;       // t2p, ms
    std::vector<double> block_wait_tails;  // queue wait, us
    std::vector<double> service_ms;
    std::vector<double> block_service_tails;  // ms
    TailStat block_tail;  // of the last block, for the sample count
    std::uint64_t missed = 0;        // t2p over the limit
    std::uint64_t slow_service = 0;  // service time over the limit
  };
  auto paced = [&](PhaseKind kind) {
    Paced out;
    for (std::size_t pi = 0; pi < phases.size(); ++pi) {
      if (phases[pi].kind != kind) continue;
      const std::vector<double> t = to_ms(samples(pi, Series::kT2p));
      const std::vector<double> w = samples(pi, Series::kWait);
      out.block_tail = tail(t, 99);
      out.block_tails.push_back(out.block_tail.value);
      out.block_wait_tails.push_back(tail(w, 99).value);
      const std::vector<double> sv = to_ms(samples(pi, Series::kService));
      out.block_service_tails.push_back(tail(sv, 99).value);
      out.service_ms.insert(out.service_ms.end(), sv.begin(), sv.end());
      for (double ms : sv)
        if (ms > kSloMs) ++out.slow_service;
      for (double ms : t)
        if (ms > kSloMs) ++out.missed;
      out.t2p_ms.insert(out.t2p_ms.end(), t.begin(), t.end());
      out.wait_us.insert(out.wait_us.end(), w.begin(), w.end());
    }
    return out;
  };
  const Paced low = paced(PhaseKind::kLow);
  const Paced high = paced(PhaseKind::kHigh);
  const double low_p99 = median(low.block_tails);
  const double high_p99 = median(high.block_tails);
  const std::uint64_t paced_n = low.t2p_ms.size() + high.t2p_ms.size();
  const std::uint64_t missed = low.missed + high.missed;
  const std::uint64_t slow_service = low.slow_service + high.slow_service;

  // Capacity: highest ladder rate whose tail meets the limit with the
  // backlog drained within one limit after the last release (median over
  // the climbs), interpolated in log latency towards the first failing rung.
  double capacity = 0;
  std::string capacity_note;
  double prev_rate = 0, prev_worst = 0;
  bool all_pass = true;
  for (double rate : kLadder) {
    // max(t2p tail, drain) of each climb at this rate; the median decides.
    std::vector<double> climbs;
    std::string per_climb;
    for (std::size_t pi = 0; pi < phases.size(); ++pi) {
      if (phases[pi].kind != PhaseKind::kLadder || phases[pi].rate != rate) continue;
      const TailStat t = tail(to_ms(samples(pi, Series::kT2p)), 99);
      climbs.push_back(std::max(t.value, phases[pi].drain_ms));
      char part[64];
      std::snprintf(part, sizeof(part), " %.3f (p%.0f n=%zu)", climbs.back(), t.used, t.n);
      per_climb += part;
    }
    const double worst = median(climbs);
    const bool pass = worst <= kSloMs;
    char line[240];
    std::snprintf(line, sizeof(line),
                  "ladder %.0f/s: max(t2p tail, drain) ms per climb%s; median %.3f -> %s",
                  rate, per_climb.c_str(), worst, pass ? "meets limit" : "misses limit");
    report.notes.push_back(line);
    if (!all_pass) continue;
    if (!pass) {
      all_pass = false;
      if (prev_rate == 0) {
        capacity = rate * kSloMs / worst;
        capacity_note = "below the ladder; scaled from its first rung";
      } else {
        const double lp = std::log(std::max(prev_worst, 1e-3));
        const double lf = std::log(worst);
        const double frac =
            lf > lp ? std::clamp((std::log(kSloMs) - lp) / (lf - lp), 0.0, 1.0) : 0.0;
        capacity = prev_rate + (rate - prev_rate) * frac;
      }
      continue;
    }
    prev_rate = rate;
    prev_worst = worst;
  }
  if (all_pass) {
    capacity = prev_rate;
    capacity_note = "at or above the top rung";
  }
  if (!capacity_note.empty()) report.notes.push_back("capacity " + capacity_note);

  // Generator honesty: a phase whose release lag p99 exceeds the stated
  // limit is invalid; it is counted and reported, never dropped.
  std::vector<double> lag_all;
  std::uint64_t late = 0;
  std::size_t depth_max = 0;
  for (const Phase& p : phases) {
    if (p.rate <= 0) continue;  // saturation blocks release all at once
    const double lag_p99 = percentile(p.lag_us, 99);
    if (lag_p99 > kGenLagLimitUs) {
      ++report.invalid_phases;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "INVALID phase %s: generator lag p99 %.1f us > limit %.0f us",
                    phase_name(p).c_str(), lag_p99, kGenLagLimitUs);
      report.notes.push_back(line);
    }
    for (double l : p.lag_us) {
      lag_all.push_back(l);
      if (l > kLateUs) ++late;
    }
    depth_max = std::max(depth_max, p.depth_max);
  }

  Counts total;
  std::int64_t busy_ns = 0;
  for (auto& w : workers) {
    total.gestures += w->counts.gestures;
    total.policies += w->counts.policies;
    total.non_scroll += w->counts.non_scroll;
    total.broken += w->counts.broken;
    total.involved += w->counts.involved;
    total.downloads += w->counts.downloads;
    total.planned_bytes += w->counts.planned_bytes;
    for (std::int64_t b : w->busy_ns) busy_ns += b;
  }

  // Decision fingerprint: every session's first kFpGestures policies (the
  // warm-up ones included), folded in session-id order.
  Fnv fp;
  std::size_t short_sessions = 0;
  for (const Session& s : sessions) {
    if (s.fed < kFpGestures) ++short_sessions;
    fp.u64(s.fp.h);
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(fp.h));
  report.fingerprint = hex;

  std::vector<double> untraced, traced;  // saturation block rates
  for (const Phase& p : phases) {
    const double thr = static_cast<double>(p.count) / p.wall_s;
    if (p.kind == PhaseKind::kSaturateUntraced) untraced.push_back(thr);
    if (p.kind == PhaseKind::kSaturateTraced) traced.push_back(thr);
  }
  // Service throughput: gestures per second of worker service CPU time over
  // every untraced phase of the run, times the workers. It is the rate the
  // workers sustain while they serve, taken over the whole run rather than
  // the few saturation blocks, and leaves out host steal and preemption.
  double service_cpu_us = 0;
  std::uint64_t served = 0;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    if (phases[pi].kind == PhaseKind::kSaturateTraced) continue;
    for (auto& w : workers) {
      for (double us : w->service_us[pi]) service_cpu_us += us;
      served += w->service_us[pi].size();
    }
  }
  const double service_ops_s =
      static_cast<double>(served) * nworkers / std::max(service_cpu_us * 1e-6, 1e-9);

  // ---- Checks.
  const double wait_low_p99 = median(low.block_wait_tails);
  const double wait_high_p99 = median(high.block_wait_tails);
  report.check("every released gesture was served", total.gestures == released);
  report.check("every gesture yields one policy or a recorded non-scroll",
               total.broken == 0 && total.policies + total.non_scroll == released);
  report.check("fingerprint covers every session", short_sessions == 0);
  report.check("witness: queue wait p99 at high exceeds low", wait_high_p99 > wait_low_p99);
  report.check("witness: policies were planned", total.policies > 0 && total.downloads > 0);
  report.attempted = released;
  report.failed = total.broken;

  // ---- End-to-end metrics.
  const double bytes_per_op =
      static_cast<double>(total.planned_bytes) / static_cast<double>(released);
  const double fail_rate = static_cast<double>(missed) / static_cast<double>(paced_n);
  report.e2e["setup_s"] = {setup_s, "s"};
  report.e2e["throughput_ops_s"] = {service_ops_s, "ops/s"};
  // The gated latency is touch-to-policy service time at the high rate
  // (worker start -> policy, CPU time) and success is the share of paced
  // gestures served within the limit; the figures from the due time, which
  // add queue wait, generator lag and host stalls, are the t2p_* and
  // fail_rate details below.
  report.e2e["latency_p50_ms"] = {percentile(high.service_ms, 50), "ms"};
  report.e2e["latency_p99_ms"] = {median(high.block_service_tails), "ms"};
  report.e2e["success_ratio"] = {
      1.0 - static_cast<double>(slow_service) / static_cast<double>(paced_n), "ratio"};
  report.e2e["bytes_per_op"] = {bytes_per_op, "B/op"};

  report.detail["service_p50_ms.high"] = report.e2e["latency_p50_ms"];
  report.detail["service_p99_ms.high"] = report.e2e["latency_p99_ms"];
  report.detail["t2p_p50_ms.low"] = {percentile(low.t2p_ms, 50), "ms"};
  report.detail["t2p_p99_ms.low"] = {low_p99, "ms"};
  report.detail["t2p_p50_ms.high"] = {percentile(high.t2p_ms, 50), "ms"};
  report.detail["t2p_p99_ms.high"] = {high_p99, "ms"};
  report.detail["capacity_gps"] = {capacity, "gestures/s"};
  report.detail["saturation_gps"] = {median(untraced), "gestures/s"};
  report.detail["fail_rate"] = {fail_rate, "ratio"};
  report.detail["planned_bytes_per_op"] = {bytes_per_op, "B/op"};
  report.detail["pool_rss_mb"] = {rss_after_setup, "MB"};
  char line[240];
  std::snprintf(line, sizeof(line),
                "pool %zu sessions, %u workers, %llu gestures in %.2f s; t2p p99 is "
                "the median of %zu block p%.0f (low n=%zu, high n=%zu per block)",
                kSessions, nworkers, static_cast<unsigned long long>(released), run_s, kPacedBlocks,
                high.block_tail.used, low.block_tail.n, high.block_tail.n);
  report.notes.push_back(line);

  // ---- Per-layer metrics.
  std::vector<const SpanLog*> logs;
  for (auto& w : workers) logs.push_back(&w->log);
  const SpanStats spans = summarize(logs);
  auto& L = report.layer;
  const std::vector<double>& touch_self = spans.self(SpanName::kGestureTouch);
  const std::vector<double>& core = spans.dur(SpanName::kCoreOnGesture);
  const std::vector<double>& analyze = spans.dur(SpanName::kScrollAnalyze);
  L["gesture.on_touch_self_us.p50"] = {percentile(touch_self, 50), "us"};
  L["gesture.on_touch_self_us.p99"] = {tail(touch_self, 99).value, "us"};
  L["gesture.busy_s"] = {
      spans.busy(SpanName::kGestureTouch) - spans.busy(SpanName::kCoreOnGesture), "s"};
  L["core.on_gesture_us.p50"] = {percentile(core, 50), "us"};
  L["core.on_gesture_us.p99"] = {tail(core, 99).value, "us"};
  L["core.busy_s"] = {spans.busy(SpanName::kCoreOnGesture), "s"};
  const double policies = static_cast<double>(std::max<std::uint64_t>(total.policies, 1));
  L["core.policies"] = {static_cast<double>(total.policies), "count"};
  L["core.involved_per_policy"] = {static_cast<double>(total.involved) / policies, "count"};
  L["core.downloads_per_policy"] = {static_cast<double>(total.downloads) / policies, "count"};
  L["core.planned_bytes_per_policy"] = {
      static_cast<double>(total.planned_bytes) / policies, "B"};
  L["scroll.analyze_us.p50"] = {percentile(analyze, 50), "us"};
  L["scroll.analyze_us.p99"] = {tail(analyze, 99).value, "us"};
  std::vector<double> wait_all;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    if (phases[pi].rate <= 0) continue;
    const std::vector<double> v = samples(pi, Series::kWait);
    wait_all.insert(wait_all.end(), v.begin(), v.end());
  }
  L["queue.wait_us.p50"] = {percentile(wait_all, 50), "us"};
  L["queue.wait_us.p99"] = {tail(wait_all, 99).value, "us"};
  L["queue.wait_us.p99.low"] = {wait_low_p99, "us"};
  L["queue.wait_us.p99.high"] = {wait_high_p99, "us"};
  L["queue.depth_max"] = {static_cast<double>(depth_max), "count"};
  L["worker.busy_frac"] = {
      static_cast<double>(busy_ns) * 1e-9 / (run_s * static_cast<double>(nworkers)), "ratio"};
  L["gen.lag_us.p99"] = {percentile(lag_all, 99), "us"};
  L["gen.late_frac"] = {
      lag_all.empty() ? 0.0 : static_cast<double>(late) / static_cast<double>(lag_all.size()),
      "ratio"};
  L["gen.invalid_phases"] = {static_cast<double>(report.invalid_phases), "count"};
  if (opts.trace) {
    L["trace.untraced_ops_s"] = {median(untraced), "ops/s"};
    L["trace.traced_ops_s"] = {median(traced), "ops/s"};
    L["trace.overhead_pct"] = {(median(untraced) / median(traced) - 1.0) * 100.0, "%"};
    if (!opts.trace_out.empty() &&
        !write_chrome_trace(opts.trace_out, logs, run_start, 100'000))
      report.notes.push_back("could not write " + opts.trace_out);
  }

  report.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  host_at_end(report.host);
  return report;
}

}  // namespace perfbench
