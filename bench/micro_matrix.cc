// Pinned micro-benchmark matrix: the repo's one micro-benchmark harness for
// the touch-to-policy hot path (DESIGN.md §17). The paper re-runs the
// optimizer "whenever a user touch event is detected" (§3.4.2), so every
// stage here must fit well under one frame (~16 ms). One row per stage,
// every stage on a fixed seed, in the order a touch flows through them:
//
//   coverage_scalar / coverage_batch   per-object swept-viewport kernels vs
//                                      the SoA batch over the arena
//   analyze_aos / analyze_arena        full ScrollTracker::analyze
//   touch_replan_aos / _arena          the full per-touch production path:
//                                      analyze + FlowController re-solve
//   header_parse                       HttpParser over a typical request
//   header_lookup                      HeaderMap get_view/contains/
//                                      content_length (must not allocate)
//   cache_key                          url reconstruction + If-None-Match
//                                      match, the sim cache's key path
//   fling_construct                    FlingModel (Eqs. 1-5) per release
//                                      velocity
//   fling_distance_at                  fling displacement sampled on the
//                                      coverage step grid
//   velocity_lsq2                      VelocityTracker over a release trace
//   swept_test                         intersects_swept_region per object
//   analyze_indexed                    analyze through the y-interval index
//                                      (Middleware::on_gesture's path)
//   flow_optimize                      stateless FlowController::optimize
//   knapsack_dp                        the full prefix-knapsack DP (Eq. 14)
//   knapsack_tail_change / _unchanged  the incremental solver when only the
//                                      last item moves / nothing moves
//   visible_tiles / tile_plan          360° video: FOV tile mask, and mask
//                                      plus per-segment tile/rate plan
//   proxy_blocklist_session            §5.1 end to end: intercept, defer,
//                                      policy release through the MITM
//                                      proxy over the bottleneck link
//   link_fair_share                    64 transfers on a fair-share link
//
// Each row carries an FNV-1a fingerprint over the stage's results — a pure
// function of the seed, gated exact by tools/bench_gate.py — plus wall
// ns/op (best of K passes) and, on fast twins, the same-run speedup over
// the slow twin. Decision parity is asserted in-binary: batch vs scalar,
// arena and indexed analyze vs AoS, optimize vs replan, incremental vs full
// knapsack. A fast path that changes answers is a bug, not a win.
//
//   micro_matrix [--reps N] [--passes K] [--seed S] [--json BENCH_micro.json]
//                [--assert-speedup X]   # fail unless the batched coverage
//                                       # AND arena replan speedups >= X
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <new>
#include <string>
#include <vector>

#include "cli/standard_options.h"
#include "core/flow_controller.h"
#include "core/knapsack.h"
#include "core/object_arena.h"
#include "core/scroll_tracker.h"
#include "geom/coverage_batch.h"
#include "geom/swept_region.h"
#include "gesture/velocity_tracker.h"
#include "http/fetch_pipeline.h"
#include "http/parser.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "net/link.h"
#include "scroll/fling.h"
#include "util/fnv.h"
#include "util/json.h"
#include "util/rng.h"
#include "video/dash.h"
#include "video/scheduler.h"
#include "web/blocklist_controller.h"
#include "web/corpus.h"

// Global allocation counter for the zero-alloc gate on the header rows.
// Relaxed is fine: the bench is single-threaded.
namespace {
std::atomic<unsigned long long> g_allocs{0};
}

// Counting via malloc/free keeps the override self-contained; GCC's
// -Wmismatched-new-delete can't see the pairing through the counter, hence
// the pragma rather than a code change.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mfhttp;
using Clock = std::chrono::steady_clock;

// The basis every BENCH_micro fingerprint was recorded with. It is one
// digit short of the standard FNV-1a offset; keeping it keeps the checked-in
// baseline bit-exact.
constexpr std::uint64_t kFingerprintBasis = 1469598103934665603ull;

// Keeps a result the timed loop would otherwise discard, so the optimizer
// cannot delete the work being timed.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct StageRow {
  std::string stage;
  unsigned long long ops = 0;
  double ns_per_op = 0;
  double speedup = 0;              // 0: no slow twin
  std::uint64_t fingerprint = 0;
  unsigned long long allocs = 0;   // heap allocations over every timed pass
  long long allocs_per_op = -1;    // -1: not published for this stage
  bool has_parity = false;
  bool parity_ok = false;
};

// Best-of-K timing: each stage's reps loop runs `passes` times and the
// fastest pass is reported. Min-time is the standard defense against
// scheduler preemption and frequency dips on shared runners — one slow pass
// in either twin would otherwise swing the reported speedup ratio by 2-4x.
template <typename Body>
double best_ns_per_op(unsigned long long passes, unsigned long long ops,
                      Body&& body) {
  double best = 0;
  for (unsigned long long p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    const double ns = static_cast<double>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t1 - t0)
                              .count()) /
                      static_cast<double>(ops);
    if (p == 0 || ns < best) best = ns;
  }
  return best;
}

struct Matrix {
  Matrix(unsigned long long stage_reps, unsigned long long timing_passes)
      : reps(stage_reps), passes(timing_passes) {}

  unsigned long long reps;
  unsigned long long passes;
  std::deque<StageRow> rows;  // deque: rows keep their address as it grows
  bool all_parity_ok = true;

  // One row: `body` runs the stage's `ops` operations once per timing pass;
  // `print` folds the stage's results into the fingerprint afterwards,
  // outside the timed region.
  template <typename Body, typename Print>
  StageRow& stage(const char* name, unsigned long long ops, Body&& body,
                  Print&& print) {
    StageRow& row = rows.emplace_back();
    row.stage = name;
    row.ops = ops;
    const unsigned long long allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    row.ns_per_op = best_ns_per_op(passes, ops, body);
    row.allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
    Fnv h{kFingerprintBasis};
    print(h);
    row.fingerprint = h.h;
    return row;
  }

  // `f` over every input, `reps` times; the fingerprint folds each
  // input's result once.
  template <typename Inputs, typename F, typename Fold>
  StageRow& map(const char* name, const Inputs& inputs, F&& f, Fold&& fold) {
    return stage(
        name, reps * inputs.size(),
        [&] {
          for (unsigned long long rep = 0; rep < reps; ++rep)
            for (const auto& in : inputs) keep(f(in));
        },
        [&](Fnv& h) {
          for (const auto& in : inputs) fold(h, f(in));
        });
  }

  // `f` called `ops` times; the fingerprint folds one more call's result.
  template <typename F, typename Fold>
  StageRow& repeat(const char* name, unsigned long long ops, F&& f,
                   Fold&& fold) {
    return stage(
        name, ops,
        [&] {
          for (unsigned long long op = 0; op < ops; ++op) keep(f());
        },
        [&](Fnv& h) { fold(h, f()); });
  }

  static void speedup(StageRow& fast, const StageRow& slow) {
    fast.speedup = fast.ns_per_op > 0 ? slow.ns_per_op / fast.ns_per_op : 0;
  }

  // `row` must reproduce `reference` bit for bit.
  void parity(StageRow& row, std::uint64_t reference) {
    row.has_parity = true;
    row.parity_ok = row.fingerprint == reference;
    all_parity_ok = all_parity_ok && row.parity_ok;
  }

  // `fast` computes what `slow` computes: same-run speedup plus parity.
  void twin(StageRow& fast, const StageRow& slow) {
    speedup(fast, slow);
    parity(fast, slow.fingerprint);
  }
};

void fnv_analysis(Fnv& h, const ScrollAnalysis& analysis) {
  for (const ObjectCoverage& c : analysis.coverages) {
    h.u64(c.object_index);
    h.u64((c.involved ? 1u : 0u) | (c.in_initial_viewport ? 2u : 0u) |
          (c.in_final_viewport ? 4u : 0u));
    h.f64(c.entry_time_ms);
    h.f64(c.coverage_integral);
    h.f64(c.final_coverage);
  }
}

void fnv_policy(Fnv& h, const DownloadPolicy& policy) {
  for (const DownloadDecision& d : policy.decisions) {
    h.u64(d.object_index);
    h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.version)));
    h.f64(d.entry_time_ms);
    h.f64(d.qoe);
    h.f64(d.cost);
    h.f64(d.value);
  }
  h.f64(policy.objective);
  h.u64(static_cast<std::uint64_t>(policy.total_bytes));
}

void fnv_solution(Fnv& h, const KnapsackSolution& solution) {
  for (int c : solution.chosen) h.i32(c);
  h.f64(solution.total_value);
  h.u64(static_cast<std::uint64_t>(solution.total_weight));
}

Gesture fling(Vec2 v) {
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = -150;
  g.up_time_ms = 0;
  g.down_pos = {700, 1800};
  g.up_pos = g.down_pos + v * 0.15;
  g.release_velocity = v;
  return g;
}

// Prefix-knapsack instance family: cumulative capacities of 20-120 kB per
// item, four versions per item at 1x-4x a base weight and value.
std::vector<KnapsackItem> knapsack_items(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<KnapsackItem> items;
  Bytes cap = 0;
  for (int i = 0; i < n; ++i) {
    cap += rng.uniform_int(20'000, 120'000);
    KnapsackItem it;
    it.capacity = cap;
    Bytes w = rng.uniform_int(5'000, 60'000);
    double v = rng.uniform(0.1, 0.5);
    for (int j = 0; j < 4; ++j) {
      it.weights.push_back(w * (j + 1));
      it.values.push_back(v * (j + 1));
    }
    items.push_back(std::move(it));
  }
  return items;
}

std::string typical_request_text() {
  return "GET /article/42?ref=home HTTP/1.1\r\n"
         "Host: news.example\r\n"
         "User-Agent: mfhttp-bench/1.0\r\n"
         "Accept: text/html,application/xhtml+xml\r\n"
         "Accept-Encoding: gzip, br\r\n"
         "Accept-Language: en-US,en;q=0.9\r\n"
         "Connection: keep-alive\r\n"
         "Cache-Control: max-age=0\r\n"
         "If-None-Match: \"a1b2c3d4\"\r\n"
         "Range: bytes=0-65535\r\n"
         "X-Mfhttp-Session: s-17\r\n"
         "\r\n";
}

unsigned long long parse_reps(const char* flag, const std::string& s) {
  char* end = nullptr;
  unsigned long v = std::strtoul(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v == 0)
    CliOptions::fail(flag, s, "expected a positive integer");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string reps_s, seed_s, passes_s, json_path, assert_speedup_s;
  cli::StandardOptions standard_options(argc, argv, [&](CliOptions& options) {
    options.add_string("--reps", "N", "repetitions per stage (default 400)", &reps_s)
        .add_string("--passes", "K",
                    "timing passes per stage, best one reported (default 5)",
                    &passes_s)
        .add_string("--seed", "S", "corpus/gesture seed (default 1)", &seed_s)
        .add_string("--json", "PATH", "result document (default BENCH_micro.json)",
                    &json_path)
        .add_string("--assert-speedup", "X",
                    "exit 1 unless batched coverage AND arena replan reach Xx "
                    "(CI perf gate)",
                    &assert_speedup_s);
  });
  const unsigned long long reps = reps_s.empty() ? 400 : parse_reps("--reps", reps_s);
  const unsigned long long passes =
      passes_s.empty() ? 5 : parse_reps("--passes", passes_s);
  const std::uint64_t seed = seed_s.empty() ? 1 : parse_reps("--seed", seed_s);
  if (json_path.empty()) json_path = "BENCH_micro.json";

  // Fixture: the densest fig7 corpus page (the Sohu-like limited-viewport
  // site) on the flagship profile, swept by the fig7 swipe ramp.
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(seed);
  std::vector<WebPage> corpus = generate_corpus(device, rng);
  const WebPage* page = &corpus.front();
  for (const WebPage& p : corpus)
    if (p.images.size() > page->images.size()) page = &p;
  const std::vector<MediaObject>& objects = page->images;
  ObjectArena arena(objects);

  ScrollTracker::Params tp;
  tp.scroll = ScrollConfig(device);
  tp.coverage_step_ms = 4.0;
  ScrollTracker tracker(tp);
  const Rect viewport{0, 0, device.screen_w_px, device.screen_h_px};
  std::vector<Vec2> velocities;
  std::vector<ScrollPrediction> preds;
  std::vector<SweptRegion> sweeps;
  for (int r = 0; r < 3; ++r) {
    velocities.push_back({0, -(3000.0 + 2500.0 * r)});
    preds.push_back(tracker.predict(fling(velocities.back()), viewport));
    sweeps.push_back(preds.back().sweep());
  }
  const auto bandwidth = BandwidthTrace::constant(500'000);

  std::printf("=== Micro matrix: %zu objects (%s), %llu reps, seed %llu ===\n\n",
              objects.size(), page->site.c_str(), reps,
              static_cast<unsigned long long>(seed));
  Matrix m(reps, passes);

  // ---- coverage: scalar per-object loop vs SoA batch ----
  std::vector<double> frac(objects.size());
  StageRow& coverage_scalar = m.stage(
      "coverage_scalar", reps * sweeps.size() * objects.size(),
      [&] {
        for (unsigned long long rep = 0; rep < reps; ++rep)
          for (const SweptRegion& sweep : sweeps)
            for (std::size_t i = 0; i < objects.size(); ++i)
              frac[i] = first_overlap_fraction(sweep, objects[i].rect);
      },
      [&](Fnv& h) {
        for (const SweptRegion& sweep : sweeps)
          for (const MediaObject& o : objects)
            h.f64(first_overlap_fraction(sweep, o.rect));
      });

  const geom::RectSoA soa = arena.rects();
  StageRow& coverage_batch = m.stage(
      "coverage_batch", coverage_scalar.ops,
      [&] {
        for (unsigned long long rep = 0; rep < reps; ++rep)
          for (const SweptRegion& sweep : sweeps)
            geom::first_overlap_fraction_batch(sweep, soa, frac.data());
      },
      [&](Fnv& h) {
        for (const SweptRegion& sweep : sweeps) {
          geom::first_overlap_fraction_batch(sweep, soa, frac.data());
          for (double f : frac) h.f64(f);
        }
      });
  m.twin(coverage_batch, coverage_scalar);

  // ---- full analyze: AoS vs arena ----
  StageRow& analyze_aos = m.map(
      "analyze_aos", preds,
      [&](const ScrollPrediction& pred) { return tracker.analyze(pred, objects); },
      fnv_analysis);
  StageRow& analyze_arena = m.map(
      "analyze_arena", preds,
      [&](const ScrollPrediction& pred) { return tracker.analyze(pred, arena); },
      fnv_analysis);
  m.twin(analyze_arena, analyze_aos);

  // ---- per-touch replan: the §3.4.2 production path (analyze + re-solve) ----
  // The knapsack re-solve is layout-insensitive once it has its analysis (it
  // walks candidate lists, not page objects), so timing replan() alone shows
  // parity but no layout speedup. What actually runs on every touch event is
  // analyze -> replan; that composite is the row, and it is what the
  // --assert-speedup gate measures.
  FlowController aos_flow{FlowController::Params{}};
  auto replan_aos = [&](const ScrollPrediction& pred) {
    return aos_flow.replan(tracker.analyze(pred, objects), objects, bandwidth);
  };
  for (const ScrollPrediction& pred : preds) replan_aos(pred);  // warm
  StageRow& touch_replan_aos = m.map("touch_replan_aos", preds, replan_aos, fnv_policy);

  FlowController arena_flow{FlowController::Params{}};
  auto replan_arena = [&](const ScrollPrediction& pred) {
    return arena_flow.replan(tracker.analyze(pred, arena), arena, bandwidth);
  };
  for (const ScrollPrediction& pred : preds) replan_arena(pred);  // warm
  StageRow& touch_replan_arena =
      m.map("touch_replan_arena", preds, replan_arena, fnv_policy);
  m.twin(touch_replan_arena, touch_replan_aos);

  // ---- header parse ----
  const std::string request_text = typical_request_text();
  auto parse_request = [&request_text] {
    HttpParser parser(HttpParser::Mode::kRequest);
    parser.feed(request_text);
    return parser.take_request();
  };
  m.repeat("header_parse", reps * 64, parse_request,
           [](Fnv& h, const HttpRequest& req) {
             h.u64(req.headers.size());
             for (const auto& entry : req.headers) {
               h.bytes(entry.name().data(), entry.name().size());
               h.bytes(entry.value().data(), entry.value().size());
             }
           });

  // ---- header lookup (the zero-alloc gate) ----
  const HttpRequest req = parse_request();
  static const char* const kNames[] = {"Host", "Connection", "If-None-Match",
                                       "Range", "Accept-Encoding",
                                       "X-Mfhttp-Session", "content-length"};
  const unsigned long long lookup_ops = reps * 256;
  std::uint64_t sink = 0;
  StageRow& header_lookup = m.stage(
      "header_lookup", lookup_ops,
      [&] {
        for (unsigned long long op = 0; op < lookup_ops; ++op) {
          for (const char* name : kNames)
            if (auto v = req.headers.get_view(name)) sink += v->size();
          sink += req.headers.contains("Transfer-Encoding") ? 1 : 0;
          sink += static_cast<std::uint64_t>(
              req.headers.content_length().value_or(0));
        }
      },
      [&](Fnv& h) {
        h.u64(sink / lookup_ops);
        for (const char* name : kNames)
          if (auto v = req.headers.get_view(name)) h.bytes(v->data(), v->size());
      });
  // The tally spans every timing pass; one heap hit anywhere fails (round
  // up so a sub-1/op trickle cannot divide away to zero).
  const unsigned long long lookup_total = lookup_ops * passes;
  header_lookup.allocs_per_op = static_cast<long long>(
      (header_lookup.allocs + lookup_total - 1) / lookup_total);

  // ---- cache key path: url reconstruction + conditional-request match ----
  const std::string etag = "\"a1b2c3d4\"";
  const unsigned long long key_ops = reps * 64;
  std::uint64_t matches = 0;
  std::string last_key;
  m.stage(
      "cache_key", key_ops,
      [&] {
        matches = 0;
        for (unsigned long long op = 0; op < key_ops; ++op) {
          auto url = req.url();
          std::string key = url ? url->to_string() : req.target;
          const auto inm = req.headers.get_view("If-None-Match");
          if (inm && *inm == etag) ++matches;
          last_key = std::move(key);
        }
      },
      [&](Fnv& h) {
        h.bytes(last_key.data(), last_key.size());
        h.u64(matches / key_ops);
      });

  // ---- fling model (Eqs. 1-5): one model per release speed ----
  const FlingParams& fling_params = tp.scroll.fling;
  std::vector<double> speeds;
  for (int i = 0; i < 64; ++i) speeds.push_back(500.0 + 305.0 * i);
  m.map(
      "fling_construct", speeds,
      [&](double v) { return FlingModel(v, fling_params); },
      [](Fnv& h, const FlingModel& model) {
        h.f64(model.duration_ms());
        h.f64(model.total_distance_px());
      });

  // ---- fling displacement on the coverage step grid ----
  std::vector<FlingModel> models;
  for (const Vec2& v : velocities) models.emplace_back(-v.y, fling_params);
  std::vector<std::pair<const FlingModel*, double>> samples;
  for (const FlingModel& model : models)
    for (double t = 0; t <= model.duration_ms(); t += tp.coverage_step_ms)
      samples.emplace_back(&model, t);
  m.map(
      "fling_distance_at", samples,
      [](const auto& sample) { return sample.first->distance_at(sample.second); },
      [](Fnv& h, double d) { h.f64(d); });

  // ---- release velocity: LSQ2 over each fling's last 96 ms of touches ----
  std::vector<TouchTrace> traces;
  for (const Vec2& v : velocities) {
    TouchTrace& trace = traces.emplace_back();
    for (TimeMs t = 0; t <= 96; t += 8)
      trace.push_back({t, Vec2{700, 1800} + v * (static_cast<double>(t) / 1000.0),
                       t == 0 ? TouchAction::kDown : TouchAction::kMove});
  }
  VelocityTracker velocity_tracker(VelocityStrategy::kLsq2);
  m.map(
      "velocity_lsq2", traces,
      [&](const TouchTrace& trace) {
        for (const TouchEvent& ev : trace) velocity_tracker.add(ev);  // DOWN resets
        return velocity_tracker.velocity();
      },
      [](Fnv& h, Vec2 v) {
        h.f64(v.x);
        h.f64(v.y);
      });

  // ---- swept-region involvement test ----
  m.stage(
      "swept_test", coverage_scalar.ops,
      [&] {
        for (unsigned long long rep = 0; rep < reps; ++rep)
          for (const SweptRegion& sweep : sweeps)
            for (const MediaObject& o : objects)
              keep(intersects_swept_region(sweep, o.rect));
      },
      [&](Fnv& h) {
        for (const SweptRegion& sweep : sweeps)
          for (const MediaObject& o : objects)
            h.u64(intersects_swept_region(sweep, o.rect) ? 1 : 0);
      });

  // ---- analyze through the y-interval index: Middleware::on_gesture ----
  const ObjectIntervalIndex index(objects);
  StageRow& analyze_indexed = m.map(
      "analyze_indexed", preds,
      [&](const ScrollPrediction& pred) { return tracker.analyze(pred, objects, index); },
      fnv_analysis);
  m.twin(analyze_indexed, analyze_aos);

  // ---- stateless optimize: replan() must match it bit for bit ----
  std::vector<ScrollAnalysis> analyses;
  for (const ScrollPrediction& pred : preds)
    analyses.push_back(tracker.analyze(pred, objects));
  const FlowController stateless_flow{FlowController::Params{}};
  StageRow& flow_optimize = m.map(
      "flow_optimize", analyses,
      [&](const ScrollAnalysis& a) {
        return stateless_flow.optimize(a, objects, bandwidth);
      },
      fnv_policy);
  m.parity(flow_optimize, touch_replan_aos.fingerprint);

  // ---- prefix knapsack (Eq. 14): full DP, then the incremental solver ----
  constexpr Bytes kUnit = 1024;
  std::vector<KnapsackItem> items = knapsack_items(32, seed);
  auto full_dp = [&] { return solve_prefix_knapsack(items, kUnit); };
  KnapsackScratch scratch;
  auto incremental = [&] {
    return solve_prefix_knapsack_incremental(items, kUnit, &scratch);
  };
  const unsigned long long dp_ops = (reps + 15) / 16;
  StageRow& knapsack_dp = m.repeat("knapsack_dp", dp_ops, full_dp, fnv_solution);

  // The touch-to-touch pattern replan() hits: same objects, the last item's
  // value nudged per touch, so only the DP's last row is re-solved. The
  // value alternates between two fixed numbers (not += -=, which drifts),
  // and an even op count ends every pass on the base value.
  double& tail_value = items.back().values.back();
  const double tail_values[] = {tail_value + 0.001, tail_value};
  Fnv full_tail{kFingerprintBasis};
  for (double v : tail_values) {
    tail_value = v;
    fnv_solution(full_tail, full_dp());
  }
  incremental();  // warm
  StageRow& knapsack_tail = m.stage(
      "knapsack_tail_change", 2 * dp_ops,
      [&] {
        for (unsigned long long op = 0; op < 2 * dp_ops; ++op) {
          tail_value = tail_values[op & 1];
          keep(incremental());
        }
      },
      [&](Fnv& h) {
        for (double v : tail_values) {
          tail_value = v;
          fnv_solution(h, incremental());
        }
      });
  Matrix::speedup(knapsack_tail, knapsack_dp);
  m.parity(knapsack_tail, full_tail.h);

  // Identical instance every call: the full-reuse early exit.
  StageRow& knapsack_unchanged =
      m.repeat("knapsack_unchanged", reps * 16, incremental, fnv_solution);
  m.twin(knapsack_unchanged, knapsack_dp);

  // ---- 360° video: FOV tile mask, then mask + per-segment tile plan ----
  VideoAsset::Params video_params;
  video_params.ladder = default_ladder();
  const VideoAsset video(video_params);
  const FieldOfView fov;
  std::vector<int> segments;
  for (int i = 0; i < 8; ++i) segments.push_back(i);
  auto view_of = [](int segment) { return ViewOrientation{-3.0 + 0.75 * segment, 0.1}; };
  m.map(
      "visible_tiles", segments,
      [&](int segment) { return video.grid().visible_tiles(view_of(segment), fov); },
      [](Fnv& h, const std::vector<bool>& mask) {
        for (bool b : mask) h.u64(b ? 1 : 0);
      });
  const MfHttpTileScheduler tile_scheduler;
  m.map(
      "tile_plan", segments,
      [&](int segment) {
        return tile_scheduler.plan_segment(
            video, segment, video.grid().visible_tiles(view_of(segment), fov),
            Bytes{400'000});
      },
      [](Fnv& h, const TilePlan& plan) {
        for (int q : plan.tile_quality) h.i32(q);
        h.i32(plan.viewport_quality);
        h.u64(static_cast<std::uint64_t>(plan.bytes));
      });

  // ---- §5.1 request path: intercept -> defer -> policy release ----
  // The fixture page's images stream through the MITM proxy over the
  // bottleneck link; the policy is the fastest fling's optimized plan.
  // One op is one whole session; it returns the fingerprint of every fetch
  // result in completion order.
  const ScrollAnalysis& session_analysis = analyses.back();
  const DownloadPolicy session_policy = stateless_flow.optimize(
      session_analysis, objects, BandwidthTrace::constant(2e6));
  auto run_session = [&] {
    Simulator sim;
    Link::Params client;
    client.bandwidth = BandwidthTrace::constant(2e6);
    client.sharing = Link::Sharing::kFairShare;
    Link server_link(sim, Link::Params{});
    ObjectStore store;
    for (const MediaObject& img : objects)
      store.put(parse_url(img.top_version().url)->path, img.top_version().size);
    SimHttpOrigin origin(sim, &store, &server_link);
    auto pipeline = FetchPipelineBuilder(sim, &origin).client_link(client).build();
    MitmProxy& proxy = pipeline->proxy();
    BlockListController controller(*page, viewport, &proxy);
    proxy.set_interceptor(&controller);
    Fnv h{kFingerprintBasis};
    for (const MediaObject& img : objects) {
      FetchCallbacks cb;
      cb.on_complete = [&h](const FetchResult& r) {
        h.i32(r.status);
        h.u64(static_cast<std::uint64_t>(r.body_size));
        h.u64(static_cast<std::uint64_t>(r.complete_ms));
        h.u64((r.blocked ? 1u : 0u) | (r.rejected ? 2u : 0u));
      };
      proxy.fetch(HttpRequest::get(*parse_url(img.top_version().url)),
                  std::move(cb));
    }
    controller.on_policy(session_analysis, session_policy);
    sim.run();
    return h.h;
  };
  auto fold_u64 = [](Fnv& h, std::uint64_t v) { h.u64(v); };
  m.repeat("proxy_blocklist_session", (reps + 19) / 20, run_session, fold_u64);

  // ---- the rate-limited link: 64 staggered transfers, fair share ----
  // One op runs the link dry and returns the fingerprint of its completion
  // times.
  auto run_link = [] {
    Simulator sim;
    Link::Params p;
    p.bandwidth = BandwidthTrace::constant(2e6);
    p.sharing = Link::Sharing::kFairShare;
    Link link(sim, p);
    Fnv h{kFingerprintBasis};
    for (int i = 0; i < 64; ++i)
      link.submit(20'000 + 3'000 * i, [&h, &sim](Bytes, bool complete) {
        if (complete) h.u64(static_cast<std::uint64_t>(sim.now()));
      });
    sim.run();
    return h.h;
  };
  m.repeat("link_fair_share", (reps + 15) / 16, run_link, fold_u64);

  // ---- report ----
  const bool zero_alloc_lookups = header_lookup.allocs_per_op == 0;
  std::printf("%23s %14s %12s %8s %20s %7s %6s\n", "stage", "ops", "ns/op",
              "speedup", "fingerprint", "allocs", "parity");
  for (const StageRow& row : m.rows) {
    char speedup_s[24] = "-";
    if (row.speedup > 0)
      std::snprintf(speedup_s, sizeof(speedup_s), "%.2fx", row.speedup);
    char allocs_s[24] = "-";
    if (row.allocs_per_op >= 0)
      std::snprintf(allocs_s, sizeof(allocs_s), "%lld", row.allocs_per_op);
    std::printf("%23s %14llu %12.1f %8s %020llx %7s %6s\n", row.stage.c_str(),
                row.ops, row.ns_per_op, speedup_s,
                static_cast<unsigned long long>(row.fingerprint), allocs_s,
                row.has_parity ? (row.parity_ok ? "yes" : "NO") : "-");
  }

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("micro_matrix");
  w.key("seed").value(static_cast<unsigned long long>(seed));
  w.key("reps").value(reps);
  w.key("site").value(page->site);
  w.key("objects").value(objects.size());
  w.key("all_parity_ok").value(m.all_parity_ok);
  w.key("zero_alloc_lookups").value(zero_alloc_lookups);
  w.key("rows").begin_array();
  for (const StageRow& row : m.rows) {
    w.begin_object();
    w.key("stage").value(row.stage);
    w.key("ops").value(row.ops);
    w.key("ns_per_op").value(row.ns_per_op);
    if (row.speedup > 0) w.key("speedup").value(row.speedup);
    // Hex string: fingerprints are 64-bit and JSON numbers are doubles.
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(row.fingerprint));
    w.key("fingerprint").value(fp);
    if (row.allocs_per_op >= 0) w.key("allocs_per_op").value(row.allocs_per_op);
    if (row.has_parity) w.key("parity_ok").value(row.parity_ok);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) CliOptions::fail("--json", json_path, "cannot open for writing");
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!m.all_parity_ok) {
    std::fprintf(stderr, "FAIL: a fast stage diverged from its reference\n");
    return 1;
  }
  if (!zero_alloc_lookups) {
    std::fprintf(stderr, "FAIL: header lookups allocated (%lld allocs/op)\n",
                 header_lookup.allocs_per_op);
    return 1;
  }
  if (!assert_speedup_s.empty()) {
    char* end = nullptr;
    const double want = std::strtod(assert_speedup_s.c_str(), &end);
    if (end == nullptr || *end != '\0' || want <= 0)
      CliOptions::fail("--assert-speedup", assert_speedup_s,
                       "expected a positive number");
    const double batch = coverage_batch.speedup;
    const double replan = touch_replan_arena.speedup;
    if (batch < want || replan < want) {
      std::fprintf(stderr,
                   "FAIL: speedup gate: coverage_batch %.2fx, "
                   "touch_replan_arena %.2fx, required %.2fx\n",
                   batch, replan, want);
      return 1;
    }
    std::printf(
        "speedup gate passed: coverage_batch %.2fx, touch_replan_arena "
        "%.2fx >= %.2fx\n",
        batch, replan, want);
  }
  return 0;
}
