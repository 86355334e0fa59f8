// frontdoor_burst: the sharded front door (MPSC queues, per-shard
// MitmProxy/HttpCache segments, admission) with no middleware in the path.
//
// Each batch is one run_front_door(kThreaded) call with shards = workers
// beside the producer thread, over a sim::generate_frontdoor_load timeline
// whose skewed URL universe is larger than the whole-box cache, under
// apply_scaled_admission() budgets. Batches rotate over kLoadVariants loads
// drawn from the seed, so one draw's content does not decide a run, and
// repeat until the run length is used up; figures are medians over batches.
// The end-to-end latency is the burst's completion time (run_front_door's
// wall time), what a client waiting on the whole burst sees. The front
// door's per-request enqueue->verdict latency is firehose backlog (the
// producer pushes the whole timeline as fast as it can), so it is reported
// as a queue figure.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "http/cache.h"
#include "http/frontdoor.h"
#include "sim/frontdoor_load.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Load per batch: sessions x touches over a skewed URL universe whose bytes
// exceed the whole-box cache (checked on every run). A batch takes about
// 0.2 s, so a 30 s run has over a hundred bursts for the completion-time tail.
constexpr std::size_t kSessions = 5000;
constexpr std::size_t kTouchesPerSession = 4;
constexpr std::size_t kUrlUniverse = 16384;
constexpr double kSkewExponent = 3.0;
constexpr double kCacheMb = 8;
// Shards beside the producer thread: two, not nproc - 1 = 3. With every
// vCPU busy, host CPU steal spreads the enqueue->verdict tail run to run.
constexpr unsigned kMaxShards = 2;
// Loads drawn per run (sub-seeds of --seed); batch b runs load b % kLoadVariants.
constexpr std::size_t kLoadVariants = 8;
// At least this many batches, so the completion-time tail is always its p90.
constexpr std::size_t kMinBatches = 100;
// The load pre-draw is timed this many times; setup_s is the median.
constexpr std::size_t kSetupRuns = 3;

struct Variant {
  mfhttp::FrontDoorParams params;
  std::size_t events = 0;
  std::size_t requests = 0;
};

// Replays the workload's URL stream against ONE shared HttpCache from one
// thread per log (thread t takes the sessions the front door routes to
// shard t), timing every lookup and every put after a miss.
std::vector<double> replay_shared_cache(const mfhttp::FrontDoorParams& params,
                                        const std::vector<mfhttp::sim::TouchEvent>& timeline,
                                        std::vector<SpanLog>& logs) {
  mfhttp::CacheParams cp;
  cp.capacity_bytes = params.cache_capacity_total;
  cp.cost_aware_admission = true;
  mfhttp::HttpCache cache(cp);
  std::vector<std::string> urls;
  for (std::size_t i = 0; i < params.load.url_universe; ++i)
    urls.push_back("http://origin.example/obj/" + std::to_string(i));
  std::vector<std::vector<double>> samples(logs.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    threads.emplace_back([&, t] {
      const std::uint32_t h = logs[t].open(SpanName::kCacheReplay, 0, t);
      std::vector<double>& out = samples[t];
      for (const mfhttp::sim::TouchEvent& e : timeline) {
        if (mfhttp::shard_of(e.session, logs.size()) != t) continue;
        for (std::uint8_t u = 0; u < e.n_urls; ++u) {
          const std::string& url = urls[e.urls[u]];
          std::int64_t t0 = now_ns();
          const bool hit = cache.lookup(url, e.ts_ms).has_value();
          std::int64_t t1 = now_ns();
          out.push_back(static_cast<double>(t1 - t0));
          if (hit) continue;
          mfhttp::CachedObject obj;
          obj.size = mfhttp::sim::frontdoor_object_bytes(params.load, e.urls[u]);
          obj.content_type = "image/jpeg";
          t0 = now_ns();
          cache.put(url, std::move(obj), e.ts_ms);
          t1 = now_ns();
          out.push_back(static_cast<double>(t1 - t0));
        }
      }
      logs[t].close(h);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& v : samples) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace

Report run_frontdoor_burst(const Options& opts) {
  Report report;
  report.workload = "frontdoor_burst";
  report.host = host_at_start();
  const unsigned shards = opts.workers(report.host, kMaxShards);

  mfhttp::FrontDoorParams params;
  params.shards = shards;
  params.load.sessions = kSessions;
  params.load.touches_per_session = kTouchesPerSession;
  params.load.url_universe = kUrlUniverse;
  params.load.skew_exponent = kSkewExponent;
  params.cache_capacity_total = static_cast<mfhttp::Bytes>(kCacheMb * 1024 * 1024);
  std::vector<Variant> variants(kLoadVariants);
  for (std::size_t v = 0; v < kLoadVariants; ++v) {
    variants[v].params = params;
    variants[v].params.load.seed = mfhttp::splitmix64(opts.seed * kLoadVariants + v);
    variants[v].params.apply_scaled_admission();
  }

  // ---- Set-up: pre-draw every load (what each batch must account for).
  // The first load's timeline is kept for the traced cache replay.
  std::vector<mfhttp::sim::TouchEvent> timeline;
  std::vector<double> setup_runs;
  for (std::size_t i = 0; i < kSetupRuns; ++i) {
    const std::int64_t t0 = now_ns();
    for (std::size_t v = kLoadVariants; v-- > 0;) {
      timeline = mfhttp::sim::generate_frontdoor_load(variants[v].params.load);
      variants[v].events = timeline.size();
      variants[v].requests = 0;
      for (const auto& e : timeline) variants[v].requests += e.n_urls;
    }
    setup_runs.push_back(seconds_since(t0));
  }
  std::size_t small_universes = 0;  // loads whose URL universe fits the cache
  for (const Variant& v : variants) {
    mfhttp::Bytes universe_bytes = 0;
    for (std::size_t i = 0; i < kUrlUniverse; ++i)
      universe_bytes += mfhttp::sim::frontdoor_object_bytes(v.params.load, i);
    if (universe_bytes <= params.cache_capacity_total) ++small_universes;
  }

  // ---- Timed batches.
  SpanLog log(false, 0);
  std::vector<double> ops_s, batch_ms, p50_us, p99_us, served, origin_per_op, skew;
  std::size_t depth_max = 0, worker_sheds = 0, deadline_sheds = 0;
  std::size_t conservation_breaches = 0, routing_breaches = 0, count_breaches = 0;
  mfhttp::MitmProxy::Stats proxy{};
  mfhttp::HttpCache::Stats cache{};
  std::uint64_t attempted = 0, failed = 0, rejected = 0, requests = 0;
  const std::int64_t run_start = now_ns();
  std::size_t batches = 0;
  std::vector<double> traced_ops_s, untraced_ops_s;
  while (batches < kMinBatches || seconds_since(run_start) < opts.seconds) {
    // A traced run alternates traced and untraced batches (ABAB) for the
    // tracing overhead figure, a whole rotation over the loads at a time.
    const bool traced = opts.trace && (batches / kLoadVariants) % 2 == 1;
    const Variant& variant = variants[batches % kLoadVariants];
    log.set_enabled(traced);
    const std::uint32_t h = log.open(SpanName::kFrontdoorBatch, 0, batches);
    const mfhttp::FrontDoorResult r =
        mfhttp::run_front_door(variant.params, mfhttp::FrontDoorMode::kThreaded);
    log.close(h);
    ++batches;
    if (r.requests != r.completed + r.rejected + r.failed) ++conservation_breaches;
    if (r.routing_fp != mfhttp::routing_fingerprint(kSessions, shards))
      ++routing_breaches;
    if (r.requests != variant.requests || r.events != variant.events) ++count_breaches;
    attempted += r.requests;
    failed += r.failed;
    rejected += r.rejected;
    requests += r.requests;
    ops_s.push_back(r.events_per_sec);
    batch_ms.push_back(r.wall_ms);
    (traced ? traced_ops_s : untraced_ops_s).push_back(r.events_per_sec);
    p50_us.push_back(r.p50_touch_to_policy_us);
    p99_us.push_back(r.p99_touch_to_policy_us);
    served.push_back(static_cast<double>(r.completed) / static_cast<double>(r.requests));
    origin_per_op.push_back(
        static_cast<double>(r.bytes_to_client - r.upstream_bytes_saved) /
        static_cast<double>(r.events));
    std::size_t max_events = 0, sum_events = 0;
    for (const auto& s : r.per_shard) {
      depth_max = std::max(depth_max, s.max_queue_depth);
      worker_sheds += s.worker_sheds;
      max_events = std::max(max_events, s.events);
      sum_events += s.events;
      proxy.allowed += s.proxy.allowed;
      proxy.rejected += s.proxy.rejected;
      proxy.shed += s.proxy.shed;
      proxy.cache_hits += s.proxy.cache_hits;
      cache.hits += s.cache.hits;
      cache.misses += s.cache.misses;
      cache.insertions += s.cache.insertions;
      cache.evictions += s.cache.evictions;
      cache.admission_rejected += s.cache.admission_rejected;
    }
    skew.push_back(static_cast<double>(max_events) * static_cast<double>(r.per_shard.size()) /
                   static_cast<double>(std::max<std::size_t>(sum_events, 1)));
    deadline_sheds += r.deadline_shed_events;
  }
  const double run_s = seconds_since(run_start);

  report.check("requests == completed + rejected + failed in every batch",
               conservation_breaches == 0);
  report.check("routing fingerprint exact in every batch", routing_breaches == 0);
  report.check("every pre-drawn event and request reached the front door",
               count_breaches == 0);
  report.check("witness: cache hits are nonzero", proxy.cache_hits > 0 && cache.hits > 0);
  report.check("witness: admission admitted and refused requests",
               proxy.allowed > 0 && proxy.rejected > 0);
  report.check("load: URL universe exceeds the whole-box cache",
               small_universes == 0);
  report.attempted = attempted;
  report.failed = failed;

  const double per_batch = 1.0 / static_cast<double>(batches);
  report.e2e["setup_s"] = {median(setup_runs), "s"};
  report.e2e["throughput_ops_s"] = {median(ops_s), "ops/s"};
  const TailStat batch_tail = tail(batch_ms, 99);
  report.e2e["latency_p50_ms"] = {median(batch_ms), "ms"};
  report.e2e["latency_p99_ms"] = {batch_tail.value, "ms"};
  report.e2e["success_ratio"] = {median(served), "ratio"};
  report.e2e["bytes_per_op"] = {median(origin_per_op), "B/op"};

  report.detail["cache_hit_ratio"] = {
      static_cast<double>(proxy.cache_hits) / static_cast<double>(requests), "ratio"};
  report.detail["fail_rate"] = {
      static_cast<double>(rejected + failed) / static_cast<double>(requests), "ratio"};
  report.detail["origin_bytes_per_op"] = {median(origin_per_op), "B/op"};
  char line[240];
  std::snprintf(line, sizeof(line),
                "%zu batches over %zu loads of %zu sessions (%zu events, %zu requests "
                "in the first) on %u shards in %.2f s; completion-time tail p%.0f",
                batches, kLoadVariants, kSessions, variants[0].events,
                variants[0].requests, shards, run_s, batch_tail.used);
  report.notes.push_back(line);

  auto& L = report.layer;
  L["frontdoor.queue_wait_us.p50"] = {median(p50_us), "us"};
  L["frontdoor.queue_wait_us.p99"] = {median(p99_us), "us"};
  L["frontdoor.queue_depth_max"] = {static_cast<double>(depth_max), "count"};
  L["frontdoor.shard_skew"] = {median(skew), "ratio"};
  L["frontdoor.worker_sheds"] = {static_cast<double>(worker_sheds) * per_batch, "count"};
  L["frontdoor.deadline_shed_events"] = {static_cast<double>(deadline_sheds) * per_batch,
                                         "count"};
  L["http.proxy.allowed"] = {static_cast<double>(proxy.allowed) * per_batch, "count"};
  L["http.proxy.rejected"] = {static_cast<double>(proxy.rejected) * per_batch, "count"};
  L["http.proxy.shed"] = {static_cast<double>(proxy.shed) * per_batch, "count"};
  L["http.proxy.cache_hits"] = {static_cast<double>(proxy.cache_hits) * per_batch, "count"};
  L["http.cache.hits"] = {static_cast<double>(cache.hits) * per_batch, "count"};
  L["http.cache.misses"] = {static_cast<double>(cache.misses) * per_batch, "count"};
  L["http.cache.insertions"] = {static_cast<double>(cache.insertions) * per_batch, "count"};
  L["http.cache.evictions"] = {static_cast<double>(cache.evictions) * per_batch, "count"};
  L["http.cache.admission_rejected"] = {
      static_cast<double>(cache.admission_rejected) * per_batch, "count"};

  if (opts.trace) {
    std::vector<SpanLog> replay_logs;
    for (unsigned t = 0; t < shards; ++t) replay_logs.emplace_back(true, t + 1);
    const std::vector<double> lookup_ns = replay_shared_cache(variants[0].params, timeline, replay_logs);
    L["http.cache.lookup_ns.p50"] = {percentile(lookup_ns, 50), "ns"};
    L["http.cache.lookup_ns.p99"] = {tail(lookup_ns, 99).value, "ns"};
    std::vector<const SpanLog*> logs{&log};
    for (const SpanLog& l : replay_logs) logs.push_back(&l);
    L["trace.untraced_ops_s"] = {median(untraced_ops_s), "ops/s"};
    L["trace.traced_ops_s"] = {median(traced_ops_s), "ops/s"};
    L["trace.overhead_pct"] = {
        (median(untraced_ops_s) / median(traced_ops_s) - 1.0) * 100.0, "%"};
    if (!opts.trace_out.empty() &&
        !write_chrome_trace(opts.trace_out, logs, run_start, 100'000))
      report.notes.push_back("could not write " + opts.trace_out);
  }

  report.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  host_at_end(report.host);
  return report;
}

}  // namespace perfbench
