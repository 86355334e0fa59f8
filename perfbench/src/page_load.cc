// page_load: the paper's Fig. 7/8 outcome — viewport load time and bytes —
// through run_browsing_session with MF-HTTP and the middleware cache on.
// Every session builds a fresh Middleware, makes one first optimize, and
// fills a per-session cache that only takes inserts: the write and
// cold-start side of the other two workloads. Prefetch is off because it
// cannot fire in these sessions (see the session list below).
//
// Set-up draws a session list stratified over all 25 alexa25_specs() sites
// (limited-viewport ones included), each entry with its own page seed,
// scroll seed, a swipe speed from the device class's distribution and a
// direction, generates the pages, and runs the enable_mfhttp=false arm
// once per entry. Client threads then run the list back to back as a closed
// loop until the run length is used up; the first pass over the list is
// the decision fingerprint and every later pass must repeat it exactly.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "gesture/synthetic.h"
#include "spans.h"
#include "util/rng.h"
#include "web/corpus.h"
#include "web/experiment.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mfhttp::BrowsingSessionConfig;
using mfhttp::BrowsingSessionResult;

// List entries per site, over all 25 sites.
constexpr std::size_t kSessionsPerSite = 24;
constexpr double kCacheMb = 8;
constexpr unsigned kMaxClients = 3;
// Set-up is timed in this many equal slices; setup_s is the median x slices.
constexpr std::size_t kSetupSlices = 4;

struct Entry {
  std::size_t site = 0;
  bool limited = false;  // viewport smaller than the page
  mfhttp::WebPage page;
  BrowsingSessionConfig config;
  BrowsingSessionResult baseline;
};

std::uint64_t result_hash(const BrowsingSessionResult& r) {
  Fnv fp;
  fp.u64(static_cast<std::uint64_t>(r.initial_viewport_load_ms));
  fp.u64(static_cast<std::uint64_t>(r.final_viewport_load_ms));
  fp.u64(static_cast<std::uint64_t>(r.bytes_downloaded));
  fp.u64(r.images_completed);
  fp.u64(r.images_avoided);
  fp.u64(r.requests_total);
  fp.u64(r.requests_rejected);
  fp.u64(r.requests_shed);
  fp.u64(r.cache_hits);
  fp.u64(r.cache_misses);
  fp.u64(r.stranded_deferred);
  fp.f64(r.final_viewport.y);
  return fp.h;
}

}  // namespace

Report run_page_load(const Options& opts) {
  Report report;
  report.workload = "page_load";
  report.host = host_at_start();
  const unsigned clients = opts.workers(report.host, kMaxClients);
  const mfhttp::DeviceProfile device = mfhttp::DeviceProfile::nexus6();
  const mfhttp::BrowsingGestureSource::Params speeds;  // the device class's swipes
  const auto& specs = mfhttp::alexa25_specs();

  // ---- Session list (stratified: kSessionsPerSite entries for every site).
  std::vector<Entry> entries(specs.size() * kSessionsPerSite);
  mfhttp::Rng draw(mfhttp::splitmix64(opts.seed ^ 0x706167656c6f6164ull));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Entry& e = entries[i];
    e.site = i % specs.size();
    BrowsingSessionConfig& c = e.config;
    c.device = device;
    c.fill_sample_ms = 0;
    c.seed = draw.uniform_int(1, 1'000'000'000);
    c.swipe_speed_px_s = draw.truncated_normal(speeds.mean_speed_px_s, speeds.speed_stddev,
                                               speeds.min_speed_px_s, speeds.max_speed_px_s);
    c.swipe_up = draw.chance(speeds.p_scroll_up);
    c.enable_cache = true;
    c.cache.capacity_bytes = static_cast<mfhttp::Bytes>(kCacheMb * 1024 * 1024);
    // Prefetch stays off: with the paper's web weights (q = 0) the one
    // policy of a session leaves no involved image parked, so the
    // BlockListController's prefetch hook never fires here.
  }
  std::vector<std::uint64_t> page_seeds(entries.size());
  for (auto& s : page_seeds) s = static_cast<std::uint64_t>(draw.uniform_int(1, 1'000'000'000));

  // ---- Set-up in equal slices: pages, then the baseline arm.
  SpanLog setup_log(opts.trace, 0);
  std::vector<double> slice_s;
  for (std::size_t slice = 0; slice < kSetupSlices; ++slice) {
    const std::size_t lo = entries.size() * slice / kSetupSlices;
    const std::size_t hi = entries.size() * (slice + 1) / kSetupSlices;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = lo; i < hi; ++i) {
      Entry& e = entries[i];
      mfhttp::Rng page_rng(page_seeds[i]);
      const std::uint32_t h = setup_log.open(SpanName::kWebGeneratePage, 0, i);
      e.page = mfhttp::generate_page(specs[e.site], device, page_rng);
      setup_log.close(h);
      e.limited = e.page.viewport_ratio(device.screen_h_px) < 1.0;
    }
    std::atomic<std::size_t> next{lo};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < clients; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < hi;) {
          BrowsingSessionConfig c = entries[i].config;
          c.enable_mfhttp = false;
          entries[i].baseline = mfhttp::run_browsing_session(entries[i].page, c);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    slice_s.push_back(seconds_since(t0));
  }
  const double setup_s = median(slice_s) * static_cast<double>(kSetupSlices);

  // ---- Timed closed loop. Its records are fixed in size (per entry, per
  // client, per tenth of the run), so peak RSS does not grow with throughput.
  const std::size_t n = entries.size();
  const int kBlocks = 10;  // wall_ops_s is the median over tenths of the run
  const double block_ns = opts.seconds * 1e9 / kBlocks;
  std::vector<BrowsingSessionResult> first(n);
  std::vector<std::uint64_t> first_hash(n, 0);
  // The hash every later pass of entry k must repeat: set by the first later
  // pass, compared with first_hash[k] after the run.
  std::vector<std::atomic<std::uint64_t>> later_hash(n);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<SpanLog> logs;
  for (unsigned t = 0; t < clients; ++t) logs.emplace_back(opts.trace, t + 1);
  struct ClientStats {
    LogHistogram wall_ns, traced_ns, untraced_ns;
    std::vector<std::uint64_t> per_block = std::vector<std::uint64_t>(kBlocks, 0);
    std::int64_t cpu_ns = 0;  // the client thread's CPU time over the loop
  };
  std::vector<ClientStats> stats(clients);
  const std::int64_t run_start = now_ns();
  const std::int64_t run_end = run_start + static_cast<std::int64_t>(opts.seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      SpanLog& log = logs[t];
      ClientStats& st = stats[t];
      const std::int64_t cpu0 = cpu_ns();
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n && now_ns() >= run_end) break;
        const Entry& e = entries[i % n];
        // A traced run traces every other session (ABAB) so that the
        // untraced half gives the tracing overhead.
        log.set_enabled(opts.trace && i % 2 == 1);
        const std::int64_t t0 = now_ns();
        const std::uint32_t h = log.open(SpanName::kWebSession, 0, i);
        BrowsingSessionResult r = mfhttp::run_browsing_session(e.page, e.config);
        log.close(h);
        const std::int64_t t1 = now_ns();
        const double wall_ns = static_cast<double>(t1 - t0);
        st.wall_ns.add(wall_ns);
        (log.enabled() ? st.traced_ns : st.untraced_ns).add(wall_ns);
        const long b = static_cast<long>(static_cast<double>(t1 - run_start) / block_ns);
        if (b >= 0 && b < kBlocks) ++st.per_block[static_cast<std::size_t>(b)];
        const std::uint64_t hash = result_hash(r);
        if (i < n) {
          first_hash[i] = hash;
          first[i] = std::move(r);
        } else {
          std::uint64_t expected = 0;
          if (!later_hash[i % n].compare_exchange_strong(expected, hash) && expected != hash)
            ++mismatches;
        }
      }
      st.cpu_ns = cpu_ns() - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  const double run_s = seconds_since(run_start);

  // Every pass after the first must repeat the first pass's result.
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t later = later_hash[k].load();
    if (later != 0 && later != first_hash[k]) ++mismatches;
  }
  LogHistogram sessions_wall, traced_wall, untraced_wall;
  std::vector<double> block_rate(kBlocks, 0);
  std::int64_t clients_cpu_ns = 0;
  for (const ClientStats& st : stats) {
    clients_cpu_ns += st.cpu_ns;
    sessions_wall.merge(st.wall_ns);
    traced_wall.merge(st.traced_ns);
    untraced_wall.merge(st.untraced_ns);
    for (int b = 0; b < kBlocks; ++b)
      block_rate[static_cast<std::size_t>(b)] +=
          static_cast<double>(st.per_block[static_cast<std::size_t>(b)]) / (block_ns * 1e-9);
  }

  // ---- Outcome over the first pass (the fingerprint set).
  Fnv fp;
  std::vector<double> vlt_final, mf_initial_all, base_initial_all;
  double mf_limited = 0, base_limited = 0;
  std::size_t limited = 0, never_loaded = 0, ups = 0;
  std::uint64_t requests = 0, refused = 0, cache_misses = 0, cache_hits = 0,
                stranded = 0, client_bytes = 0, images = 0, avoided = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const BrowsingSessionResult& r = first[i];
    const Entry& e = entries[i];
    fp.u64(first_hash[i]);
    if (r.initial_viewport_load_ms < 0 || r.final_viewport_load_ms < 0) ++never_loaded;
    vlt_final.push_back(static_cast<double>(r.final_viewport_load_ms));
    mf_initial_all.push_back(static_cast<double>(r.initial_viewport_load_ms));
    base_initial_all.push_back(static_cast<double>(e.baseline.initial_viewport_load_ms));
    if (e.limited) {
      ++limited;
      mf_limited += static_cast<double>(r.initial_viewport_load_ms);
      base_limited += static_cast<double>(e.baseline.initial_viewport_load_ms);
    }
    if (e.config.swipe_up) ++ups;
    requests += r.requests_total;
    refused += r.requests_rejected + r.requests_shed;
    cache_misses += r.cache_misses;
    cache_hits += r.cache_hits;
    stranded += r.stranded_deferred;
    client_bytes += static_cast<std::uint64_t>(r.bytes_downloaded);
    images += r.images_total;
    avoided += r.images_avoided;
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(fp.h));
  report.fingerprint = hex;
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double reduction_pct =
      (1.0 - mean(mf_initial_all) / mean(base_initial_all)) * 100.0;
  const double limited_reduction_pct = (1.0 - mf_limited / base_limited) * 100.0;

  const std::size_t completed = sessions_wall.count();
  report.check("first pass covers the whole session list", completed >= n);
  report.check("every later pass repeats the first pass exactly", mismatches == 0);
  report.check("list covers all 25 sites, limited ones included",
               limited > 0 && limited < n && n % specs.size() == 0);
  report.check("list swipes in both directions", ups > 0 && ups < n);
  report.check("witness: MF-HTTP beats the baseline arm on limited-viewport sites",
               mf_limited < base_limited);
  report.check("witness: the configured cache saw lookups", cache_misses > 0);
  report.attempted = completed;
  report.failed = never_loaded;

  const double fail_rate = static_cast<double>(refused) / static_cast<double>(requests) +
                           static_cast<double>(never_loaded) / static_cast<double>(n);
  const TailStat vlt_tail = tail(vlt_final, 99);
  const TailStat wall_tail = sessions_wall.tail(99);
  report.e2e["setup_s"] = {setup_s, "s"};
  // Sessions per client CPU-second times the clients: the rate the clients
  // sustain while they run (host steal and preemption left out).
  report.e2e["throughput_ops_s"] = {
      static_cast<double>(completed) * clients / (static_cast<double>(clients_cpu_ns) * 1e-9),
      "ops/s"};
  report.e2e["latency_p50_ms"] = {sessions_wall.percentile(50) / 1e6, "ms"};
  report.e2e["latency_p99_ms"] = {wall_tail.value / 1e6, "ms"};
  report.e2e["success_ratio"] = {1.0 - fail_rate, "ratio"};
  report.e2e["bytes_per_op"] = {static_cast<double>(client_bytes) / static_cast<double>(n),
                                "B/op"};

  report.detail["client_bytes_per_op"] = report.e2e["bytes_per_op"];
  report.detail["wall_ops_s"] = {median(block_rate), "sessions/s"};
  report.detail["vlt_p50_ms"] = {percentile(vlt_final, 50), "sim_ms"};
  report.detail["vlt_p99_ms"] = {vlt_tail.value, "sim_ms"};
  report.detail["vlt_reduction_pct"] = {reduction_pct, "%"};
  report.detail["vlt_reduction_pct.limited"] = {limited_reduction_pct, "%"};
  report.detail["fail_rate"] = {fail_rate, "ratio"};
  char line[240];
  std::snprintf(line, sizeof(line),
                "%zu sessions (%zu-entry list, %zu limited-viewport, %zu swipe up) "
                "on %u clients in %.2f s; vlt tail p%.0f over n=%zu, session wall "
                "tail p%.0f over n=%zu",
                completed, n, limited, ups, clients, run_s, vlt_tail.used, vlt_tail.n,
                wall_tail.used, wall_tail.n);
  report.notes.push_back(line);

  auto& L = report.layer;
  std::vector<const SpanLog*> all_logs{&setup_log};
  for (const SpanLog& l : logs) all_logs.push_back(&l);
  const SpanStats spans = summarize(all_logs);
  L["web.generate_page_ms"] = {median(spans.dur(SpanName::kWebGeneratePage)) / 1e3, "ms"};
  L["web.session_ms.p50"] = {percentile(spans.dur(SpanName::kWebSession), 50) / 1e3, "ms"};
  L["web.session_ms.p99"] = {tail(spans.dur(SpanName::kWebSession), 99).value / 1e3, "ms"};
  L["web.requests_per_session"] = {static_cast<double>(requests) / static_cast<double>(n),
                                   "count"};
  L["web.images_avoided_frac"] = {static_cast<double>(avoided) / static_cast<double>(images),
                                  "ratio"};
  L["web.stranded_deferred"] = {static_cast<double>(stranded) / static_cast<double>(n),
                                "count"};
  L["web.cache_misses"] = {static_cast<double>(cache_misses) / static_cast<double>(n),
                           "count"};
  L["web.cache_hits"] = {static_cast<double>(cache_hits) / static_cast<double>(n), "count"};
  if (opts.trace) {
    const double traced_ops = clients * 1e9 / traced_wall.percentile(50);
    const double untraced_ops = clients * 1e9 / untraced_wall.percentile(50);
    L["trace.traced_ops_s"] = {traced_ops, "ops/s"};
    L["trace.untraced_ops_s"] = {untraced_ops, "ops/s"};
    L["trace.overhead_pct"] = {(untraced_ops / traced_ops - 1.0) * 100.0, "%"};
    if (!opts.trace_out.empty() &&
        !write_chrome_trace(opts.trace_out, all_logs, run_start, 100'000))
      report.notes.push_back("could not write " + opts.trace_out);
  }

  report.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  host_at_end(report.host);
  return report;
}

}  // namespace perfbench
