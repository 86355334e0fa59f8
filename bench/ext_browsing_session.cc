// Extension experiment — sustained browsing: instead of Fig. 7's single
// random scroll, a user works down a long page with a stream of think-time-
// separated flings (the BrowsingGestureSource model). For every place the
// viewport settles, how long until it is fully rendered, and what did the
// whole session cost?
#include <cstdio>
#include <optional>
#include <vector>

#include "cli/standard_options.h"
#include "gesture/synthetic.h"
#include "obs/metrics.h"
#include "util/stats.h"
#include "web/blocklist_controller.h"
#include "web/browser.h"
#include "web/corpus.h"
#include "web/sim_session.h"

namespace {

using namespace mfhttp;

struct SessionStats {
  Samples settle_lag_ms;  // settle time -> viewport fully loaded
  Bytes bytes = 0;
  std::size_t images_fetched = 0;
  std::size_t images_total = 0;
};

SessionStats run(const WebPage& page, bool enable_mfhttp, std::uint64_t seed,
                 TimeMs session_ms) {
  SessionConfig config;
  config.enable_mfhttp = enable_mfhttp;
  config.client_bandwidth = 1e6;
  config.session_ms = session_ms;
  ObjectStore store;
  for (const PageResource& r : page.structure) store.put(parse_url(r.url)->path, r.size);
  for (const MediaObject& img : page.images)
    store.put(parse_url(img.top_version().url)->path, img.top_version().size);
  SimSession::Wiring wiring;
  wiring.server_link = Link::Params{};
  wiring.coverage_step_ms = 8.0;
  wiring.record_settles = true;
  SimSession world(config, std::move(store), page.bounds(), wiring);

  std::optional<BlockListController> controller;
  if (enable_mfhttp) {
    controller.emplace(page, world.initial_viewport(), &world.proxy());
    world.attach_middleware(page.images, &*controller);
  }

  Browser browser(world.sim(), &world.proxy(), page);
  world.sim().schedule_at(0, [&] { browser.load(); });

  // Ground truth (same gestures in both arms thanks to the shared seed).
  BrowsingGestureSource source(config.device, {}, Rng(seed));
  TimeMs t = 800;
  while (t < session_ms - 3000) {
    TouchTrace trace = source.next_swipe(t);
    t = trace.back().time_ms;
    world.schedule_touches(trace);
  }

  world.run();

  SessionStats out;
  out.bytes = world.bytes_delivered();
  out.images_total = page.images.size();
  out.images_fetched = browser.images_completed();
  for (const SimSession::Settle& s : world.settles()) {
    TimeMs loaded = browser.viewport_load_time(s.viewport);
    if (loaded < 0) continue;  // session ended before it finished
    out.settle_lag_ms.add(
        static_cast<double>(std::max<TimeMs>(0, loaded - s.time_ms)));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mfhttp::cli::StandardOptions standard_options(argc, argv);
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(42);
  WebPage page;
  for (const SiteSpec& spec : alexa25_specs()) {
    Rng r = rng.fork();
    if (spec.name == "qq") page = generate_page(spec, device, r);
  }

  std::printf("=== Extension: sustained browsing session (qq-like, 30 s) ===\n");
  std::printf("(1 MB/s WLAN; fling stream with think time; lag = settle -> viewport ready)\n\n");
  std::printf("%-10s %6s %12s %12s %12s %14s %12s\n", "arm", "seeds", "mean lag",
              "median", "p90", "MB moved", "imgs");

  for (bool mfhttp : {false, true}) {
    Samples lag;
    RunningStats bytes;
    std::size_t fetched = 0, total = 0;
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      SessionStats s = run(page, mfhttp, seed, 30'000);
      for (double v : s.settle_lag_ms.values()) lag.add(v);
      bytes.add(static_cast<double>(s.bytes));
      fetched += s.images_fetched;
      total += s.images_total;
    }
    std::printf("%-10s %6d %10.0fms %10.0fms %10.0fms %14.1f %7zu/%zu\n",
                mfhttp ? "mf-http" : "baseline", 3, lag.mean(), lag.median(),
                lag.percentile(90), bytes.mean() / 1e6, fetched, total);
  }
  std::printf("\n(every settle should find its viewport already rendered; the\n"
              " baseline pays for that with the whole page, MF-HTTP with only\n"
              " the content the user actually swept across)\n");
  return 0;
}
