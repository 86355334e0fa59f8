// End-to-end browsing session runner (§6.1): one page load plus one random
// scrolling touch, measured with and without MF-HTTP in the path. This is
// the harness behind the Fig. 7/8 benchmarks and the integration tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "http/resilient_fetcher.h"
#include "net/link.h"
#include "web/page.h"
#include "web/sim_session.h"

namespace mfhttp {

// The session knobs shared with the feed live in SessionConfig
// (web/sim_session.h), with this experiment's defaults. A null fault_plan
// falls back to the ambient fault::global_plan() installed by --fault-plan;
// no plan (or an empty one) leaves the whole stack — links, origin, proxy —
// byte-for-byte identical to the pristine configuration, resilience layer
// included.
struct BrowsingSessionConfig : SessionConfig {
  // How concurrent responses share the device hop: kFairShare models N
  // parallel connections; kFifo realizes Eq. 13's "schedule the download in
  // the same order that the objects are requested".
  Link::Sharing client_sharing = Link::Sharing::kFairShare;

  // One scrolling touch per session, fired once the page has had a moment
  // to start rendering.
  TimeMs scroll_at_ms = 1200;
  double swipe_speed_px_s = 5000;   // finger speed (fling intensity)
  bool swipe_up = false;            // finger direction; false = scroll down

  // Sampling period of the Fig. 8 viewport-fill timeline; 0 disables.
  TimeMs fill_sample_ms = 50;

  // With a fault plan active: retry/breaker layer between proxy and origin,
  // plus the proxy's deferred-queue watchdog. Disable to measure what the
  // faults do to an unprotected stack (the negative arm of the resilience
  // bench).
  bool enable_resilience = true;
  ResilientFetcherParams resilience = default_resilience();
  TimeMs defer_timeout_ms = 15'000;  // watchdog: force-release parked requests

  // With enable_cache: warm corridor images the optimizer left parked (the
  // BlockListController's prefetch hook). Ignored without enable_cache.
  bool enable_prefetch = false;

  static ResilientFetcherParams default_resilience() {
    ResilientFetcherParams p;
    p.attempt_timeout_ms = 8000;  // per-attempt deadline inside the session
    return p;
  }
};

struct BrowsingSessionResult : ProxyCounters {
  // Viewport load time (Fig. 7 metric): all structural resources plus every
  // image overlapping the *default* (initial) viewport are complete.
  TimeMs initial_viewport_load_ms = -1;
  // Same for the post-scroll resting viewport, measured from session start.
  TimeMs final_viewport_load_ms = -1;

  Bytes bytes_downloaded = 0;       // over the client link
  Bytes total_image_bytes = 0;      // what a download-everything client wants
  std::size_t images_total = 0;
  std::size_t images_completed = 0;
  std::size_t images_avoided = 0;   // never transferred (parked or refused)

  // Requests still parked at the proxy when the session ended. In a pristine
  // run this is ordinary parked speculation (the mf-http savings). With a
  // fault plan active it is always 0 when the resilience layer is on (the
  // watchdog releases them); the unprotected stack under faults strands
  // whatever the stale policy never released.
  std::size_t stranded_deferred = 0;

  // (time_ms, fraction of current-viewport image bytes present) — Fig. 8.
  std::vector<std::pair<TimeMs, double>> fill_timeline;

  Rect initial_viewport;
  Rect final_viewport;

  // Machine-readable export (util/json.h) for analysis pipelines.
  std::string to_json() const;
};

BrowsingSessionResult run_browsing_session(const WebPage& page,
                                           const BrowsingSessionConfig& config);

}  // namespace mfhttp
