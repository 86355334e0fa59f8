// End-to-end feed-scrolling session: a user flings down the timeline several
// times; the metric that matters is *instant playback* — when the feed
// settles, is the clip in front of the user already fully downloaded?
#pragma once

#include <cstdint>

#include "feed/feed.h"
#include "web/sim_session.h"

namespace mfhttp {

// The session knobs shared with browsing live in SessionConfig
// (web/sim_session.h); the feed overrides three of its defaults. Unlike
// browsing, a null fault_plan means no faults: the feed never consults the
// ambient --fault-plan, so its pristine arms stay byte-identical under one.
struct FeedSessionConfig : SessionConfig {
  FeedSessionConfig() {
    client_bandwidth = 2.5e6;
    // Cost pressure: with q > 0 the optimizer hands glimpsed clips their
    // thumbnails instead of megabyte clips.
    weights = {1.0, 0.3};
    session_ms = 30'000;
  }

  int fling_count = 4;
  TimeMs first_fling_ms = 1000;
  TimeMs fling_interval_ms = 4000;
  double fling_speed_px_s = 9000;

  // Dynamic feed (infinite scroll): the app opens with only the first
  // `initial_posts` posts and reveals `append_posts_per_fling` more just
  // before each fling — appended media join the middleware's knapsack via
  // Middleware::append_objects, exercising the incremental optimizer's
  // prefix reuse. initial_posts == 0 keeps the whole feed present at open
  // (the historical static behavior).
  int initial_posts = 0;
  int append_posts_per_fling = 0;
};

struct FeedSessionResult : ProxyCounters {
  std::size_t clips_total = 0;
  std::size_t clips_settled = 0;   // clips that ever rested in the viewport
  std::size_t clips_instant = 0;   // of those, fully loaded when they settled
  double instant_play_rate = 0;    // clips_instant / clips_settled

  Bytes bytes_downloaded = 0;      // over the client link
  Bytes full_corpus_bytes = 0;     // what download-everything would move
  std::size_t thumbs_substituted = 0;  // clips served as posters
  std::size_t media_avoided = 0;   // media never transferred at all
};

FeedSessionResult run_feed_session(const Feed& feed, const FeedSessionConfig& config);

}  // namespace mfhttp
