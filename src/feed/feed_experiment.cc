#include "feed/feed_experiment.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "feed/feed_controller.h"
#include "gesture/synthetic.h"

namespace mfhttp {

namespace {

struct MediaLoadState {
  TimeMs complete_ms = -1;
  Bytes delivered = 0;
};

}  // namespace

FeedSessionResult run_feed_session(const Feed& feed, const FeedSessionConfig& config) {
  Rng rng(config.seed);

  ObjectStore store;
  for (const MediaObject& m : feed.media)
    for (const MediaVersion& v : m.versions)
      store.put(parse_url(v.url)->path, v.size);
  SimSession::Wiring wiring;
  wiring.coverage_step_ms = 4.0;
  wiring.record_settles = true;
  SimSession world(config, std::move(store), feed.bounds(), wiring);
  Simulator& sim = world.sim();
  MitmProxy& proxy = world.proxy();
  const Rect vp0 = world.initial_viewport();

  // Dynamic feed: only the first `initial_posts` media exist at open; the
  // rest are revealed in batches just before each fling.
  std::size_t revealed =
      (config.initial_posts > 0 &&
       static_cast<std::size_t>(config.initial_posts) < feed.media.size())
          ? static_cast<std::size_t>(config.initial_posts)
          : feed.media.size();
  const bool dynamic = revealed < feed.media.size();

  std::optional<FeedController> controller;
  if (config.enable_mfhttp) {
    controller.emplace(feed, vp0, &proxy, revealed);
    world.attach_middleware(
        std::vector<MediaObject>(feed.media.begin(),
                                 feed.media.begin() + revealed),
        &*controller);
  }

  // The feed app requests every *present* post's media (top version) when it
  // opens; a dynamic feed requests the rest as batches are revealed.
  std::vector<MediaLoadState> states(feed.media.size());
  auto request_media = [&](std::size_t i) {
    FetchCallbacks cbs;
    cbs.on_complete = [&states, i, &sim](const FetchResult& r) {
      if (r.blocked) return;
      states[i].complete_ms = sim.now();
      states[i].delivered = r.body_size;
    };
    proxy.fetch(HttpRequest::get(feed.media[i].top_version().url), std::move(cbs));
  };
  sim.schedule_at(0, [&, initial = revealed] {
    for (std::size_t i = 0; i < initial; ++i) request_media(i);
  });

  // The flings.
  for (int k = 0; k < config.fling_count; ++k) {
    SwipeSpec spec;
    spec.start_time_ms = config.first_fling_ms + k * config.fling_interval_ms;
    // Reveal the next batch a beat before the finger lands, so the fling's
    // policy sees a feed that just grew — the knapsack's appended-suffix
    // case (prefix reuse: existing indices are untouched).
    if (dynamic && config.append_posts_per_fling > 0) {
      sim.schedule_at(std::max<TimeMs>(1, spec.start_time_ms - 16), [&] {
        std::size_t add =
            std::min<std::size_t>(config.append_posts_per_fling,
                                  feed.media.size() - revealed);
        if (add == 0) return;
        std::size_t first = revealed;
        revealed += add;
        if (Middleware* middleware = world.middleware())
          middleware->append_objects(std::vector<MediaObject>(
              feed.media.begin() + first, feed.media.begin() + revealed));
        if (controller) controller->on_media_appended(first);
        for (std::size_t i = first; i < revealed; ++i) request_media(i);
      });
    }
    spec.start = {rng.uniform(config.device.screen_w_px * 0.3,
                              config.device.screen_w_px * 0.7),
                  config.device.screen_h_px * 0.75};
    spec.direction = {rng.uniform(-0.04, 0.04), -1};
    spec.speed_px_s = config.fling_speed_px_s;
    world.schedule_touches(synthesize_swipe(spec));
  }

  world.run();

  // Score instant playback: for each clip, find the first *scroll-driven*
  // settle event whose viewport shows it; it plays instantly iff the FULL
  // clip had completely arrived by that moment. Clips already on screen when
  // the feed opens are the cold-start set — no scroll prediction can help
  // them, so they are excluded from the metric.
  FeedSessionResult result;
  result.clips_total = feed.clip_count();
  result.full_corpus_bytes = feed.total_full_bytes();
  result.bytes_downloaded = world.bytes_delivered();

  // Media never revealed (a dynamic session that ended early) cannot settle
  // for the user, so only the revealed prefix is scored.
  for (std::size_t i = 0; i < revealed; ++i) {
    const MediaObject& media = feed.media[i];
    bool is_clip = media.versions.size() > 1;
    if (!is_clip) continue;
    if (vp0.overlaps(media.rect)) continue;  // cold start
    std::optional<TimeMs> settle_time;
    for (const SimSession::Settle& settle : world.settles()) {
      if (settle.viewport.overlaps(media.rect)) {
        settle_time = settle.time_ms;
        break;
      }
    }
    if (!settle_time) continue;
    ++result.clips_settled;
    const MediaLoadState& st = states[i];
    bool full_arrived = st.complete_ms >= 0 && st.complete_ms <= *settle_time &&
                        st.delivered >= media.top_version().size;
    if (full_arrived) ++result.clips_instant;
  }
  result.instant_play_rate =
      result.clips_settled > 0
          ? static_cast<double>(result.clips_instant) / result.clips_settled
          : 0.0;

  std::size_t transferred = 0;
  for (const MediaLoadState& st : states)
    if (st.complete_ms >= 0) ++transferred;
  result.media_avoided = feed.media.size() - transferred;
  if (controller) result.thumbs_substituted = controller->stats().thumb_releases;
  world.tally_proxy(&result);
  return result;
}

}  // namespace mfhttp
