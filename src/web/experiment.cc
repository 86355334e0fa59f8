#include "web/experiment.h"

#include <optional>

#include "gesture/synthetic.h"
#include "util/check.h"
#include "util/json.h"
#include "web/blocklist_controller.h"
#include "web/browser.h"

namespace mfhttp {

namespace {

ObjectStore build_store(const WebPage& page) {
  ObjectStore store;
  for (const PageResource& r : page.structure) {
    auto url = parse_url(r.url);
    MFHTTP_CHECK(url.has_value());
    store.put(url->path, r.size, r.kind == ResourceKind::kHtml ? "text/html"
                                                               : "text/css");
  }
  for (const MediaObject& img : page.images) {
    auto url = parse_url(img.top_version().url);
    MFHTTP_CHECK(url.has_value());
    store.put(url->path, img.top_version().size, "image/jpeg");
  }
  return store;
}

}  // namespace

std::string BrowsingSessionResult::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("initial_viewport_load_ms").value(static_cast<long long>(initial_viewport_load_ms));
  w.key("final_viewport_load_ms").value(static_cast<long long>(final_viewport_load_ms));
  w.key("bytes_downloaded").value(static_cast<long long>(bytes_downloaded));
  w.key("total_image_bytes").value(static_cast<long long>(total_image_bytes));
  w.key("images_total").value(images_total);
  w.key("images_completed").value(images_completed);
  w.key("images_avoided").value(images_avoided);
  w.key("stranded_deferred").value(stranded_deferred);
  w.key("final_viewport_y").value(final_viewport.y);
  w.key("fill_timeline").begin_array();
  for (const auto& [t, fill] : fill_timeline) {
    w.begin_object();
    w.key("t_ms").value(static_cast<long long>(t));
    w.key("fill").value(fill);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

BrowsingSessionResult run_browsing_session(const WebPage& page,
                                           const BrowsingSessionConfig& config) {
  Rng rng(config.seed);

  SimSession::Wiring wiring;
  wiring.client_sharing = config.client_sharing;
  wiring.ambient_fault_plan = true;
  if (config.enable_resilience) {
    wiring.resilience = config.resilience;
    wiring.defer_timeout_ms = config.defer_timeout_ms;
  }
  SimSession world(config, build_store(page), page.bounds(), wiring);
  Simulator& sim = world.sim();
  const Rect vp0 = world.initial_viewport();

  // MF-HTTP stack (only in the treatment arm).
  std::optional<BlockListController> controller;
  if (config.enable_mfhttp) {
    controller.emplace(page, vp0, &world.proxy());
    if (config.enable_cache && config.enable_prefetch)
      controller->set_prefetch_enabled(true);
    world.attach_middleware(page.images, &*controller);
    // Breaker-open → stop gating: a policy that cannot reach the origin must
    // not keep requests parked.
    if (ResilientFetcher* resilient = world.pipeline().resilient())
      resilient->set_degraded_callback(
          [&controller](const std::string&, bool open) {
            controller->set_degraded(open);
          });
  }

  Browser browser(sim, &world.proxy(), page);
  sim.schedule_at(0, [&] { browser.load(); });

  // The session's one random scrolling touch.
  SwipeSpec spec;
  spec.start_time_ms = config.scroll_at_ms;
  spec.speed_px_s = config.swipe_speed_px_s;
  double x = rng.uniform(config.device.screen_w_px * 0.3,
                         config.device.screen_w_px * 0.7);
  spec.start = {x, config.swipe_up ? config.device.screen_h_px * 0.25
                                   : config.device.screen_h_px * 0.72};
  spec.direction = {rng.uniform(-0.05, 0.05), config.swipe_up ? 1.0 : -1.0};
  spec.contact_ms = 140;
  world.schedule_touches(synthesize_swipe(spec));

  BrowsingSessionResult result;
  if (config.fill_sample_ms > 0) {
    for (TimeMs t = 0; t <= config.session_ms; t += config.fill_sample_ms) {
      sim.schedule_at(t, [&, t] {
        result.fill_timeline.emplace_back(
            t, browser.viewport_fill_fraction(world.viewport().at(t)));
      });
    }
  }

  world.run();

  result.initial_viewport = vp0;
  result.final_viewport = world.viewport().at(config.session_ms);
  result.initial_viewport_load_ms = browser.viewport_load_time(vp0);
  result.final_viewport_load_ms = browser.viewport_load_time(result.final_viewport);
  result.bytes_downloaded = world.bytes_delivered();
  result.total_image_bytes = page.total_image_bytes() + page.total_structure_bytes();
  result.images_total = page.images.size();
  result.images_completed = browser.images_completed();
  result.images_avoided = result.images_total - result.images_completed;
  result.stranded_deferred = world.proxy().deferred_urls().size();
  world.tally_proxy(&result);
  return result;
}

}  // namespace mfhttp
