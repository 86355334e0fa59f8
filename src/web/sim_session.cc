#include "web/sim_session.h"

#include <utility>

#include "util/check.h"

namespace mfhttp {

namespace {

Link::Params server_params(const SessionConfig& config) {
  Link::Params p;
  p.bandwidth = BandwidthTrace::constant(config.server_bandwidth);
  p.latency_ms = config.server_latency_ms;
  p.sharing = Link::Sharing::kFairShare;
  return p;
}

ScrollTracker::Params tracker_params(const SessionConfig& config,
                                     Rect content_bounds,
                                     double coverage_step_ms) {
  ScrollTracker::Params p;
  p.scroll = ScrollConfig(config.device);
  p.scroll.fling.friction *= config.fling_friction_scale;
  p.coverage_step_ms = coverage_step_ms;
  p.content_bounds = content_bounds;
  return p;
}

}  // namespace

ProxyCounters& ProxyCounters::operator+=(const ProxyCounters& o) {
  requests_total += o.requests_total;
  requests_rejected += o.requests_rejected;
  requests_shed += o.requests_shed;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  return *this;
}

double ProxyCounters::shed_rate() const {
  return requests_total > 0
             ? static_cast<double>(requests_rejected + requests_shed) /
                   requests_total
             : 0;
}

double ProxyCounters::cache_hit_ratio() const {
  return cache_hits + cache_misses > 0
             ? static_cast<double>(cache_hits) / (cache_hits + cache_misses)
             : 0;
}

SimSession::SimSession(const SessionConfig& config, ObjectStore store,
                       Rect content_bounds, Wiring wiring)
    : config_(config),
      record_settles_(wiring.record_settles),
      client_trace_(config.client_bandwidth_trace.has_value()
                        ? *config.client_bandwidth_trace
                        : BandwidthTrace::constant(config.client_bandwidth)),
      server_link_(sim_, wiring.server_link.has_value()
                             ? std::move(*wiring.server_link)
                             : server_params(config)),
      store_(std::move(store)),
      origin_(sim_, &store_, &server_link_),
      vp0_{0, 0, config.device.screen_w_px, config.device.screen_h_px},
      tracker_params_(
          tracker_params(config, content_bounds, wiring.coverage_step_ms)),
      gt_tracker_(tracker_params_),
      gt_viewport_(vp0_, content_bounds),
      gt_recognizer_(config.device) {
  Link::Params client;
  client.bandwidth = client_trace_;
  client.latency_ms = config.client_latency_ms;
  client.sharing = wiring.client_sharing;

  // The whole decorator stack — client-hop faults, origin faults,
  // resilience, proxy — assembles through the one canonical builder. An
  // explicit config plan wins; with ambient_fault_plan the builder falls
  // back to --fault-plan, and it treats an empty plan as none.
  FetchPipelineBuilder builder(sim_, &origin_);
  builder.client_link(client);
  if (config.fault_plan != nullptr || wiring.ambient_fault_plan)
    builder.with_faults(config.fault_plan);
  MitmProxy::Params proxy_params;
  if (builder.has_faults() && wiring.resilience.has_value()) {
    builder.with_resilience(*wiring.resilience);
    proxy_params.defer_timeout_ms = wiring.defer_timeout_ms;
  }
  if (config.enable_cache) builder.with_cache(config.cache);
  if (config.admission.has_value()) builder.with_admission(*config.admission);
  builder.proxy_params(proxy_params);
  pipeline_ = builder.build();
}

void SimSession::attach(std::vector<MediaObject> objects,
                        Interceptor* controller,
                        Middleware::PolicyCallback on_policy) {
  MFHTTP_CHECK(!middleware_.has_value());
  Middleware::Params mp;
  mp.tracker = tracker_params_;
  mp.flow.weights = config_.weights;
  // §5.1.2: bandwidth is rarely the web bottleneck — constraint released.
  mp.flow.ignore_bandwidth_constraint = true;
  mp.initial_viewport = vp0_;
  mp.gesture_uplink_ms = config_.client_latency_ms;
  middleware_.emplace(mp, std::move(objects), client_trace_, &sim_);
  proxy().set_interceptor(controller);
  middleware_->set_policy_callback(std::move(on_policy));
  monitor_.emplace(config_.device,
                   [this](const Gesture& g) { middleware_->on_gesture(g); });
}

void SimSession::schedule_touches(const TouchTrace& trace) {
  for (const TouchEvent& ev : trace)
    sim_.schedule_at(ev.time_ms, [this, ev] { on_touch(ev); });
}

void SimSession::on_touch(const TouchEvent& ev) {
  if (monitor_) monitor_->on_touch_event(ev);
  auto g = gt_recognizer_.on_touch_event(ev);
  if (!g) return;
  gt_viewport_.interrupt(g->down_time_ms);
  gt_viewport_.apply_contact_pan(*g);
  if (!g->scrolls()) return;
  const ScrollPrediction pred =
      gt_tracker_.predict(*g, gt_viewport_.at(g->up_time_ms));
  gt_viewport_.begin_animation(pred);
  if (record_settles_)
    settles_.push_back(
        {pred.start_time_ms + static_cast<TimeMs>(pred.duration_ms),
         pred.final_viewport()});
}

void SimSession::tally_proxy(ProxyCounters* out) const {
  const MitmProxy::Stats& ps = pipeline_->proxy().stats();
  out->requests_total = ps.allowed + ps.blocked + ps.deferred + ps.rejected +
                        ps.shed + ps.header_violations + ps.cache_hits;
  out->requests_rejected = ps.rejected;
  out->requests_shed = ps.shed;
  if (HttpCache* cache = pipeline_->cache()) {
    HttpCache::Stats cs = cache->stats();
    out->cache_hits = cs.hits;
    out->cache_misses = cs.misses;
  }
}

}  // namespace mfhttp
