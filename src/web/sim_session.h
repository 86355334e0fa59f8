// One simulated session world (DESIGN.md §19): the touch → middleware
// policy → proxy → client-link path that the browsing, feed and sustained-
// browsing experiments all run. The world owns the simulator, the client
// and server links, the object store and origin, the built FetchPipeline,
// the ground-truth scroll state, and — once a controller is attached — the
// Middleware and its touch-event monitor. A driver keeps only its app: the
// Browser and its fill timeline, the feed's media requests and reveals, the
// settle-lag scoring.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/flow_controller.h"
#include "core/middleware.h"
#include "core/scroll_tracker.h"
#include "core/viewport_state.h"
#include "fault/fault_plan.h"
#include "gesture/recognizer.h"
#include "gesture/touch_event.h"
#include "http/cache.h"
#include "http/fetch_pipeline.h"
#include "http/object_store.h"
#include "http/resilient_fetcher.h"
#include "http/sim_http.h"
#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "overload/admission.h"
#include "scroll/device_profile.h"
#include "sim/simulator.h"

namespace mfhttp {

// The session knobs every simulated experiment shares. BrowsingSessionConfig
// and FeedSessionConfig derive from it; the defaults here are the paper's
// campus-WLAN browsing setup, and a derived config overrides its own.
struct SessionConfig {
  DeviceProfile device = DeviceProfile::nexus6();
  bool enable_mfhttp = true;

  // Network: a fast middleware-origin hop and a (comparatively) constrained
  // device hop that all responses share.
  BytesPerSec client_bandwidth = 2.0e6;   // 2 MB/s WLAN share
  TimeMs client_latency_ms = 8;
  BytesPerSec server_bandwidth = 12.5e6;  // ~100 Mbps campus backbone
  TimeMs server_latency_ms = 4;
  // Variable client-hop bandwidth (scenario network profiles); when set it
  // replaces the constant client_bandwidth trace on the link AND as the
  // flow controller's B(t).
  std::optional<BandwidthTrace> client_bandwidth_trace;

  // Device-class fling calibration (scenario::DeviceClassSpec): multiplies
  // FlingParams::friction for both the ground-truth tracker and the
  // middleware's predictor. 1.0 = stock Android physics, byte-identical.
  double fling_friction_scale = 1.0;

  // Fault injection (DESIGN.md §9). nullptr means no explicit plan; whether
  // the ambient fault::global_plan() then applies is the driver's choice
  // (SimSession::Wiring::ambient_fault_plan). An empty plan is no plan.
  const fault::FaultPlan* fault_plan = nullptr;

  // Middleware-server cache. Off by default: a single session re-fetches
  // nothing, so the pristine arms stay byte-identical.
  bool enable_cache = false;
  CacheParams cache;

  // Overload protection at the proxy (scenario "overload" section). Absent:
  // no admission controller — byte-identical to the historical stack.
  std::optional<overload::AdmissionParams> admission;

  FlowWeights weights{1.0, 0.0};  // paper: q = 0 for web experiments

  TimeMs session_ms = 60'000;
  std::uint64_t seed = 1;
};

// Proxy-side accounting for the scenario matrix columns: every request the
// proxy saw, the subset bounced by admission (429/503) or shed by brownout,
// and the middleware-cache hit/miss split (0/0 without a cache).
struct ProxyCounters {
  std::size_t requests_total = 0;
  std::size_t requests_rejected = 0;
  std::size_t requests_shed = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  ProxyCounters& operator+=(const ProxyCounters& o);
  double shed_rate() const;        // (rejected + shed) / total; 0 when idle
  double cache_hit_ratio() const;  // hits / (hits + misses); 0 without lookups
};

class SimSession {
 public:
  // How a driver's world differs from the default wiring. These are the
  // drivers' own choices, not session knobs, so they are not config fields.
  struct Wiring {
    // Origin-access hop. Absent: constant server_bandwidth at
    // server_latency_ms, fair-shared.
    std::optional<Link::Params> server_link;
    Link::Sharing client_sharing = Link::Sharing::kFairShare;
    // Swept-viewport sampling step of the ground truth and the middleware.
    double coverage_step_ms = ScrollTracker::Params{}.coverage_step_ms;
    // Without an explicit config plan, fall back to fault::global_plan().
    bool ambient_fault_plan = false;
    // With a plan active: the retry/breaker layer between proxy and origin,
    // plus the proxy's deferred-queue watchdog at defer_timeout_ms.
    std::optional<ResilientFetcherParams> resilience;
    TimeMs defer_timeout_ms = 0;
    // Record where each scrolling gesture comes to rest (settles()).
    bool record_settles = false;
  };

  struct Settle {
    TimeMs time_ms;
    Rect viewport;
  };

  // `config` must outlive the world. `store` holds every object the origin
  // serves; `content_bounds` is the scrollable content's extent.
  SimSession(const SessionConfig& config, ObjectStore store,
             Rect content_bounds, Wiring wiring);
  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  Simulator& sim() { return sim_; }
  FetchPipeline& pipeline() { return *pipeline_; }
  MitmProxy& proxy() { return pipeline_->proxy(); }
  Rect initial_viewport() const { return vp0_; }

  // MF-HTTP on this world: a Middleware over `objects` whose policies drive
  // `controller` (a BlockListController or FeedController), which also
  // becomes the proxy's interceptor; touches scheduled afterwards reach the
  // middleware through a TouchEventMonitor. Call at most once.
  template <typename Controller>
  void attach_middleware(std::vector<MediaObject> objects,
                         Controller* controller) {
    attach(
        std::move(objects), controller,
        [controller](const ScrollAnalysis& a, const DownloadPolicy& p) {
          controller->on_policy(a, p);
        });
  }
  // Null until attach_middleware.
  Middleware* middleware() { return middleware_ ? &*middleware_ : nullptr; }

  // Schedules every event of `trace` into the ground truth and, when
  // attached, the middleware's monitor.
  void schedule_touches(const TouchTrace& trace);

  // Ground-truth viewport trajectory — the same scrolling physics whether
  // or not MF-HTTP is attached, so both arms measure the same thing.
  const ViewportState& viewport() const { return gt_viewport_; }
  // Where each scrolling gesture came to rest, in gesture order (recorded
  // only with Wiring::record_settles).
  const std::vector<Settle>& settles() const { return settles_; }

  // Runs the simulation to config.session_ms.
  void run() { sim_.run_until(config_.session_ms); }

  Bytes bytes_delivered() const {
    return pipeline_->client_link().bytes_delivered_total();
  }
  void tally_proxy(ProxyCounters* out) const;

 private:
  void attach(std::vector<MediaObject> objects, Interceptor* controller,
              Middleware::PolicyCallback on_policy);
  void on_touch(const TouchEvent& ev);

  const SessionConfig& config_;
  const bool record_settles_;
  Simulator sim_;
  BandwidthTrace client_trace_;
  Link server_link_;
  ObjectStore store_;
  SimHttpOrigin origin_;
  std::unique_ptr<FetchPipeline> pipeline_;

  const Rect vp0_;
  ScrollTracker::Params tracker_params_;
  ScrollTracker gt_tracker_;
  ViewportState gt_viewport_;
  GestureRecognizer gt_recognizer_;
  std::vector<Settle> settles_;

  std::optional<Middleware> middleware_;
  std::optional<TouchEventMonitor> monitor_;
};

}  // namespace mfhttp
