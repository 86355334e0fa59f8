// Characterisation tests for the simulated session runners
// (run_browsing_session, run_feed_session): relations between arms that
// must hold whatever the wiring looks like, and golden fingerprints of
// arms that no figure bench or scenario-grid cell covers (feed under an
// explicit fault plan, the dynamic feed with cache + admission, the
// unprotected browsing stack under faults). A refactor of the session
// wiring must keep every one of them bit-exact.
//
// The fingerprint is FNV-1a over the result's fields printed as text, so a
// failing golden prints the fields next to the hash.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fault/fault_plan.h"
#include "feed/feed.h"
#include "feed/feed_experiment.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void append(std::string* out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g ", name, v);
  *out += buf;
}

std::string fields(const FeedSessionResult& r) {
  std::string s;
  append(&s, "clips_total", r.clips_total);
  append(&s, "clips_settled", r.clips_settled);
  append(&s, "clips_instant", r.clips_instant);
  append(&s, "instant_play_rate", r.instant_play_rate);
  append(&s, "bytes_downloaded", r.bytes_downloaded);
  append(&s, "full_corpus_bytes", r.full_corpus_bytes);
  append(&s, "thumbs_substituted", r.thumbs_substituted);
  append(&s, "media_avoided", r.media_avoided);
  append(&s, "requests_total", r.requests_total);
  append(&s, "requests_rejected", r.requests_rejected);
  append(&s, "requests_shed", r.requests_shed);
  append(&s, "cache_hits", r.cache_hits);
  append(&s, "cache_misses", r.cache_misses);
  return s;
}

std::string fields(const Rect& r) {
  std::string s;
  append(&s, "x", r.x);
  append(&s, "y", r.y);
  append(&s, "w", r.w);
  append(&s, "h", r.h);
  return s;
}

std::string fields(const BrowsingSessionResult& r) {
  std::string s;
  append(&s, "initial_viewport_load_ms", r.initial_viewport_load_ms);
  append(&s, "final_viewport_load_ms", r.final_viewport_load_ms);
  append(&s, "bytes_downloaded", r.bytes_downloaded);
  append(&s, "total_image_bytes", r.total_image_bytes);
  append(&s, "images_total", r.images_total);
  append(&s, "images_completed", r.images_completed);
  append(&s, "images_avoided", r.images_avoided);
  append(&s, "requests_total", r.requests_total);
  append(&s, "requests_rejected", r.requests_rejected);
  append(&s, "requests_shed", r.requests_shed);
  append(&s, "cache_hits", r.cache_hits);
  append(&s, "cache_misses", r.cache_misses);
  append(&s, "stranded_deferred", r.stranded_deferred);
  s += "initial_viewport: " + fields(r.initial_viewport);
  s += "final_viewport: " + fields(r.final_viewport);
  append(&s, "fill_samples", static_cast<double>(r.fill_timeline.size()));
  for (const auto& [t, fill] : r.fill_timeline) {
    append(&s, "t", static_cast<double>(t));
    append(&s, "fill", fill);
  }
  return s;
}

Feed make_feed(std::uint64_t seed, int posts) {
  FeedSpec spec;
  spec.post_count = posts;
  Rng rng(seed);
  return generate_feed(spec, kDevice, rng);
}

WebPage corpus_page(const std::string& site) {
  Rng rng(42);
  for (WebPage& page : generate_corpus(kDevice, rng))
    if (page.site == site) return page;
  ADD_FAILURE() << "no corpus site " << site;
  return {};
}

// Installs an ambient --fault-plan for one scope; clears it even when an
// assertion fails, so no other test sees it.
class AmbientPlan {
 public:
  explicit AmbientPlan(fault::FaultPlan plan) {
    fault::set_global_plan(std::move(plan));
  }
  ~AmbientPlan() { fault::set_global_plan(std::nullopt); }
};

// ---------- relations ----------

TEST(SessionCharacterization, FeedIgnoresAmbientFaultPlan) {
  Feed feed = make_feed(7, 40);
  FeedSessionConfig cfg;
  cfg.seed = 3;
  for (bool mfhttp : {false, true}) {
    cfg.enable_mfhttp = mfhttp;
    const std::string pristine = fields(run_feed_session(feed, cfg));
    std::string ambient;
    {
      AmbientPlan guard(fault::FaultPlan::lossy_cellular());
      ambient = fields(run_feed_session(feed, cfg));
    }
    EXPECT_EQ(ambient, pristine) << "mfhttp=" << mfhttp;
  }
}

TEST(SessionCharacterization, BrowsingAmbientPlanEqualsExplicitPlan) {
  const WebPage page = corpus_page("sohu");
  const fault::FaultPlan plan = fault::FaultPlan::lossy_cellular();
  BrowsingSessionConfig cfg;
  cfg.seed = 17;
  for (bool mfhttp : {false, true}) {
    cfg.enable_mfhttp = mfhttp;
    cfg.fault_plan = nullptr;
    const std::string pristine = fields(run_browsing_session(page, cfg));
    std::string ambient;
    {
      AmbientPlan guard(plan);
      ambient = fields(run_browsing_session(page, cfg));
    }
    cfg.fault_plan = &plan;
    const std::string explicit_plan = fields(run_browsing_session(page, cfg));
    EXPECT_EQ(ambient, explicit_plan) << "mfhttp=" << mfhttp;
    // The plan must reach the session at all, or the relation shows nothing.
    EXPECT_NE(explicit_plan, pristine) << "mfhttp=" << mfhttp;
  }
}

// ---------- golden fingerprints ----------

TEST(SessionCharacterization, FeedExplicitFaultPlanGolden) {
  Feed feed = make_feed(7, 40);
  const fault::FaultPlan plan = fault::FaultPlan::lossy_cellular();
  FeedSessionConfig cfg;
  cfg.seed = 3;
  const std::string pristine = fields(run_feed_session(feed, cfg));
  cfg.fault_plan = &plan;
  const std::string faulted = fields(run_feed_session(feed, cfg));
  EXPECT_NE(faulted, pristine);
  EXPECT_EQ(fnv1a(faulted), 12515992191610582585ull) << faulted;
}

TEST(SessionCharacterization, DynamicFeedCacheAdmissionGolden) {
  Feed feed = make_feed(11, 60);
  FeedSessionConfig cfg;
  cfg.seed = 5;
  cfg.initial_posts = 16;
  cfg.append_posts_per_fling = 8;
  cfg.enable_cache = true;
  cfg.cache.capacity_bytes = 8'000'000;
  overload::AdmissionParams admission;
  admission.max_inflight_upstream = 4;
  admission.max_dispatch_queue = 6;
  admission.max_deferred_global = 12;
  cfg.admission = admission;
  const FeedSessionResult r = run_feed_session(feed, cfg);
  EXPECT_GT(r.cache_misses, 0u);
  EXPECT_GT(r.requests_rejected, 0u);
  EXPECT_EQ(fnv1a(fields(r)), 6248120027061931135ull) << fields(r);
}

TEST(SessionCharacterization, UnprotectedBrowsingUnderFaultsGolden) {
  const WebPage page = corpus_page("sohu");
  const fault::FaultPlan plan = fault::FaultPlan::lossy_cellular();
  BrowsingSessionConfig cfg;
  cfg.seed = 17;
  cfg.fault_plan = &plan;
  cfg.enable_resilience = false;
  const BrowsingSessionResult r = run_browsing_session(page, cfg);
  // Without the watchdog, what the stale policy never released stays parked.
  EXPECT_GT(r.stranded_deferred, 0u);
  EXPECT_EQ(fnv1a(fields(r)), 15601853615013689280ull) << fields(r);
}

}  // namespace
}  // namespace mfhttp
