// In-memory spans for the traced run. Each span has a name, start, end, the
// span that caused it (parent) and the id of the operation it belongs to.
// Spans are recorded by the benchmark around its calls into the program's
// public functions; the program itself is not instrumented. At exit the
// spans are summarized into per-layer durations and self times and written
// out as Chrome trace-event JSON.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

enum class SpanName : std::uint32_t {
  kQueueWait,       // benchmark queue: due time -> worker start
  kGestureTouch,    // TouchEventMonitor::on_touch_event over one swipe
  kCoreOnGesture,   // Middleware::on_gesture (child of kGestureTouch)
  kScrollAnalyze,   // ScrollTracker::analyze re-called on the prediction
  kFrontdoorBatch,  // run_front_door over one batch
  kCacheReplay,     // HttpCache lookup/put replay on one thread
  kWebSession,      // run_browsing_session
  kWebGeneratePage, // generate_page
  kCount
};
constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);
const char* span_name(SpanName name);

struct Span {
  SpanName name = SpanName::kCount;
  std::uint32_t parent = 0;  // handle of the parent span in the same log; 0 = root
  std::uint64_t op = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

// One thread's spans. Handles are index + 1, so 0 means "no span"; a
// disabled log hands out 0 and records nothing.
class SpanLog {
 public:
  SpanLog(bool enabled, unsigned tid) : enabled_(enabled), tid_(tid) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  unsigned tid() const { return tid_; }
  void reserve(std::size_t n) {
    if (enabled_) spans_.reserve(n);
  }

  std::uint32_t open(SpanName name, std::uint32_t parent, std::uint64_t op) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, parent, op, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t handle) {
    if (handle != 0) spans_[handle - 1].t1 = now_ns();
  }
  std::uint32_t add(SpanName name, std::uint32_t parent, std::uint64_t op,
                    std::int64_t t0, std::int64_t t1) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, parent, op, t0, t1});
    return static_cast<std::uint32_t>(spans_.size());
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  unsigned tid_;
  std::vector<Span> spans_;
};

// Durations and self times (span minus the time its direct children cover),
// in microseconds, grouped by span name over a set of logs.
struct SpanStats {
  std::array<std::vector<double>, kSpanNames> dur_us;
  std::array<std::vector<double>, kSpanNames> self_us;
  std::array<double, kSpanNames> busy_s{};  // summed durations

  const std::vector<double>& dur(SpanName n) const {
    return dur_us[static_cast<std::size_t>(n)];
  }
  const std::vector<double>& self(SpanName n) const {
    return self_us[static_cast<std::size_t>(n)];
  }
  double busy(SpanName n) const { return busy_s[static_cast<std::size_t>(n)]; }
};
SpanStats summarize(const std::vector<const SpanLog*>& logs);

// Writes at most `max_events` spans (the earliest ones of each log, shared
// out evenly) as Chrome trace-event JSON. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::int64_t origin_ns, std::size_t max_events);

}  // namespace perfbench
