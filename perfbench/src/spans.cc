#include "spans.h"

#include <cstdio>

namespace perfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kQueueWait: return "queue.wait";
    case SpanName::kGestureTouch: return "gesture.on_touch";
    case SpanName::kCoreOnGesture: return "core.on_gesture";
    case SpanName::kScrollAnalyze: return "scroll.analyze";
    case SpanName::kFrontdoorBatch: return "frontdoor.batch";
    case SpanName::kCacheReplay: return "http.cache.replay";
    case SpanName::kWebSession: return "web.session";
    case SpanName::kWebGeneratePage: return "web.generate_page";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanStats summarize(const std::vector<const SpanLog*>& logs) {
  SpanStats stats;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent != 0) child_ns[s.parent - 1] += s.t1 - s.t0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::size_t n = static_cast<std::size_t>(s.name);
      const std::int64_t dur = s.t1 - s.t0;
      stats.dur_us[n].push_back(static_cast<double>(dur) / 1e3);
      stats.self_us[n].push_back(static_cast<double>(dur - child_ns[i]) / 1e3);
      stats.busy_s[n] += static_cast<double>(dur) * 1e-9;
    }
  }
  return stats;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::int64_t origin_ns, std::size_t max_events) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t per_log = logs.empty() ? 0 : max_events / logs.size();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    const std::size_t n = spans.size() < per_log ? spans.size() : per_log;
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"span\":%zu,\"parent\":%u}}",
                   first ? "" : ",", span_name(s.name), log->tid(),
                   static_cast<double>(s.t0 - origin_ns) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(s.op), i + 1, s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
