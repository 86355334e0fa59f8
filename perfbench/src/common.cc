#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace perfbench {

void spin_for_us(double us) {
  if (us <= 0) return;
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(us * 1000.0);
  while (now_ns() < until) {
  }
}

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) throw std::runtime_error("cannot read a CPU clock");
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

namespace {

// The highest of {requested, 99, 95, 90, 75, 50} (not above requested) with
// at least ten of n samples beyond it; 0 when there is none.
double tail_percentile(std::size_t n, double requested) {
  for (double p : {requested, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > requested) continue;
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 0;
}

constexpr int kSubBuckets = 64;
constexpr int kOctaves = 40;  // values up to 2^40

}  // namespace

TailStat tail(const std::vector<double>& v, double requested) {
  TailStat t;
  t.n = v.size();
  t.used = tail_percentile(t.n, requested);
  if (t.used > 0) t.value = percentile(v, t.used);
  return t;
}

LogHistogram::LogHistogram() : buckets_(kSubBuckets * kOctaves, 0) {}

void LogHistogram::add(double v) {
  const double x = std::log2(std::max(v, 1.0)) * kSubBuckets;
  const std::size_t b =
      std::min(static_cast<std::size_t>(x), buckets_.size() - 1);
  ++buckets_[b];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (rank < static_cast<double>(below + buckets_[b])) {
      const double lo = std::exp2(static_cast<double>(b) / kSubBuckets);
      const double hi = std::exp2(static_cast<double>(b + 1) / kSubBuckets);
      const double frac = (rank - static_cast<double>(below) + 0.5) /
                          static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * frac;
    }
    below += buckets_[b];
  }
  return std::exp2(static_cast<double>(buckets_.size()) / kSubBuckets);
}

TailStat LogHistogram::tail(double requested) const {
  TailStat t;
  t.n = count_;
  t.used = tail_percentile(t.n, requested);
  if (t.used > 0) t.value = percentile(t.used);
  return t;
}

void Fnv::bytes(const void* p, std::size_t n) {
  const unsigned char* c = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= c[i];
    h *= 0x100000001b3ull;
  }
}

void Fnv::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

namespace {

void read_loadavg(double out[3]) {
  if (getloadavg(out, 3) != 3) out[0] = out[1] = out[2] = -1;
}

}  // namespace

HostInfo host_at_start() {
  HostInfo host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) host.affinity.push_back(cpu);
  }
  host.nproc = host.affinity.empty() ? 1u
                                     : static_cast<unsigned>(host.affinity.size());
  read_loadavg(host.loadavg_start);
  return host;
}

void host_at_end(HostInfo& host) { read_loadavg(host.loadavg_end); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned worker_threads(const HostInfo& host) {
  return host.nproc > 1 ? host.nproc - 1 : 1;
}

unsigned Options::workers(const HostInfo& host, unsigned workload_default) const {
  unsigned n = std::min(worker_threads(host), workload_default);
  if (max_workers > 0) n = std::min(n, max_workers);
  return n;
}

bool Report::correct() const {
  for (const auto& [name, ok] : checks)
    if (!ok) return false;
  return !checks.empty();
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ",";
    first = false;
    out += quote(name) + ":{\"value\":" + number(metric.value) +
           ",\"unit\":" + quote(metric.unit) + "}";
  }
  return out + "}";
}

std::string triple(const double v[3]) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "[%.17g,%.17g,%.17g]", v[0], v[1], v[2]);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"workload\":" + quote(workload);
  out += ",\"correct\":" + std::string(correct() ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"checks\":{";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i) out += ",";
    out += quote(checks[i].first) + ":" + (checks[i].second ? "true" : "false");
  }
  out += "},\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i) out += ",";
    out += quote(notes[i]);
  }
  out += "],\"e2e\":" + metrics_json(e2e);
  out += ",\"layer\":" + metrics_json(layer);
  out += ",\"detail\":" + metrics_json(detail);
  out += ",\"fingerprint\":" + (fingerprint.empty() ? "null" : quote(fingerprint));
  out += ",\"invalid_phases\":" + std::to_string(invalid_phases);
  out += ",\"host\":{\"nproc\":" + std::to_string(host.nproc) + ",\"affinity\":[";
  for (std::size_t i = 0; i < host.affinity.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(host.affinity[i]);
  }
  out += "],\"loadavg_start\":" + triple(host.loadavg_start);
  out += ",\"loadavg_end\":" + triple(host.loadavg_end) + "}}";
  return out;
}

}  // namespace perfbench
