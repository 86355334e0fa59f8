// Shared pieces of the benchmark binary (mfbench): clocks, order statistics, host
// facts, the fixed delay used by the sensitivity self-test, and the report
// every workload fills in and prints as one JSON line.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Time a CPU clock has run, in ns: CLOCK_THREAD_CPUTIME_ID for the calling
// thread, or another thread's clock from pthread_getcpuclockid. With steal
// time accounting (paravirtualized guests) it leaves out time the host took
// the vCPU away, so a rate per CPU-second measures the program's work rather
// than the host's scheduler.
std::int64_t cpu_ns(clockid_t clock = CLOCK_THREAD_CPUTIME_ID);

// Busy-waits `us` microseconds. The sensitivity self-test injects this into
// the benchmark's wrapper around one layer call.
void spin_for_us(double us);

// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// The highest of the candidate percentiles {requested, 99, 95, 90, 75, 50}
// that still has at least ten samples beyond it. `used` is the percentile
// taken; 0 when there are too few samples for any of them.
struct TailStat {
  double value = 0;
  double used = 0;
  std::size_t n = 0;
};
TailStat tail(const std::vector<double>& v, double requested);

// Log-linear histogram of values >= 1 (64 buckets per power of two, so a
// bucket spans 1.1% of its values), for sample streams whose count grows with
// the run's speed: its memory is fixed, so peak RSS does not follow throughput.
// Percentiles interpolate linearly by rank within a bucket.
class LogHistogram {
 public:
  LogHistogram();
  void add(double v);
  void merge(const LogHistogram& other);
  std::uint64_t count() const { return count_; }
  double percentile(double p) const;
  TailStat tail(double requested) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// FNV-1a, folding raw bytes; doubles fold by bit pattern.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v);
};

struct HostInfo {
  unsigned nproc = 0;
  std::vector<int> affinity;  // CPUs this process may run on
  double loadavg_start[3] = {0, 0, 0};
  double loadavg_end[3] = {0, 0, 0};
};
HostInfo host_at_start();
void host_at_end(HostInfo& host);
double peak_rss_mb();

// Worker threads a workload may start beside the thread that drives it, so
// that the process never runs more threads than the host has CPUs.
unsigned worker_threads(const HostInfo& host);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON path ("" = none)
  // Caps the workload's worker threads below its default (0 = default).
  unsigned max_workers = 0;
  // Microseconds of busy wait in the benchmark's wrapper around
  // Middleware::on_gesture (gesture_paced only; sensitivity self-test).
  double inject_core_us = 0;

  // Worker threads to start: the workload's default, capped by
  // max_workers and by worker_threads(host).
  unsigned workers(const HostInfo& host, unsigned workload_default) const;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Correctness gates and effect witnesses; any false fails the run.
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;  // human-readable context lines
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  // Workload-specific end-to-end figures (printed, not part of the
  // fixed cross-workload metric set).
  std::map<std::string, Metric> detail;
  std::string fingerprint;  // hex; empty when the workload has none
  std::size_t invalid_phases = 0;
  HostInfo host;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  bool correct() const;
  std::string json() const;
};

}  // namespace perfbench
