// mfbench: runs one benchmark workload and prints its report as one JSON
// line. perfbench/run.py builds this binary and turns the report into the
// benchmark result. The workload parameters are constants in each
// workload's source; only the thread cap and the self-test's injected delay
// are arguments.
//
//   mfbench --workload gesture_paced --seed 1 --seconds 10 --trace 0
//           [--trace-out trace.json] [--max-workers N] [--inject-core-us US]
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "mfbench: %s\nusage: mfbench --workload gesture_paced|frontdoor_burst|"
               "page_load --seed N --seconds S --trace 0|1 [--trace-out PATH] "
               "[--max-workers N] [--inject-core-us US]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.trace = value == "1";
      } else if (flag == "--trace-out") {
        opts.trace_out = value;
      } else if (flag == "--max-workers") {
        opts.max_workers = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--inject-core-us") {
        opts.inject_core_us = std::stod(value);
      } else {
        return usage(("bad argument " + flag + " " + value).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (opts.seconds <= 0) return usage("--seconds must be positive");
  // The core wrapper exists only in gesture_paced; the other workloads never
  // call Middleware::on_gesture, so a delay there cannot reach them.
  if (opts.inject_core_us != 0 && opts.workload != "gesture_paced")
    return usage("--inject-core-us applies to gesture_paced only");

  perfbench::Report report;
  try {
    if (opts.workload == "gesture_paced") {
      report = perfbench::run_gesture_paced(opts);
    } else if (opts.workload == "frontdoor_burst") {
      report = perfbench::run_frontdoor_burst(opts);
    } else if (opts.workload == "page_load") {
      report = perfbench::run_page_load(opts);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mfbench: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
