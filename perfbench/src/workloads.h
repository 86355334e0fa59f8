// The three benchmark workloads. Each builds its inputs from opts.seed,
// measures for opts.seconds, checks its outputs, and fills a Report.
#pragma once

#include "common.h"

namespace perfbench {

Report run_gesture_paced(const Options& opts);
Report run_frontdoor_burst(const Options& opts);
Report run_page_load(const Options& opts);

}  // namespace perfbench
