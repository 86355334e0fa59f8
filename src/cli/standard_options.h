// The standard flag set every mfhttp bench and example speaks — one RAII
// object built on util/cli_options.h (ISSUE 4 satellite; supersedes the
// fault layer's StandardFlagsGuard):
//
//   --metrics-json <path>    dump the obs registry snapshot at exit,
//   --scenario <path>        load a scenario::ScenarioSpec (device class +
//                            network profile + workload + fault/cache/
//                            overload sections, DESIGN.md §16) and install
//                            its compiled fault plan as the ambient
//                            fault::global_plan() for every session,
//   --fault-plan <path>      DEPRECATED alias: install a bare fault plan.
//                            Prefer a "fault" section in --scenario,
//   --cache-config <path>    DEPRECATED alias: load a prefetch::CacheConfig.
//                            Prefer a "cache" section in --scenario,
//   --transport sim|socket   origin backend for pipelines built through
//                            FetchPipelineBuilder::with_origin (sim: the
//                            discrete-event SimHttpOrigin; socket: the real
//                            epoll loopback transport, DESIGN.md §15).
//
// Precedence when flags are combined: --scenario loads first and is the
// source of truth; a deprecated alias given *alongside* it overrides the
// matching section of the spec (the override is logged, so a command line
// that contradicts its scenario is visible in the run log). An alias given
// *without* --scenario keeps its historical behavior unchanged — existing
// scripts keep working, they just get a deprecation warning pointing at the
// scenario equivalent.
//
// Construction registers the flags (plus any binary-specific ones via the
// `extend` hook), parses argv in place, and *loads* the named files —
// exiting 2 with the shared error format when a named payload cannot be
// used, because a bench that silently ran fault-free or cache-free did not
// measure what its command line claims. Destruction writes the metrics
// snapshot and uninstalls the fault plan, so consecutive binaries in one
// test run never leak state into each other.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "http/transport.h"
#include "prefetch/cache_config.h"
#include "scenario/scenario_spec.h"
#include "util/cli_options.h"

namespace mfhttp::cli {

class StandardOptions {
 public:
  // `extend` registers extra binary-specific flags on the same parser (and
  // shares its error formatting); unrecognized argv entries survive for
  // downstream positional parsing.
  using ExtendFn = std::function<void(CliOptions&)>;
  StandardOptions(int& argc, char** argv, const ExtendFn& extend = {});
  ~StandardOptions();
  StandardOptions(const StandardOptions&) = delete;
  StandardOptions& operator=(const StandardOptions&) = delete;

  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& fault_plan_path() const { return fault_plan_path_; }
  const std::string& cache_config_path() const { return cache_config_path_; }
  const std::string& scenario_path() const { return scenario_path_; }

  // The loaded --scenario (with any deprecated-alias overrides applied);
  // nullopt when the flag was absent.
  bool has_scenario() const { return scenario_.has_value(); }
  const scenario::ScenarioSpec& scenario() const { return *scenario_; }

  // The effective cache configuration: the --scenario spec's "cache"
  // section, unless the deprecated --cache-config override was given.
  // Default-constructed when neither was.
  const prefetch::CacheConfig& cache_config() const { return cache_config_; }
  bool has_cache_config() const { return has_cache_config_; }

  // The parsed --transport (default kSim). Binaries pass this to
  // FetchPipelineBuilder::with_transport.
  TransportKind transport() const { return transport_; }

 private:
  std::string metrics_path_;
  std::string fault_plan_path_;
  std::string cache_config_path_;
  std::string scenario_path_;
  std::string transport_name_;
  TransportKind transport_ = TransportKind::kSim;
  std::optional<scenario::ScenarioSpec> scenario_;
  prefetch::CacheConfig cache_config_;
  bool has_cache_config_ = false;
  bool fault_plan_installed_ = false;
};

}  // namespace mfhttp::cli
