// Scenario matrix — the ScenarioSpec acceptance artifact (DESIGN.md §16):
// device class × network profile × workload, every cell wired through
// ScenarioSpec + from_scenario and scored on the same five columns (QoE,
// viewport-load P99, goodput, shed rate, cache hit ratio) plus an FNV
// fingerprint over every per-session deterministic quantity.
//
// Two properties are asserted in-binary, mirroring scale_matrix:
//
//   * paper_default_identical — the paper-default cells (phone_flagship ×
//     wlan × {paper_corpus, client_only}) are re-run through a hand-wired
//     fig7-style loop that never touches ScenarioSpec; the spec-driven rows
//     must reproduce it byte for byte. The scenario API is a new front door
//     on the fig6/fig7 harness, not a new harness.
//   * deterministic_across_workers — the full grid is re-run at every
//     --workers count (cells parallelized via sim::ParallelRunner) and the
//     concatenated deterministic row JSON must not change. A sweep whose
//     answers depend on thread count is not a benchmark.
//
//   scenario_matrix [--base spec.json] [--devices LIST] [--networks LIST]
//                   [--workloads LIST] [--repeats N] [--sites N]
//                   [--workers 1,2] [--json BENCH_scenario.json]
//
// The default base spec is the built-in grid-stress scenario (cache +
// admission sections on, a dynamic feed, a seeded-random-walk knob left to
// the network profiles) — the same document shipped as
// bench/scenarios/grid_stress.json. Note on the cache column: the fig7
// browsing harness fires exactly one gesture per session, so a prefetch-
// warmed object is never re-referenced and cache_hit_ratio is structurally
// 0 for the corpus workloads — the column is reported (and gated) so
// multi-gesture workloads light it up, not because it moves today. CI's
// scenario-smoke job runs the reduced grid (--sites 6 --repeats 1) and
// gates the output against
// bench/baselines/BENCH_scenario.json via tools/bench_gate.py.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cli/standard_options.h"
#include "scenario/matrix.h"
#include "scenario/wiring.h"
#include "sim/parallel_runner.h"
#include "util/fnv.h"
#include "util/json.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace {

using namespace mfhttp;
using scenario::MatrixCellResult;
using scenario::ScenarioSpec;

// The built-in grid-stress base: paper defaults plus a live cache and a
// tight admission throttle so the cache-hit and shed columns measure
// something in every cell. Kept in sync with bench/scenarios/grid_stress.json.
constexpr const char* kGridStressJson = R"json({
  "name": "grid_stress",
  "seed": 1,
  "cache": {
    "cache": {"capacity_bytes": 4000000, "default_ttl_ms": 8000},
    "prefetch": {"enabled": true, "max_bytes_per_plan": 400000}
  },
  "overload": {
    "admission": {
      "global_rate_per_s": 60, "global_burst": 24,
      "session_rate_per_s": 60, "session_burst": 24,
      "max_inflight_upstream": 12, "max_dispatch_queue": 48
    }
  }
})json";

std::vector<std::string> parse_list(const char* flag, const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    if (comma > pos) out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (out.empty()) CliOptions::fail(flag, s, "expected a comma-separated list");
  return out;
}

std::vector<std::size_t> parse_worker_list(const std::string& s) {
  std::vector<std::size_t> out;
  for (const std::string& tok : parse_list("--workers", s)) {
    char* end = nullptr;
    unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v == 0)
      CliOptions::fail("--workers", s, "expected comma-separated positive ints");
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

int parse_int(const char* flag, const std::string& s, int min) {
  char* end = nullptr;
  long v = std::strtol(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v < min)
    CliOptions::fail(flag, s, "expected an integer in range");
  return static_cast<int>(v);
}

// The independent witness for paper_default_identical: fig7's exact config
// construction (bench/fig7_viewport_load_time.cc) aggregated with the same
// arithmetic as scenario::run_matrix_cell, but never touching ScenarioSpec.
MatrixCellResult hand_wired_paper_cell(const MatrixCellResult& like,
                                       bool enable_mfhttp, int sites,
                                       int repeats) {
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(42);
  std::vector<WebPage> corpus = generate_corpus(device, rng);
  if (sites > 0 && static_cast<std::size_t>(sites) < corpus.size())
    corpus.resize(sites);

  MatrixCellResult out;
  out.scenario = like.scenario;
  out.device = like.device;
  out.network = like.network;
  out.workload = like.workload;

  Fnv fp;
  std::vector<TimeMs> load_times;
  double qoe_sum = 0;
  Bytes total_bytes = 0;
  TimeMs total_sim_ms = 0;
  std::size_t requests = 0, rejected = 0, shed = 0, hits = 0, misses = 0;
  for (const WebPage& page : corpus) {
    for (int session = 0; session < repeats; ++session) {
      BrowsingSessionConfig cfg;
      cfg.device = device;
      cfg.fill_sample_ms = 0;
      cfg.seed = 1000 + static_cast<std::uint64_t>(page.site.size()) +
                 static_cast<std::uint64_t>(session) * 7919;
      cfg.swipe_speed_px_s = 3000 + 2500 * session;
      cfg.enable_mfhttp = enable_mfhttp;
      BrowsingSessionResult r = run_browsing_session(page, cfg);
      ++out.sessions;
      load_times.push_back(r.initial_viewport_load_ms);
      qoe_sum += r.initial_viewport_load_ms >= 0
                     ? 1000.0 / (1000.0 + r.initial_viewport_load_ms)
                     : 0.0;
      total_bytes += r.bytes_downloaded;
      total_sim_ms += cfg.session_ms;
      requests += r.requests_total;
      rejected += r.requests_rejected;
      shed += r.requests_shed;
      hits += r.cache_hits;
      misses += r.cache_misses;
      fp.u64(static_cast<std::uint64_t>(r.initial_viewport_load_ms));
      fp.u64(static_cast<std::uint64_t>(r.final_viewport_load_ms));
      fp.u64(static_cast<std::uint64_t>(r.bytes_downloaded));
      fp.u64(r.images_completed);
      fp.u64(r.stranded_deferred);
    }
  }
  out.qoe = out.sessions > 0 ? qoe_sum / out.sessions : 0;
  std::sort(load_times.begin(), load_times.end());
  if (!load_times.empty()) {
    std::size_t idx = (load_times.size() * 99 + 99) / 100;
    if (idx > load_times.size()) idx = load_times.size();
    out.viewport_p99_ms = load_times[idx - 1];
  }
  out.goodput_bytes_per_s =
      total_sim_ms > 0 ? total_bytes * 1000.0 / total_sim_ms : 0;
  out.shed_rate =
      requests > 0 ? static_cast<double>(rejected + shed) / requests : 0;
  out.cache_hit_ratio =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  out.fingerprint = fp.h;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, devices_s, networks_s, workloads_s, repeats_s,
      sites_s, workers_s, json_path;
  cli::StandardOptions standard_options(argc, argv, [&](CliOptions& options) {
    options
        .add_string("--base", "PATH",
                    "base scenario JSON (default: built-in grid_stress)",
                    &base_path)
        .add_string("--devices", "LIST",
                    "device classes (default phone_flagship,phone_lowend,tablet10)",
                    &devices_s)
        .add_string("--networks", "LIST",
                    "network profiles (default wlan,lte,umts3g)", &networks_s)
        .add_string("--workloads", "LIST",
                    "workloads (default paper_corpus,client_only,"
                    "social_feed,tiled_video)",
                    &workloads_s)
        .add_string("--repeats", "N", "sessions per cell point (default: spec)",
                    &repeats_s)
        .add_string("--sites", "N",
                    "limit browsing cells to the first N corpus sites (0 = all)",
                    &sites_s)
        .add_string("--workers", "LIST",
                    "worker counts for the determinism sweep (default 1,2)",
                    &workers_s)
        .add_string("--json", "PATH",
                    "result document (default BENCH_scenario.json)", &json_path);
  });

  std::string error;
  std::optional<ScenarioSpec> base;
  if (base_path.empty()) {
    base = ScenarioSpec::from_json(kGridStressJson, &error);
  } else {
    base = ScenarioSpec::load(base_path, &error);
  }
  if (!base.has_value()) {
    std::fprintf(stderr, "scenario_matrix: bad base spec: %s\n", error.c_str());
    return 2;
  }
  if (!repeats_s.empty())
    base->workload.repeats = parse_int("--repeats", repeats_s, 1);
  if (!sites_s.empty())
    base->workload.corpus_sites = parse_int("--sites", sites_s, 0);
  if (json_path.empty()) json_path = "BENCH_scenario.json";

  const std::vector<std::string> devices =
      devices_s.empty()
          ? std::vector<std::string>{"phone_flagship", "phone_lowend", "tablet10"}
          : parse_list("--devices", devices_s);
  const std::vector<std::string> networks =
      networks_s.empty() ? std::vector<std::string>{"wlan", "lte", "umts3g"}
                         : parse_list("--networks", networks_s);
  const std::vector<std::string> workloads =
      workloads_s.empty()
          ? std::vector<std::string>{"paper_corpus", "client_only",
                                     "social_feed", "tiled_video"}
          : parse_list("--workloads", workloads_s);
  const std::vector<std::size_t> worker_counts =
      workers_s.empty() ? std::vector<std::size_t>{1, 2}
                        : parse_worker_list(workers_s);

  // The grid, plus the two paper-default rows the identity check owns.
  std::vector<ScenarioSpec> cells;
  for (const std::string& d : devices)
    for (const std::string& n : networks)
      for (const std::string& w : workloads)
        cells.push_back(scenario::cell_spec(*base, d, n, w));

  ScenarioSpec paper = ScenarioSpec::paper_default();
  paper.workload.corpus_sites = base->workload.corpus_sites;
  if (!repeats_s.empty()) paper.workload.repeats = base->workload.repeats;
  const std::size_t paper_first = cells.size();
  cells.push_back(
      scenario::cell_spec(paper, "phone_flagship", "wlan", "paper_corpus"));
  cells.push_back(
      scenario::cell_spec(paper, "phone_flagship", "wlan", "client_only"));

  std::printf("=== Scenario matrix: %zu devices x %zu networks x %zu workloads"
              " + 2 paper rows = %zu cells ===\n",
              devices.size(), networks.size(), workloads.size(), cells.size());
  std::printf("(base '%s', repeats %d, sites %s; workers sweep:",
              base->name.c_str(), base->workload.repeats,
              base->workload.corpus_sites > 0
                  ? std::to_string(base->workload.corpus_sites).c_str()
                  : "all");
  for (std::size_t w : worker_counts) std::printf(" %zu", w);
  std::printf("; hardware threads: %u)\n\n",
              std::thread::hardware_concurrency());

  // Run the whole grid at every worker count; rows are reported from the
  // first sweep, later sweeps only feed the byte-identity check.
  std::vector<MatrixCellResult> rows;
  std::string baseline_doc;
  bool deterministic_across_workers = true;
  for (std::size_t workers : worker_counts) {
    std::vector<MatrixCellResult> results(cells.size());
    sim::ParallelRunner runner(workers);
    runner.run(cells.size(), [&](std::size_t i) {
      results[i] = scenario::run_matrix_cell(cells[i]);
    });
    std::string doc;
    for (const MatrixCellResult& r : results) {
      doc += r.deterministic_json();
      doc += '\n';
    }
    if (baseline_doc.empty()) {
      baseline_doc = doc;
      rows = std::move(results);
    } else if (doc != baseline_doc) {
      deterministic_across_workers = false;
      std::fprintf(stderr, "FAIL: results at %zu workers diverged\n", workers);
    }
  }

  // The identity check: re-run the paper-default rows with fig7's hand-wired
  // loop and compare the deterministic JSON byte for byte.
  bool paper_default_identical = true;
  for (std::size_t k = 0; k < 2; ++k) {
    const MatrixCellResult& via_spec = rows[paper_first + k];
    const MatrixCellResult witness = hand_wired_paper_cell(
        via_spec, /*enable_mfhttp=*/k == 0, paper.workload.corpus_sites,
        paper.workload.repeats);
    if (witness.deterministic_json() != via_spec.deterministic_json()) {
      paper_default_identical = false;
      std::fprintf(stderr,
                   "FAIL: paper-default %s diverged from the fig7 harness\n"
                   "  spec:    %s\n  witness: %s\n",
                   via_spec.workload.c_str(),
                   via_spec.deterministic_json().c_str(),
                   witness.deterministic_json().c_str());
    }
  }

  std::printf("%-44s %5s %6s %9s %11s %6s %6s %6s\n", "cell", "sess", "qoe",
              "p99 ms", "goodput B/s", "shed", "hit", "wall");
  for (const MatrixCellResult& r : rows) {
    const std::string cell = r.device + "/" + r.network + "/" + r.workload;
    std::printf("%-44s %5zu %6.3f %9lld %11.0f %6.3f %6.3f %5.0fs\n",
                cell.c_str(), r.sessions, r.qoe,
                static_cast<long long>(r.viewport_p99_ms),
                r.goodput_bytes_per_s, r.shed_rate, r.cache_hit_ratio,
                r.wall_ms / 1000.0);
  }
  std::printf("\npaper_default_identical:       %s\n",
              paper_default_identical ? "yes" : "NO");
  std::printf("deterministic_across_workers:  %s\n",
              deterministic_across_workers ? "yes" : "NO");

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("scenario_matrix");
  w.key("base").value(base->name);
  w.key("repeats").value(base->workload.repeats);
  w.key("corpus_sites").value(base->workload.corpus_sites);
  w.key("paper_default_identical").value(paper_default_identical);
  w.key("deterministic_across_workers").value(deterministic_across_workers);
  w.key("rows").begin_array();
  for (const MatrixCellResult& r : rows) {
    w.begin_object();
    w.key("scenario").value(r.scenario);
    w.key("device").value(r.device);
    w.key("network").value(r.network);
    w.key("workload").value(r.workload);
    w.key("sessions").value(r.sessions);
    w.key("qoe").value(r.qoe);
    w.key("viewport_p99_ms").value(static_cast<long long>(r.viewport_p99_ms));
    w.key("goodput_bytes_per_s").value(r.goodput_bytes_per_s);
    w.key("shed_rate").value(r.shed_rate);
    w.key("cache_hit_ratio").value(r.cache_hit_ratio);
    w.key("fingerprint").value(static_cast<unsigned long long>(r.fingerprint));
    w.key("wall_ms").value(r.wall_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr)
    CliOptions::fail("--json", json_path, "cannot open for writing");
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  return paper_default_identical && deterministic_across_workers ? 0 : 1;
}
