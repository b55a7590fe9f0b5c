// Machine-readable bench telemetry: the writer behind the BENCH_*.json
// perf trajectory and the measured-vs-paper console tables.
//
// One BenchReport collects, for a single bench binary or CLI run:
//   * measured-vs-paper rows (the paper-ratio section; ratio is null
//     when the paper value is 0 — printed as "n/a", never "x0.00"),
//   * google-benchmark timings forwarded by the bench harness,
//   * wall-clock phase timings and peak RSS (obs/stopwatch — the
//     non-golden perf section),
//   * a MetricsRegistry snapshot (the counter section).
// The JSON layout is versioned ("torsim-bench-v1") and validated in CI
// by tools/check_bench_json.py. Everything except the wall_clock /
// peak_rss_bytes / benchmarks sections is deterministic for a fixed
// scenario seed; consumers of the perf trajectory read those sections,
// golden tests read the rest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"

namespace torsim::obs {

/// One replayed scenario pack's deterministic summary — the "scenarios"
/// section of BENCH_scenarios.json (schema-checked by
/// tools/check_bench_json.py). Everything here is a pure function of
/// the pack, so the section is golden-stable across machines.
struct ScenarioSummary {
  std::string name;
  int horizon_hours = 0;
  int events_applied = 0;
  std::int64_t timeline_rows = 0;
  std::int64_t services_migrated = 0;
  std::int64_t services_taken_down = 0;
  std::int64_t services_added = 0;
  std::int64_t relays_injected = 0;
  std::int64_t flash_fetches_ok = 0;
  std::int64_t flash_fetches_failed = 0;
};

/// One serving-bench run's throughput/latency telemetry — the optional
/// "serve" section of BENCH_serve.json (schema-checked by
/// tools/check_bench_json.py). Perf telemetry like wall_clock: the
/// latency histogram and requests/s move machine to machine, so the
/// section never feeds the deterministic gates.
struct ServeSummary {
  int clients = 0;
  int threads = 0;
  std::int64_t requests = 0;
  std::int64_t retries = 0;
  std::int64_t reconnects = 0;
  double seconds = 0.0;
  double requests_per_second = 0.0;
  /// The load.latency_us histogram, flattened: strictly increasing
  /// microsecond edges plus one bucket per edge and a trailing
  /// overflow bucket.
  std::vector<std::int64_t> latency_edges_us;
  std::vector<std::int64_t> latency_buckets;
  std::int64_t latency_count = 0;
  std::int64_t latency_sum_us = 0;
  /// Percentile estimates read off the bucket edges (upper edge of the
  /// bucket holding the quantile; the last edge for overflow).
  std::int64_t latency_p50_us = 0;
  std::int64_t latency_p90_us = 0;
  std::int64_t latency_p99_us = 0;
};

/// One data-layout measurement — the optional "population" section of
/// BENCH_population.json (schema-checked by tools/check_bench_json.py,
/// docs/data-layout.md). The byte-accounting fields are deterministic
/// for a fixed scale; the *_rss_delta fields are measured perf
/// telemetry like wall_clock. peak_rss_budget_bytes is the one field
/// the schema checker enforces as a gate: the document's
/// peak_rss_bytes must stay under it.
struct PopulationSummary {
  std::int64_t services = 0;
  std::int64_t column_bytes = 0;
  std::int64_t index_bytes = 0;
  std::int64_t interner_bytes = 0;
  std::int64_t interner_strings = 0;
  std::int64_t legacy_record_bytes = 0;
  /// Measured current-RSS growth while building each layout's shell
  /// (columns vs an array-of-structs mirror); their difference is the
  /// observed reduction.
  std::int64_t soa_rss_delta_bytes = 0;
  std::int64_t legacy_rss_delta_bytes = 0;
  /// hsdir descriptor-arena totals after a publish round (0 when the
  /// bench did not exercise the directory layer).
  std::int64_t arena_bytes = 0;
  std::int64_t arena_live_bytes = 0;
  std::int64_t arena_compactions = 0;
  /// Peak-RSS ceiling for this run; check_bench_json.py fails the
  /// document when peak_rss_bytes exceeds it.
  std::int64_t peak_rss_budget_bytes = 0;
};

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_scale(double scale) { scale_ = scale; }
  double scale() const { return scale_; }

  /// Starts a titled section and prints the "==== title ====" banner.
  void print_header(const std::string& title);

  /// Records one measured-vs-paper row and prints the aligned console
  /// line. A paper value of 0 has no meaningful ratio: it prints "n/a"
  /// and exports ratio: null.
  void print_row(const std::string& label, double measured, double paper);

  /// One recorded google-benchmark result (per-iteration seconds).
  struct BenchmarkRun {
    std::string name;
    double real_time_seconds = 0.0;
    double cpu_time_seconds = 0.0;
    std::int64_t iterations = 0;
  };

  /// Records one google-benchmark result (times in seconds).
  void add_benchmark(const std::string& benchmark_name,
                     double real_time_seconds, double cpu_time_seconds,
                     std::int64_t iterations);

  /// The counter section: subsystem configs point at this registry.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The non-golden wall-clock section.
  PhaseTimer& phases() { return phases_; }

  /// The optional "serve" telemetry section (emitted only once this
  /// has been called, so non-serving bench documents are unchanged):
  /// the daemon-path throughput and latency histogram measured by
  /// bench_serve (docs/serving.md).
  void set_serve_summary(const ServeSummary& summary) {
    serve_ = summary;
    serve_section_present_ = true;
  }

  /// The optional "population" telemetry section (emitted only once
  /// this has been called, so other bench documents are unchanged):
  /// SoA-vs-legacy layout byte accounting and the peak-RSS budget
  /// (docs/data-layout.md).
  void set_population_summary(const PopulationSummary& summary) {
    population_ = summary;
    population_section_present_ = true;
  }

  /// Records one scenario-pack replay; emitted as the optional
  /// "scenarios" array (present only when at least one was recorded, so
  /// non-scenario bench documents are unchanged).
  void add_scenario(const ScenarioSummary& summary) {
    scenarios_.push_back(summary);
  }

  /// The full "torsim-bench-v1" document (peak RSS sampled now).
  std::string to_json() const;

  /// Writes to_json() to `<directory>/BENCH_<name>.json` ("." default).
  /// Returns the path written, or empty on I/O failure.
  std::string write_json(const std::string& directory) const;

 private:
  struct Row {
    std::string section;
    std::string label;
    double measured = 0.0;
    double paper = 0.0;
  };

  std::string name_;
  double scale_ = 1.0;
  std::string current_section_;
  std::vector<Row> rows_;
  std::vector<BenchmarkRun> benchmarks_;
  std::vector<ScenarioSummary> scenarios_;
  MetricsRegistry metrics_;
  PhaseTimer phases_;
  bool serve_section_present_ = false;
  ServeSummary serve_;
  bool population_section_present_ = false;
  PopulationSummary population_;
};

}  // namespace torsim::obs
