// Shared harness for the reproduction benches: the scaled population /
// scan / crawl fixtures, the measured-vs-paper console table, and the
// BENCH_<name>.json exporter (obs::BenchReport).
//
// Every bench main follows the same shape:
//
//   int main(int argc, char** argv) {
//     torsim::bench::init("fig1_ports", &argc, argv);
//     torsim::bench::run_benchmarks();
//     print_figure1();               // bench::print_row(...) calls
//     return torsim::bench::finish();  // writes BENCH_fig1_ports.json
//   }
//
// init() strips two custom flags that google-benchmark leaves in argv:
//   --scale=S       fixture scale (default 1.0 — the paper's numbers)
//   --bench-out=DIR where BENCH_<name>.json is written (default ".")
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "population/population.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"

namespace torsim::bench {

namespace detail {

inline std::unique_ptr<obs::BenchReport>& report_slot() {
  static std::unique_ptr<obs::BenchReport> slot;
  return slot;
}

inline std::string& out_dir() {
  static std::string dir = ".";
  return dir;
}

}  // namespace detail

/// The active report. init() names it; calling report() first falls
/// back to an "unnamed" report so fixtures stay usable from tests.
inline obs::BenchReport& report() {
  auto& slot = detail::report_slot();
  if (!slot) slot = std::make_unique<obs::BenchReport>("unnamed");
  return *slot;
}

/// Fixture scale set via --scale= (1.0 = the paper-scale population).
inline double scale() { return report().scale(); }

/// ConsoleReporter that also records every run into the BENCH_*.json
/// benchmarks section (per-iteration seconds).
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      report().add_benchmark(run.benchmark_name(),
                             run.real_accumulated_time / iters,
                             run.cpu_accumulated_time / iters,
                             static_cast<std::int64_t>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// Initialises google-benchmark, names the report, and consumes the
/// harness's own --scale= / --bench-out= flags.
inline void init(const std::string& name, int* argc, char** argv) {
  benchmark::Initialize(argc, argv);
  detail::report_slot() = std::make_unique<obs::BenchReport>(name);
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      report().set_scale(std::stod(arg.substr(8)));
      continue;
    }
    if (arg.rfind("--bench-out=", 0) == 0) {
      detail::out_dir() = arg.substr(12);
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  if (*argc > 1)
    throw std::invalid_argument(std::string("unknown bench flag ") + argv[1]);
}

/// RunSpecifiedBenchmarks through the recording reporter.
inline void run_benchmarks() {
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
}

/// Writes BENCH_<name>.json into --bench-out (default "."); returns the
/// process exit code.
inline int finish() {
  const std::string path = report().write_json(detail::out_dir());
  if (path.empty()) {
    std::fprintf(stderr, "error: cannot write BENCH_%s.json under %s\n",
                 report().name().c_str(), detail::out_dir().c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

/// The scaled population (scale 1.0 = the paper's 39,824 services),
/// generated once per binary.
inline const population::Population& full_population() {
  static const population::Population pop = [] {
    const auto timer = report().phases().scope("population");
    population::PopulationConfig config;
    config.seed = 20130204;
    config.scale = scale();
    return population::Population::generate(config);
  }();
  return pop;
}

/// The full multi-day port scan of the harvested addresses.
inline const scan::ScanReport& full_scan() {
  static const scan::ScanReport report_ = [] {
    const auto timer = report().phases().scope("scan");
    scan::PortScanner scanner(
        scan::ScanConfig{.metrics = &report().metrics()});
    return scanner.scan(full_population());
  }();
  return report_;
}

/// The crawl two months after the scan.
inline const scan::CrawlReport& full_crawl() {
  static const scan::CrawlReport report_ = [] {
    const auto timer = report().phases().scope("crawl");
    scan::Crawler crawler(
        scan::CrawlConfig{.metrics = &report().metrics()});
    return crawler.crawl(full_population(), full_scan());
  }();
  return report_;
}

/// Measured-vs-paper console table, recorded into the JSON rows
/// section (obs::BenchReport prints "n/a" when paper == 0).
inline void print_header(const std::string& title) {
  report().print_header(title);
}

inline void print_row(const std::string& label, double measured,
                      double paper) {
  report().print_row(label, measured, paper);
}

}  // namespace torsim::bench
