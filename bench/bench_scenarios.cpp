// Scenario-pack sweep: one google-benchmark per curated pack under
// scenarios/ (full replay to the horizon), the paper-scale hour step
// (scenarios/testdata/paper-probe.scn, reported as seconds per
// simulated hour), plus a deterministic summary pass that records every
// curated pack into the BENCH_scenarios.json rows and "scenarios"
// sections (schema-checked by tools/check_bench_json.py).
#include "bench_common.hpp"
#include "scenario/engine.hpp"
#include "scenario/pack.hpp"
#include "sim/world.hpp"

namespace {

using namespace torsim;

const std::vector<std::string>& pack_names() {
  static const std::vector<std::string> names =
      scenario::list_packs(TORSIM_SCENARIO_DIR);
  return names;
}

void replay_pack(benchmark::State& state, const std::string& name) {
  const scenario::ScenarioPack pack =
      scenario::load_pack(TORSIM_SCENARIO_DIR, name);
  for (auto _ : state) {
    scenario::ScenarioRunConfig config;
    scenario::ScenarioRunReport report = scenario::run_pack(pack, config);
    benchmark::DoNotOptimize(report);
  }
}

/// The paper-scale probe's hour step. The world is built the way
/// scenario::run_pack builds it for a quiet pack (the probe has no
/// events), outside the timed loop; each iteration then steps one
/// simulated hour, so the reported time per iteration is the cost of
/// one hour at the paper's size. The iteration count is the pack's
/// horizon.
void probe_hour_step(benchmark::State& state,
                     const scenario::ScenarioPack& pack) {
  sim::WorldConfig wc;
  wc.seed = pack.seed;
  wc.start = pack.start;
  wc.honest_relays = pack.relays;
  wc.record_archive = false;
  sim::World world(wc);
  for (int i = 0; i < pack.services; ++i) world.add_service();
  for (auto _ : state) {
    world.step_hour();
    benchmark::ClobberMemory();
  }
  state.counters["services"] = static_cast<double>(world.service_count());
}

/// The deterministic summary pass: one replay per pack, recorded into
/// the rows section (paper = 0 -> ratio null; there is no paper
/// baseline for scripted histories) and the scenarios section.
void record_summaries() {
  bench::print_header("scenario packs");
  for (const std::string& name : pack_names()) {
    const scenario::ScenarioPack pack =
        scenario::load_pack(TORSIM_SCENARIO_DIR, name);
    const auto timer = bench::report().phases().scope("replay/" + name);
    scenario::ScenarioRunConfig config;
    config.metrics = &bench::report().metrics();
    const scenario::ScenarioRunReport result =
        scenario::run_pack(pack, config);

    bench::print_row(name + " events applied", result.events_applied, 0);
    bench::print_row(name + " timeline rows",
                     static_cast<double>(result.timeline.size()), 0);

    obs::ScenarioSummary summary;
    summary.name = result.pack_name;
    summary.horizon_hours = result.horizon_hours;
    summary.events_applied = result.events_applied;
    summary.timeline_rows = static_cast<std::int64_t>(result.timeline.size());
    summary.services_migrated = result.services_migrated;
    summary.services_taken_down = result.services_taken_down;
    summary.services_added = result.services_added;
    summary.relays_injected = result.relays_injected;
    summary.flash_fetches_ok = result.flash_fetches_ok;
    summary.flash_fetches_failed = result.flash_fetches_failed;
    bench::report().add_scenario(summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  torsim::bench::init("scenarios", &argc, argv);
  for (const std::string& name : pack_names())
    benchmark::RegisterBenchmark(
        ("scenario/" + name).c_str(),
        [name](benchmark::State& state) { replay_pack(state, name); });
  const scenario::ScenarioPack probe = scenario::load_pack_file(
      std::string(TORSIM_SCENARIO_DIR) + "/testdata/paper-probe.scn");
  benchmark::RegisterBenchmark(
      "scenario_probe/s_per_hour",
      [probe](benchmark::State& state) { probe_hour_step(state, probe); })
      ->Iterations(probe.horizon_hours)
      ->Unit(benchmark::kSecond)
      ->UseRealTime();
  torsim::bench::run_benchmarks();
  record_summaries();
  return torsim::bench::finish();
}
