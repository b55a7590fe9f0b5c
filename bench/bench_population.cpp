// Data-layout bench: the SoA population columns vs the retired
// array-of-structs layout (ROADMAP item 3, docs/data-layout.md).
//
// Measures three things and exports them in the BENCH_population.json
// "population" section:
//   * deterministic byte accounting from Population::memory_footprint()
//     (column/index/interner bytes vs the legacy per-record cost),
//   * the *observed* resident-set delta of building each layout's
//     identity shell (keys/profiles excluded from both, so the delta
//     difference is purely the string-vs-intern-id storage),
//   * hsdir descriptor-arena telemetry after a publish/refresh round
//     (payload bytes live vs held, compaction count).
// The section also carries peak_rss_budget_bytes — the ceiling
// tools/check_bench_json.py enforces against the document's own
// peak_rss_bytes, and tools/check_rss_budget.py tracks across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hsdir/descriptor.hpp"
#include "hsdir/store.hpp"
#include "util/interner.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace {

using namespace torsim;

void BM_PopulationGenerate(benchmark::State& state) {
  for (auto _ : state) {
    population::PopulationConfig config;
    config.seed = 1;
    config.scale = 0.02;
    auto pop = population::Population::generate(config);
    benchmark::DoNotOptimize(pop.size());
  }
}
BENCHMARK(BM_PopulationGenerate)->Unit(benchmark::kMillisecond);

// The by-onion join every pipeline leans on (resolver labels, crawler
// liveness): hash lookup keyed by interner-backed string_view.
void BM_FindByOnion(benchmark::State& state) {
  const auto& pop = bench::full_population();
  std::vector<std::string> probes;
  probes.reserve(1024);
  for (std::size_t i = 0; i < 1024; ++i)
    probes.emplace_back(
        pop.onion(static_cast<population::ServiceId>(i % pop.size())));
  std::size_t hits = 0;
  for (auto _ : state) {
    for (const std::string& onion : probes)
      if (pop.find(onion)) ++hits;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_FindByOnion)->Unit(benchmark::kMicrosecond);

// Column sweep vs handle sweep: the facade's per-id accessors against a
// direct column read, to keep the abstraction's cost on the record.
void BM_SweepRequestRates(benchmark::State& state) {
  const auto& pop = bench::full_population();
  double total = 0.0;
  for (auto _ : state) {
    total = 0.0;
    for (const auto svc : pop.services()) total += svc.requests_per_2h();
    benchmark::DoNotOptimize(total);
  }
  state.counters["requested_total"] = total;
}
BENCHMARK(BM_SweepRequestRates)->Unit(benchmark::kMicrosecond);

/// Legacy identity shell: what the retired ServiceRecord kept per
/// service once keys/profiles are excluded — three owned strings plus
/// the scalar fields.
struct LegacyShell {
  std::string onion;
  std::string label;
  std::string paper_alias;
  population::ServiceClass klass{};
  content::Topic topic{};
  content::Language language{};
  bool published_at_scan = false;
  double daily_availability = 0.0;
  bool alive_at_crawl = false;
  double requests_per_2h = 0.0;
  int paper_rank = 0;
  int physical_server = -1;
};

/// SoA identity shell: the same fields as columns, strings as intern
/// ids (interning is a no-op here — generate() already interned every
/// string, so building this allocates column storage only).
struct SoaShell {
  std::vector<util::StringInterner::Id> onions, labels, aliases;
  std::vector<population::ServiceClass> klasses;
  std::vector<content::Topic> topics;
  std::vector<content::Language> languages;
  std::vector<std::uint8_t> published, alive;
  std::vector<double> availability, requests;
  std::vector<std::int32_t> ranks, servers;
};

struct RssMeasurement {
  std::int64_t legacy_delta = 0;
  std::int64_t soa_delta = 0;
};

/// Builds the legacy shell, then the SoA shell, reading the resident
/// set around each build. Both shells stay live until both deltas are
/// read, so the second build cannot recycle the first one's pages.
RssMeasurement measure_layout_rss() {
  const auto& pop = bench::full_population();
  const auto n = pop.size();
  RssMeasurement out;

  const std::int64_t rss0 = obs::current_rss_bytes();
  std::vector<LegacyShell> legacy;
  legacy.reserve(n);
  for (const auto svc : pop.services()) {
    LegacyShell rec;
    rec.onion = std::string(svc.onion());
    rec.label = std::string(svc.label());
    rec.paper_alias = std::string(svc.paper_alias());
    rec.klass = svc.klass();
    rec.topic = svc.topic();
    rec.language = svc.language();
    rec.published_at_scan = svc.published_at_scan();
    rec.daily_availability = svc.daily_availability();
    rec.alive_at_crawl = svc.alive_at_crawl();
    rec.requests_per_2h = svc.requests_per_2h();
    rec.paper_rank = svc.paper_rank();
    rec.physical_server = svc.physical_server();
    legacy.push_back(std::move(rec));
  }
  const std::int64_t rss1 = obs::current_rss_bytes();

  SoaShell soa;
  soa.onions.reserve(n);
  soa.labels.reserve(n);
  soa.aliases.reserve(n);
  soa.klasses.reserve(n);
  soa.topics.reserve(n);
  soa.languages.reserve(n);
  soa.published.reserve(n);
  soa.alive.reserve(n);
  soa.availability.reserve(n);
  soa.requests.reserve(n);
  soa.ranks.reserve(n);
  soa.servers.reserve(n);
  util::StringInterner& interner = util::global_interner();
  for (const auto svc : pop.services()) {
    soa.onions.push_back(interner.intern(svc.onion()));
    soa.labels.push_back(interner.intern(svc.label()));
    soa.aliases.push_back(interner.intern(svc.paper_alias()));
    soa.klasses.push_back(svc.klass());
    soa.topics.push_back(svc.topic());
    soa.languages.push_back(svc.language());
    soa.published.push_back(svc.published_at_scan() ? 1 : 0);
    soa.alive.push_back(svc.alive_at_crawl() ? 1 : 0);
    soa.availability.push_back(svc.daily_availability());
    soa.requests.push_back(svc.requests_per_2h());
    soa.ranks.push_back(svc.paper_rank());
    soa.servers.push_back(svc.physical_server());
  }
  const std::int64_t rss2 = obs::current_rss_bytes();

  benchmark::DoNotOptimize(legacy.size());
  benchmark::DoNotOptimize(soa.onions.size());
  out.legacy_delta = rss1 - rss0;
  out.soa_delta = rss2 - rss1;
  return out;
}

/// Publish + refresh round against one DescriptorStore: every refresh
/// orphans the old payload span, and the epoch change triggers the
/// dead-dominated compaction.
void arena_round(obs::PopulationSummary& summary) {
  const auto& pop = bench::full_population();
  util::Rng rng(77);
  hsdir::DescriptorStore store;
  const std::size_t count =
      std::min<std::size_t>(pop.size(), 2000);
  const util::UnixTime t0 = util::make_utc(2013, 2, 14);
  std::vector<crypto::Fingerprint> intros(3);
  for (auto& fp : intros)
    for (auto& byte : fp) byte = static_cast<std::uint8_t>(rng.index(256));

  // Replica 0 of service i for the period holding t0.
  const auto descriptor = [&](std::size_t i) {
    const crypto::KeyPair& key =
        pop.service(static_cast<population::ServiceId>(i)).key();
    const auto pid = crypto::permanent_id_from_fingerprint(key.fingerprint());
    const std::uint32_t period = crypto::time_period(t0, pid);
    return hsdir::make_descriptor(key, intros,
                                  crypto::descriptor_id(pid, period, 0), 0,
                                  period, t0);
  };

  store.observe_epoch(1);
  for (std::size_t i = 0; i < count; ++i) store.store(descriptor(i));
  // Two refresh rounds: same ids, fresh payload spans each time — two
  // thirds of the arena is now dead (strictly more than live, which is
  // the compaction trigger).
  for (int round = 0; round < 2; ++round)
    for (std::size_t i = 0; i < count; ++i) store.store(descriptor(i));
  // Next consensus generation: dead > live, so this compacts.
  store.observe_epoch(2);

  summary.arena_bytes = static_cast<std::int64_t>(store.arena_bytes());
  summary.arena_live_bytes =
      static_cast<std::int64_t>(store.live_payload_bytes());
  summary.arena_compactions = store.compactions();
}

void print_population_section() {
  const auto& pop = bench::full_population();
  const auto footprint = pop.memory_footprint();
  const RssMeasurement rss = measure_layout_rss();

  obs::PopulationSummary summary;
  summary.services = static_cast<std::int64_t>(footprint.services);
  summary.column_bytes = static_cast<std::int64_t>(footprint.column_bytes);
  summary.index_bytes = static_cast<std::int64_t>(footprint.index_bytes);
  summary.interner_bytes =
      static_cast<std::int64_t>(footprint.interner_bytes);
  summary.interner_strings =
      static_cast<std::int64_t>(util::global_interner().size());
  summary.legacy_record_bytes =
      static_cast<std::int64_t>(footprint.legacy_record_bytes);
  summary.legacy_rss_delta_bytes = rss.legacy_delta;
  summary.soa_rss_delta_bytes = rss.soa_delta;
  arena_round(summary);
  // Ceiling with ~3-5x headroom over observed peaks (8 MiB at scale
  // 0.05, 24 MiB at 0.5): a fixed floor for the binary + allocator
  // slack plus a per-scale population allowance.
  // tools/check_bench_json.py fails the document if peak RSS crosses
  // it, and tools/check_rss_budget.py flags >10% regressions vs the
  // committed baseline, so layout regressions surface in CI.
  summary.peak_rss_budget_bytes =
      64ll * 1024 * 1024 +
      static_cast<std::int64_t>(bench::scale() * 128.0 * 1024.0 * 1024.0);
  bench::report().set_population_summary(summary);

  bench::print_header("Data layout — SoA columns vs legacy records");
  bench::print_row("services", static_cast<double>(summary.services), 0.0);
  bench::print_row("column_bytes",
                   static_cast<double>(summary.column_bytes), 0.0);
  bench::print_row("legacy_record_bytes",
                   static_cast<double>(summary.legacy_record_bytes), 0.0);
  bench::print_row("interner_bytes",
                   static_cast<double>(summary.interner_bytes), 0.0);
  std::printf("  shell RSS delta: legacy %lld bytes, soa %lld bytes, "
              "reduction %lld bytes\n",
              static_cast<long long>(rss.legacy_delta),
              static_cast<long long>(rss.soa_delta),
              static_cast<long long>(rss.legacy_delta - rss.soa_delta));
  std::printf("  descriptor arena: %lld bytes held, %lld live, "
              "%lld compactions\n",
              static_cast<long long>(summary.arena_bytes),
              static_cast<long long>(summary.arena_live_bytes),
              static_cast<long long>(summary.arena_compactions));
}

}  // namespace

int main(int argc, char** argv) {
  torsim::bench::init("population", &argc, argv);
  torsim::bench::run_benchmarks();
  print_population_section();
  return torsim::bench::finish();
}
