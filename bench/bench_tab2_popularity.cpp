// Table II: ranking of the most popular hidden services by client
// descriptor-request rate over a 2-hour window — the Goldnet botnet
// head, the Skynet cluster, Silk Road at rank ~18, and the named
// services further down — plus the Sec. V resolution statistics
// (1,031,176 requests, 29,123 unique descriptor IDs, 6,113 resolved to
// 3,140 onions, ~80% unresolvable).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "crypto/digest.hpp"
#include "popularity/botnet_inference.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"
#include "util/rng.hpp"

namespace {

using namespace torsim;

const popularity::RequestStream& full_stream() {
  static const popularity::RequestStream stream = [] {
    const auto timer = bench::report().phases().scope("generate_requests");
    popularity::RequestGenerator generator(popularity::RequestGeneratorConfig{
        .metrics = &bench::report().metrics()});
    return generator.generate(bench::full_population());
  }();
  return stream;
}

struct FullResolution {
  popularity::DescriptorResolver resolver{popularity::ResolverConfig{
      .metrics = &bench::report().metrics()}};
  popularity::ResolutionReport report;
  FullResolution() {
    const auto timer = bench::report().phases().scope("resolve");
    resolver.build_dictionary(bench::full_population());
    report = resolver.resolve(full_stream(), bench::full_population());
  }
};

const FullResolution& full_resolution() {
  static const FullResolution fixture;
  return fixture;
}

void BM_GenerateRequests(benchmark::State& state) {
  const auto& pop = bench::full_population();
  for (auto _ : state) {
    popularity::RequestGenerator generator(
        popularity::RequestGeneratorConfig{.seed = 9});
    auto stream = generator.generate(pop);
    benchmark::DoNotOptimize(stream.requests.size());
  }
}
BENCHMARK(BM_GenerateRequests)->Unit(benchmark::kMillisecond);

// Descriptor-ID-derivation microbench: the resolver-shaped hot loop
// (services x days x replicas), one period per call.
void BM_DeriveDescriptorIds(benchmark::State& state) {
  util::Rng rng(42);
  std::vector<crypto::PermanentId> pids(512);
  for (auto& pid : pids) rng.fill_bytes(pid.data(), pid.size());
  const util::UnixTime t0 = util::make_utc(2013, 2, 4);
  for (auto _ : state) {
    std::uint32_t sink = 0;
    for (const auto& pid : pids) {
      for (int day = 0; day < 3; ++day) {
        const std::uint32_t period =
            crypto::time_period(t0 + day * util::kSecondsPerDay, pid);
        const auto ids = crypto::descriptor_ids_for_period(pid, period);
        sink ^= static_cast<std::uint32_t>(ids[0][0]) ^
                static_cast<std::uint32_t>(ids[1][19]);
      }
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_DeriveDescriptorIds);

// Serial-vs-parallel sweep over the multi-day descriptor-ID derivation
// (the Sec. V dictionary): the argument is the `threads` knob. The
// dictionary is bit-identical across arguments; BENCH_*.json records
// the wall-clock speedup.
void BM_BuildDictionary(benchmark::State& state) {
  const auto& pop = bench::full_population();
  const int threads = static_cast<int>(state.range(0));
  std::size_t dict_size = 0;
  for (auto _ : state) {
    popularity::DescriptorResolver resolver(
        popularity::ResolverConfig{.threads = threads});
    resolver.build_dictionary(pop);
    dict_size = resolver.dictionary_size();
    benchmark::DoNotOptimize(dict_size);
  }
  state.counters["dictionary_size"] = static_cast<double>(dict_size);
}
BENCHMARK(BM_BuildDictionary)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ResolveStream(benchmark::State& state) {
  const auto& fixture = full_resolution();
  for (auto _ : state) {
    auto report =
        fixture.resolver.resolve(full_stream(), bench::full_population());
    benchmark::DoNotOptimize(report.resolved_onions);
  }
}
BENCHMARK(BM_ResolveStream)->Unit(benchmark::kMillisecond);

void print_table2() {
  const auto& report = full_resolution().report;
  const auto& paper = population::paper();

  bench::print_header("Sec. V — request-stream statistics");
  bench::print_row("total requests",
                   static_cast<double>(report.total_requests),
                   static_cast<double>(paper.total_requests));
  bench::print_row("unique descriptor ids",
                   static_cast<double>(report.unique_descriptor_ids),
                   static_cast<double>(paper.unique_descriptor_ids));
  bench::print_row("resolved descriptor ids",
                   static_cast<double>(report.resolved_descriptor_ids),
                   static_cast<double>(paper.resolved_descriptor_ids));
  bench::print_row("resolved onions",
                   static_cast<double>(report.resolved_onions),
                   static_cast<double>(paper.resolved_onions));
  std::printf("  unresolved request share: measured %.2f, paper %.2f\n",
              report.unresolved_request_share(),
              paper.nonexistent_request_share);

  bench::print_header("Table II — most popular hidden services");
  std::printf("  %-4s %-8s %-18s %-20s %s\n", "rank", "reqs/2h", "onion",
              "label", "paper(rank:reqs)");
  for (std::size_t i = 0; i < report.ranking.size() && i < 30; ++i) {
    const auto& row = report.ranking[i];
    std::string paper_info = "-";
    if (row.paper_rank > 0) {
      for (const auto& t2 : population::table2_rows())
        if (t2.paper_rank == row.paper_rank)
          paper_info = std::to_string(t2.paper_rank) + ":" +
                       std::to_string(t2.requests_per_2h);
    }
    std::printf("  %-4zu %-8lld %-18s %-20s %s\n", i + 1,
                static_cast<long long>(row.requests), row.onion.c_str(),
                row.label.empty() ? "-" : row.label.c_str(),
                paper_info.c_str());
  }

  const auto shares =
      popularity::category_shares(report, bench::full_population());
  std::printf("\n  request volume by category (the paper's conclusion):\n");
  std::printf("    botnet C&C %.0f%%   adult %.0f%%   markets %.0f%%   "
              "other %.0f%%\n",
              shares.botnet * 100, shares.adult * 100, shares.market * 100,
              shares.other * 100);

  // Named services deeper in the ranking (paper ranks 34..547).
  std::printf("\n  named services beyond the head:\n");
  for (std::size_t i = 0; i < report.ranking.size(); ++i) {
    const auto& row = report.ranking[i];
    if (row.paper_rank >= 31) {
      std::printf("  rank %-5zu %-8lld %-20s (paper rank %d)\n", i + 1,
                  static_cast<long long>(row.requests), row.label.c_str(),
                  row.paper_rank);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  torsim::bench::init("tab2_popularity", &argc, argv);
  torsim::bench::run_benchmarks();
  print_table2();
  return torsim::bench::finish();
}
