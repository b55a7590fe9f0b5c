// Differential suite for the flat sorted resolver dictionary
// (popularity/resolver.hpp): the pre-flat std::map build and tally,
// kept below as MapResolverOracle, are replayed against
// DescriptorResolver over randomized onion lists at threads 1/4/8 —
// empty and single-onion lists, duplicated onions, case variants of
// the same onion (distinct intern strings deriving identical ids, the
// only way to exercise last-writer-wins without a SHA-1 collision),
// and lists large enough to fill every leading-byte bucket — and over
// request streams mixed with phantom ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace torsim::popularity {
namespace {

// ---------------------------------------------------------------------
// The reference: the std::map resolver exactly as it was before the
// flat dictionary replaced it (build, tally and report assembly).
// ---------------------------------------------------------------------

class MapResolverOracle {
 public:
  explicit MapResolverOracle(ResolverConfig config = {}) : config_(config) {
    if (config_.derive_from == 0)
      config_.derive_from = util::make_utc(2013, 1, 28);
    if (config_.derive_to == 0)
      config_.derive_to = util::make_utc(2013, 2, 9);
  }

  void build_dictionary_from_onions(const std::vector<std::string>& onions) {
    dictionary_.clear();
    // The SHA-1 derivations per onion are independent: fan them out, then
    // insert in onion order so duplicate-id collisions resolve exactly as
    // the serial loop would (last writer in input order wins).
    const auto derive_one = [&](std::size_t index) {
      const auto pid = crypto::parse_onion_address(onions[index]);
      // One derivation per day in the window; the time-period function
      // shifts per-service, so step by days and dedupe via the map. All
      // of the service's periods go through the lane-batched derivation
      // in a single call (period-major, replica-minor — the same order
      // the per-period loop produced).
      std::vector<std::uint32_t> periods;
      for (util::UnixTime t = config_.derive_from; t < config_.derive_to;
           t += util::kSecondsPerDay)
        periods.push_back(crypto::time_period(t, pid));
      return crypto::descriptor_ids_for_periods(pid, periods);
    };
    const std::vector<std::vector<crypto::DescriptorId>> derived =
        util::parallel_map(onions.size(), config_.threads, derive_one);
    // Interning happens here, in the serial fold — never in the parallel
    // derivation above (the interner's contract, docs/data-layout.md).
    for (std::size_t i = 0; i < derived.size(); ++i) {
      const util::StringInterner::Id onion_id =
          util::global_interner().intern(onions[i]);
      for (const crypto::DescriptorId& id : derived[i])
        dictionary_[id] = onion_id;
    }
  }

  ResolutionReport resolve(const RequestStream& stream,
                           const population::Population* pop) const {
    ResolutionReport report;
    report.total_requests = static_cast<std::int64_t>(stream.requests.size());

    std::map<crypto::DescriptorId, std::int64_t> id_counts;
    std::map<util::StringInterner::Id, std::int64_t> onion_counts;
    tally_requests(stream, id_counts, onion_counts, report);
    report.resolved_onions = static_cast<std::int64_t>(onion_counts.size());

    // Iteration is in intern-id order, not lexicographic — harmless: the
    // sort below totally orders rows by (requests, onion).
    report.ranking.reserve(onion_counts.size());
    for (const auto& [onion_id, count] : onion_counts) {
      const std::string_view onion = util::global_interner().view(onion_id);
      RankedService row;
      row.onion = std::string(onion);
      row.requests = count;
      if (pop != nullptr) {
        if (const auto svc = pop->find(onion)) {
          row.label = std::string(svc->label());
          row.paper_alias = std::string(svc->paper_alias());
          row.paper_rank = svc->paper_rank();
        }
      }
      report.ranking.push_back(std::move(row));
    }
    std::sort(report.ranking.begin(), report.ranking.end(),
              [](const RankedService& a, const RankedService& b) {
                if (a.requests != b.requests) return a.requests > b.requests;
                return a.onion < b.onion;
              });
    return report;
  }

  std::size_t dictionary_size() const { return dictionary_.size(); }

  std::optional<std::string> resolve_id(
      const crypto::DescriptorId& id) const {
    const auto it = dictionary_.find(id);
    if (it == dictionary_.end()) return std::nullopt;
    return std::string(util::global_interner().view(it->second));
  }

  const std::map<crypto::DescriptorId, util::StringInterner::Id>&
  dictionary() const {
    return dictionary_;
  }

 private:
  void tally_requests(
      const RequestStream& stream,
      std::map<crypto::DescriptorId, std::int64_t>& id_counts,
      std::map<util::StringInterner::Id, std::int64_t>& onion_counts,
      ResolutionReport& report) const {
    for (const DescriptorRequest& req : stream.requests)
      ++id_counts[req.descriptor_id];
    report.unique_descriptor_ids =
        static_cast<std::int64_t>(id_counts.size());
    for (const auto& [id, count] : id_counts) {
      const auto it = dictionary_.find(id);
      if (it == dictionary_.end()) continue;
      ++report.resolved_descriptor_ids;
      report.resolved_requests += count;
      onion_counts[it->second] += count;
    }
  }

  ResolverConfig config_;
  std::map<crypto::DescriptorId, util::StringInterner::Id> dictionary_;
};

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

constexpr std::array<int, 3> kThreads = {1, 4, 8};

std::string random_onion(util::Rng& rng) {
  crypto::PermanentId pid{};
  rng.fill_bytes(pid.data(), pid.size());
  return crypto::onion_address(pid);
}

std::string upper(std::string s) {
  for (char& c : s)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

/// `distinct` random onions, then the adversarial tail: exact
/// duplicates, upper-case spellings and ".onion"-suffixed spellings of
/// earlier entries (same permanent id, hence the same descriptor ids,
/// under a different intern string).
std::vector<std::string> onion_list(util::Rng& rng, std::size_t distinct) {
  std::vector<std::string> onions;
  for (std::size_t i = 0; i < distinct; ++i)
    onions.push_back(random_onion(rng));
  const std::size_t variants = distinct / 4;
  for (std::size_t i = 0; i < variants; ++i) {
    const std::string base = onions[rng.index(distinct)];
    switch (rng.uniform_int(0, 2)) {
      case 0: onions.push_back(base); break;
      case 1: onions.push_back(upper(base)); break;
      default: onions.push_back(base + ".onion"); break;
    }
  }
  rng.shuffle(onions);
  return onions;
}

/// Requests over the oracle's derived ids (skewed: a few ids draw many
/// requests) mixed with phantom ids, some of them repeated.
RequestStream mixed_stream(util::Rng& rng, const MapResolverOracle& oracle,
                           std::size_t requests) {
  std::vector<crypto::DescriptorId> known;
  for (const auto& [id, onion] : oracle.dictionary()) known.push_back(id);
  std::vector<crypto::DescriptorId> phantoms(std::max<std::size_t>(
      1, requests / 8));
  for (auto& id : phantoms) rng.fill_bytes(id.data(), id.size());

  RequestStream stream;
  for (std::size_t i = 0; i < requests; ++i) {
    DescriptorRequest req;
    req.time = static_cast<util::UnixTime>(i);
    if (!known.empty() && rng.uniform01() < 0.5) {
      // Squaring the uniform skews the pick towards the low indexes.
      const double u = rng.uniform01();
      req.descriptor_id =
          known[static_cast<std::size_t>(u * u *
                                         static_cast<double>(known.size()))];
    } else {
      req.descriptor_id = phantoms[rng.index(phantoms.size())];
    }
    stream.requests.push_back(req);
  }
  return stream;
}

// ---------------------------------------------------------------------
// Assertions
// ---------------------------------------------------------------------

void expect_same_report(const ResolutionReport& want,
                        const ResolutionReport& got) {
  EXPECT_EQ(want.total_requests, got.total_requests);
  EXPECT_EQ(want.unique_descriptor_ids, got.unique_descriptor_ids);
  EXPECT_EQ(want.resolved_descriptor_ids, got.resolved_descriptor_ids);
  EXPECT_EQ(want.resolved_onions, got.resolved_onions);
  EXPECT_EQ(want.resolved_requests, got.resolved_requests);
  ASSERT_EQ(want.ranking.size(), got.ranking.size());
  for (std::size_t i = 0; i < want.ranking.size(); ++i) {
    SCOPED_TRACE("ranking row " + std::to_string(i));
    EXPECT_EQ(want.ranking[i].onion, got.ranking[i].onion);
    EXPECT_EQ(want.ranking[i].label, got.ranking[i].label);
    EXPECT_EQ(want.ranking[i].paper_alias, got.ranking[i].paper_alias);
    EXPECT_EQ(want.ranking[i].requests, got.ranking[i].requests);
    EXPECT_EQ(want.ranking[i].paper_rank, got.ranking[i].paper_rank);
  }
}

/// Builds both resolvers from `onions` at every thread count and
/// compares the dictionaries id by id, plus `unknown` ids that neither
/// may resolve.
void expect_same_dictionary(const std::vector<std::string>& onions,
                            const MapResolverOracle& oracle,
                            util::Rng& rng) {
  std::vector<crypto::DescriptorId> unknown(64);
  for (auto& id : unknown) rng.fill_bytes(id.data(), id.size());
  for (const int threads : kThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    DescriptorResolver flat(ResolverConfig{.threads = threads});
    flat.build_dictionary_from_onions(onions);
    ASSERT_EQ(oracle.dictionary_size(), flat.dictionary_size());
    for (const auto& [id, onion] : oracle.dictionary())
      ASSERT_EQ(oracle.resolve_id(id), flat.resolve_id(id));
    for (const auto& id : unknown) {
      EXPECT_EQ(oracle.resolve_id(id), std::nullopt);
      EXPECT_EQ(flat.resolve_id(id), std::nullopt);
    }
  }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

TEST(ResolverDiffTest, EmptyOnionList) {
  MapResolverOracle oracle;
  oracle.build_dictionary_from_onions({});
  util::Rng rng(1);
  expect_same_dictionary({}, oracle, rng);
  const RequestStream stream = mixed_stream(rng, oracle, 100);
  for (const int threads : kThreads) {
    DescriptorResolver flat(ResolverConfig{.threads = threads});
    flat.build_dictionary_from_onions({});
    const ResolutionReport got = flat.resolve(stream);
    EXPECT_EQ(got.unique_descriptor_ids,
              oracle.resolve(stream, nullptr).unique_descriptor_ids);
    EXPECT_EQ(got.resolved_requests, 0);
    EXPECT_TRUE(got.ranking.empty());
  }
}

TEST(ResolverDiffTest, SingleOnion) {
  util::Rng rng(2);
  const std::vector<std::string> onions = {random_onion(rng)};
  MapResolverOracle oracle;
  oracle.build_dictionary_from_onions(onions);
  EXPECT_EQ(oracle.dictionary_size(), 24u);  // 12 days x 2 replicas
  expect_same_dictionary(onions, oracle, rng);
  const RequestStream stream = mixed_stream(rng, oracle, 500);
  for (const int threads : kThreads) {
    DescriptorResolver flat(ResolverConfig{.threads = threads});
    flat.build_dictionary_from_onions(onions);
    expect_same_report(oracle.resolve(stream, nullptr), flat.resolve(stream));
  }
}

TEST(ResolverDiffTest, EmptyStream) {
  util::Rng rng(3);
  const std::vector<std::string> onions = onion_list(rng, 20);
  MapResolverOracle oracle;
  oracle.build_dictionary_from_onions(onions);
  for (const int threads : kThreads) {
    DescriptorResolver flat(ResolverConfig{.threads = threads});
    flat.build_dictionary_from_onions(onions);
    expect_same_report(oracle.resolve(RequestStream{}, nullptr),
                       flat.resolve(RequestStream{}));
  }
}

TEST(ResolverDiffTest, RandomizedListsWithDuplicatesAndCaseVariants) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const std::size_t distinct =
        static_cast<std::size_t>(rng.uniform_int(2, 120));
    const std::vector<std::string> onions = onion_list(rng, distinct);
    MapResolverOracle oracle;
    oracle.build_dictionary_from_onions(onions);
    expect_same_dictionary(onions, oracle, rng);
    const RequestStream stream = mixed_stream(rng, oracle, 3000);
    for (const int threads : kThreads) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      DescriptorResolver flat(ResolverConfig{.threads = threads});
      flat.build_dictionary_from_onions(onions);
      expect_same_report(oracle.resolve(stream, nullptr),
                         flat.resolve(stream));
    }
  }
}

TEST(ResolverDiffTest, EveryLeadingByteBucketHoldsSeveralEntries) {
  util::Rng rng(21);
  const std::vector<std::string> onions = onion_list(rng, 400);
  MapResolverOracle oracle;
  oracle.build_dictionary_from_onions(onions);
  // ~9,600 derived ids over 256 buckets: make sure the input really
  // spreads over all of them before trusting the comparison.
  std::array<int, 256> per_bucket{};
  for (const auto& [id, onion] : oracle.dictionary()) ++per_bucket[id[0]];
  EXPECT_GE(*std::min_element(per_bucket.begin(), per_bucket.end()), 4);
  expect_same_dictionary(onions, oracle, rng);
  const RequestStream stream = mixed_stream(rng, oracle, 20000);
  for (const int threads : kThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    DescriptorResolver flat(ResolverConfig{.threads = threads});
    flat.build_dictionary_from_onions(onions);
    expect_same_report(oracle.resolve(stream, nullptr), flat.resolve(stream));
  }
}

TEST(ResolverDiffTest, GeneratedStreamOverPopulation) {
  population::PopulationConfig config;
  config.seed = 99;
  config.scale = 0.02;
  const population::Population pop = population::Population::generate(config);
  std::vector<std::string> onions;
  for (const population::Population::ServiceRef svc : pop.services())
    onions.emplace_back(svc.onion());
  MapResolverOracle oracle;
  oracle.build_dictionary_from_onions(onions);
  RequestGenerator generator(RequestGeneratorConfig{.seed = 5});
  const RequestStream stream = generator.generate(pop);
  ASSERT_GT(stream.phantom_requests, 0);
  const ResolutionReport want = oracle.resolve(stream, &pop);
  for (const int threads : kThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    DescriptorResolver flat(ResolverConfig{.threads = threads});
    flat.build_dictionary(pop);
    EXPECT_EQ(oracle.dictionary_size(), flat.dictionary_size());
    expect_same_report(want, flat.resolve(stream, pop));
  }
}

TEST(ResolverDiffTest, RebuildReplacesTheDictionary) {
  util::Rng rng(31);
  const std::vector<std::string> first = onion_list(rng, 30);
  const std::vector<std::string> second = onion_list(rng, 10);
  MapResolverOracle oracle;
  oracle.build_dictionary_from_onions(first);
  oracle.build_dictionary_from_onions(second);
  DescriptorResolver flat(ResolverConfig{.threads = 4});
  flat.build_dictionary_from_onions(first);
  flat.build_dictionary_from_onions(second);
  ASSERT_EQ(oracle.dictionary_size(), flat.dictionary_size());
  for (const auto& [id, onion] : oracle.dictionary())
    ASSERT_EQ(oracle.resolve_id(id), flat.resolve_id(id));
}

}  // namespace
}  // namespace torsim::popularity
