// Differential suite for the hour step (sim::World::step_hour). The
// implementations it replaced are copied here verbatim as oracles and
// replayed against the production paths:
//   - the std::map-by-IP Authority::build_consensus (flat candidate
//     array + per-address run cap),
//   - the std::sort entry order (16-byte key sort with a full-
//     fingerprint tie-break),
//   - the scanning Consensus::with_flag (per-flag views built once),
//   - the scan-every-entry DescriptorStore::expire (oldest-published
//     watermark),
//   - the sort-based stats::percentile (nth_element).
// Inputs are randomized registries with many relays on one IP, tied
// bandwidths and uptimes, offline and authority-unreachable relays,
// fingerprints sharing an 8-byte prefix, and empty/single inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/keypair.hpp"
#include "dirauth/authority.hpp"
#include "dirauth/consensus.hpp"
#include "hsdir/store.hpp"
#include "relay/registry.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace torsim {
namespace {

using dirauth::ConsensusEntry;
using dirauth::Flag;

constexpr util::UnixTime kNow = 1359676800;  // 2013-02-01 00:00 UTC

// ---------------------------------------------------------------------
// Oracles: the pre-change code, verbatim apart from being free functions
// ---------------------------------------------------------------------

double oracle_percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p outside [0,100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double oracle_median(std::span<const double> values) {
  return oracle_percentile(values, 50.0);
}

// Consensus entry order before the key-array sort.
std::vector<ConsensusEntry> oracle_ring_order(
    std::vector<ConsensusEntry> entries_) {
  std::sort(entries_.begin(), entries_.end(),
            [](const ConsensusEntry& a, const ConsensusEntry& b) {
              return a.fingerprint < b.fingerprint;
            });
  return entries_;
}

std::vector<const ConsensusEntry*> oracle_with_flag(
    const dirauth::Consensus& consensus, Flag flag) {
  std::vector<const ConsensusEntry*> out;
  for (const ConsensusEntry& e : consensus.entries())
    if (has_flag(e.flags, flag)) out.push_back(&e);
  return out;
}

// Authority::build_consensus before the flat candidate array; returns
// the entries in the oracle's ring order.
std::vector<ConsensusEntry> oracle_build_consensus(
    const dirauth::Authority& authority, const relay::Registry& registry,
    util::UnixTime now) {
  const dirauth::AuthorityPolicy& policy_ = authority.policy();
  // Gather online relays grouped by IP. Ordered map: the group loop
  // below emits consensus entries in iteration order, so hash order
  // would leak straight into the consensus document.
  std::map<util::Ipv4, std::vector<const relay::Relay*>> by_ip;
  std::vector<double> bandwidths;
  for (const relay::Relay& r : registry.all()) {
    if (!r.online() || !r.authority_reachable()) continue;
    by_ip[r.config().address].push_back(&r);
    bandwidths.push_back(r.config().bandwidth_kbps);
  }
  const double median_bw =
      bandwidths.empty() ? 0.0 : oracle_median(bandwidths);

  std::vector<ConsensusEntry> entries;
  for (auto& [ip, relays] : by_ip) {
    // Active = top max_relays_per_ip by measured bandwidth (ties broken
    // by longer uptime, then lower id, for determinism).
    std::sort(relays.begin(), relays.end(),
              [now](const relay::Relay* a, const relay::Relay* b) {
                if (a->config().bandwidth_kbps != b->config().bandwidth_kbps)
                  return a->config().bandwidth_kbps > b->config().bandwidth_kbps;
                const auto ua = a->continuous_uptime(now);
                const auto ub = b->continuous_uptime(now);
                if (ua != ub) return ua > ub;
                return a->id() < b->id();
              });
    const std::size_t keep = std::min<std::size_t>(
        relays.size(), static_cast<std::size_t>(policy_.max_relays_per_ip));
    for (std::size_t i = 0; i < keep; ++i) {
      const relay::Relay& r = *relays[i];
      ConsensusEntry e;
      e.relay = r.id();
      e.fingerprint = r.fingerprint();
      e.nickname = r.config().nickname;
      e.address = r.config().address;
      e.or_port = r.config().or_port;
      e.bandwidth_kbps = r.config().bandwidth_kbps;
      e.flags = authority.compute_flags(r, median_bw, now);
      entries.push_back(std::move(e));
    }
  }
  return oracle_ring_order(std::move(entries));
}

// The pre-watermark store, reduced to what expiry decides: every held
// descriptor, and the scan-every-entry expire.
struct OracleStore {
  std::map<crypto::DescriptorId, hsdir::Descriptor> descriptors_;

  void store(const hsdir::Descriptor& d) { descriptors_[d.descriptor_id] = d; }

  void expire(util::UnixTime now) {
    for (auto it = descriptors_.begin(); it != descriptors_.end();) {
      if (now - it->second.published > hsdir::kDescriptorLifetime) {
        it = descriptors_.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool contains(const crypto::DescriptorId& id, util::UnixTime now) const {
    const auto it = descriptors_.find(id);
    return it != descriptors_.end() &&
           now - it->second.published <= hsdir::kDescriptorLifetime &&
           now >= it->second.visible_after;
  }
};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_entry(const ConsensusEntry& got, const ConsensusEntry& want,
                       std::size_t i) {
  EXPECT_EQ(got.relay, want.relay) << "entry " << i;
  EXPECT_EQ(got.fingerprint, want.fingerprint) << "entry " << i;
  EXPECT_EQ(got.nickname, want.nickname) << "entry " << i;
  EXPECT_EQ(got.address, want.address) << "entry " << i;
  EXPECT_EQ(got.or_port, want.or_port) << "entry " << i;
  EXPECT_TRUE(same_bits(got.bandwidth_kbps, want.bandwidth_kbps))
      << "entry " << i;
  EXPECT_EQ(got.flags, want.flags) << "entry " << i;
}

void expect_same_entries(const std::vector<ConsensusEntry>& got,
                         const std::vector<ConsensusEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_same_entry(got[i], want[i], i);
}

// Views equal the scanning oracle over `c`'s own entries, and every
// pointer lies inside c.entries().
void expect_views_match(const dirauth::Consensus& c) {
  EXPECT_EQ(c.fast_entries(), oracle_with_flag(c, Flag::kFast));
  EXPECT_EQ(c.guard_entries(), oracle_with_flag(c, Flag::kGuard));
  const ConsensusEntry* begin = c.entries().data();
  const ConsensusEntry* end = begin + c.entries().size();
  for (const auto* view : {&c.fast_entries(), &c.guard_entries()}) {
    EXPECT_EQ(view->capacity(), view->size());
    for (const ConsensusEntry* e : *view) {
      EXPECT_GE(e, begin);
      EXPECT_LT(e, end);
    }
  }
}

struct RegistryShape {
  int relays = 0;
  int addresses = 1;         // distinct IPs the relays spread over
  int crowded = 0;           // extra relays all on one IP
  bool tied_bandwidth = false;
  bool tied_uptime = false;
  double offline_share = 0.0;
  double unreachable_share = 0.0;
};

relay::Registry make_registry(util::Rng& rng, const RegistryShape& shape) {
  relay::Registry registry;
  static constexpr double kTiedBandwidths[] = {10.0, 20.0, 150.0, 400.0};
  static constexpr util::Seconds kTiedUptimes[] = {
      0, 3600, 25 * 3600, 9 * 86400, 60 * 86400};
  const util::Ipv4 crowded_ip(0x0a000001u);
  const int total = shape.relays + shape.crowded;
  for (int i = 0; i < total; ++i) {
    relay::RelayConfig rc;
    rc.nickname = "r" + std::to_string(i);
    const auto spread = static_cast<std::uint32_t>(
        rng.index(static_cast<std::size_t>(shape.addresses)));
    rc.address =
        i >= shape.relays ? crowded_ip : util::Ipv4(0x0b000000u + spread);
    rc.or_port = static_cast<std::uint16_t>(9001 + rng.index(3));
    rc.bandwidth_kbps = shape.tied_bandwidth
                            ? kTiedBandwidths[rng.index(4)]
                            : 5.0 + rng.exponential(1.0 / 300.0);
    const relay::RelayId id = registry.create(rc, rng, kNow - 300 * 86400);
    relay::Relay& r = registry.get(id);
    const util::Seconds uptime =
        shape.tied_uptime ? kTiedUptimes[rng.index(5)]
                          : rng.uniform_int(0, 100 * 86400);
    // A past offline stretch makes fractional uptime (Guard) vary.
    if (rng.bernoulli(0.3)) {
      r.set_online(true, kNow - 250 * 86400);
      r.set_online(false,
                   kNow - 250 * 86400 + rng.uniform_int(0, 200) * 86400);
    }
    r.set_online(true, std::min(kNow - uptime, kNow));
    if (rng.uniform01() < shape.offline_share) r.set_online(false, kNow);
    if (rng.uniform01() < shape.unreachable_share)
      r.set_authority_reachable(false);
  }
  return registry;
}

// ---------------------------------------------------------------------
// Consensus build
// ---------------------------------------------------------------------

void expect_build_matches(const relay::Registry& registry,
                          const dirauth::AuthorityPolicy& policy) {
  const dirauth::Authority authority(policy);
  const dirauth::Consensus built = authority.build_consensus(registry, kNow);
  expect_same_entries(built.entries(),
                      oracle_build_consensus(authority, registry, kNow));
  EXPECT_EQ(built.valid_after(), kNow);
  expect_views_match(built);
}

TEST(HourStepDiffTest, BuildConsensusMatchesMapOracle) {
  util::Rng rng(1701);
  const RegistryShape shapes[] = {
      {.relays = 300, .addresses = 300},
      {.relays = 300, .addresses = 40, .crowded = 25},
      {.relays = 200, .addresses = 20, .tied_bandwidth = true,
       .tied_uptime = true},
      {.relays = 250, .addresses = 60, .crowded = 12, .tied_bandwidth = true,
       .offline_share = 0.3, .unreachable_share = 0.2},
      {.relays = 0, .crowded = 40, .tied_bandwidth = true, .tied_uptime = true},
      {.relays = 100, .addresses = 5, .offline_share = 1.0},
  };
  for (const RegistryShape& shape : shapes) {
    const relay::Registry registry = make_registry(rng, shape);
    for (const int cap : {0, 1, 2, 3, 7}) {
      dirauth::AuthorityPolicy policy;
      policy.max_relays_per_ip = cap;
      SCOPED_TRACE(testing::Message() << "relays " << shape.relays
                                      << " crowded " << shape.crowded
                                      << " cap " << cap);
      expect_build_matches(registry, policy);
    }
  }
}

TEST(HourStepDiffTest, BuildConsensusEmptyAndSingleRelay) {
  util::Rng rng(1702);
  expect_build_matches(relay::Registry{}, {});
  for (const double offline : {0.0, 1.0}) {
    for (const double unreachable : {0.0, 1.0}) {
      const relay::Registry one = make_registry(
          rng, {.relays = 1, .offline_share = offline,
                .unreachable_share = unreachable});
      expect_build_matches(one, {});
    }
  }
}

TEST(HourStepDiffTest, BuildConsensusCapsEveryAddressRun) {
  // The crowded IP holds 30 relays; exactly `cap` of them (the
  // oracle's top by bandwidth, uptime, id) are listed.
  util::Rng rng(1703);
  const relay::Registry registry = make_registry(
      rng, {.relays = 0, .crowded = 30, .tied_bandwidth = true,
            .tied_uptime = true});
  for (const int cap : {1, 2, 5}) {
    dirauth::AuthorityPolicy policy;
    policy.max_relays_per_ip = cap;
    const auto built =
        dirauth::Authority(policy).build_consensus(registry, kNow);
    EXPECT_EQ(built.size(), static_cast<std::size_t>(cap));
    expect_build_matches(registry, policy);
  }
}

// ---------------------------------------------------------------------
// Entry order and flag views
// ---------------------------------------------------------------------

std::vector<ConsensusEntry> crafted_entries(util::Rng& rng, int n,
                                            int prefix_groups) {
  // Fingerprints drawn from `prefix_groups` shared 8-byte prefixes with
  // random tails, so most comparisons fall through to the full-key
  // tie-break; random flags so every view is exercised.
  std::vector<crypto::Fingerprint> prefixes(
      static_cast<std::size_t>(prefix_groups));
  for (auto& p : prefixes) rng.fill_bytes(p.data(), p.size());
  std::vector<ConsensusEntry> entries;
  for (int i = 0; i < n; ++i) {
    ConsensusEntry e;
    e.relay = static_cast<relay::RelayId>(i);
    e.nickname = "n" + std::to_string(i);
    rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    const auto& p = prefixes[rng.index(prefixes.size())];
    std::copy(p.begin(), p.begin() + 8, e.fingerprint.begin());
    e.flags = static_cast<dirauth::FlagSet>(rng.index(128));
    entries.push_back(std::move(e));
  }
  return entries;
}

TEST(HourStepDiffTest, EntryOrderMatchesSortOracleOnSharedPrefixes) {
  util::Rng rng(1704);
  for (const int n : {0, 1, 2, 17, 200, 1500}) {
    for (const int groups : {1, 3, 50}) {
      const auto entries = crafted_entries(rng, n, groups);
      const dirauth::Consensus c(kNow, entries);
      expect_same_entries(c.entries(), oracle_ring_order(entries));
      expect_views_match(c);
    }
  }
}

TEST(HourStepDiffTest, EqualFingerprintsKeepInputOrder) {
  // Full-key duplicates: the oracle's std::sort leaves their relative
  // order unspecified; the key sort keeps input order. The fingerprint
  // sequence must equal the oracle's either way.
  util::Rng rng(1705);
  auto entries = crafted_entries(rng, 120, 4);
  for (std::size_t i = 1; i < entries.size(); i += 3)
    entries[i].fingerprint = entries[i - 1].fingerprint;
  const dirauth::Consensus c(kNow, entries);
  const auto oracle = oracle_ring_order(entries);
  ASSERT_EQ(c.size(), oracle.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.entries()[i].fingerprint, oracle[i].fingerprint);
    if (i > 0 &&
        c.entries()[i].fingerprint == c.entries()[i - 1].fingerprint) {
      EXPECT_LT(c.entries()[i - 1].relay, c.entries()[i].relay);
    }
  }
}

TEST(HourStepDiffTest, ViewsFollowTheirOwnEntriesThroughCopiesAndMoves) {
  util::Rng rng(1706);
  dirauth::Consensus original(kNow, crafted_entries(rng, 300, 40));
  expect_views_match(original);

  const dirauth::Consensus copied(original);
  expect_views_match(copied);
  EXPECT_NE(copied.entries().data(), original.entries().data());

  dirauth::Consensus assigned(kNow, crafted_entries(rng, 10, 2));
  assigned = original;
  expect_views_match(assigned);
  EXPECT_EQ(assigned.fast_entries().size(), original.fast_entries().size());

  const ConsensusEntry* buffer = original.entries().data();
  dirauth::Consensus moved(std::move(original));
  EXPECT_EQ(moved.entries().data(), buffer);
  expect_views_match(moved);
  expect_views_match(original);  // the empty moved-from consensus
  EXPECT_TRUE(original.fast_entries().empty());

  dirauth::Consensus move_assigned(kNow, crafted_entries(rng, 10, 2));
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.entries().data(), buffer);
  expect_views_match(move_assigned);
  expect_views_match(moved);

  const dirauth::Consensus empty;
  expect_views_match(empty);
}

// ---------------------------------------------------------------------
// Store expiry
// ---------------------------------------------------------------------

hsdir::Descriptor random_descriptor(util::Rng& rng,
                                    const crypto::DescriptorId& id,
                                    util::UnixTime published,
                                    util::UnixTime visible_after) {
  hsdir::Descriptor d;
  d.descriptor_id = id;
  rng.fill_bytes(d.permanent_id.data(), d.permanent_id.size());
  d.service_public_key.resize(rng.index(40) + 1);
  rng.fill_bytes(d.service_public_key.data(), d.service_public_key.size());
  d.introduction_points.resize(rng.index(4));
  for (auto& fp : d.introduction_points) rng.fill_bytes(fp.data(), fp.size());
  d.replica = static_cast<std::uint8_t>(rng.index(2));
  d.time_period = static_cast<std::uint32_t>(rng.index(20000));
  d.published = published;
  d.visible_after = visible_after;
  return d;
}

void expect_same_store(const hsdir::DescriptorStore& store,
                       const OracleStore& oracle,
                       const std::vector<crypto::DescriptorId>& ids,
                       util::UnixTime now) {
  ASSERT_EQ(store.size(), oracle.descriptors_.size());
  const auto held = store.all_descriptors();
  std::size_t live = 0;
  auto it = oracle.descriptors_.begin();
  for (const hsdir::Descriptor& d : held) {
    const hsdir::Descriptor& want = (it++)->second;
    EXPECT_EQ(d.descriptor_id, want.descriptor_id);
    EXPECT_EQ(d.published, want.published);
    EXPECT_EQ(d.visible_after, want.visible_after);
    EXPECT_EQ(d.service_public_key, want.service_public_key);
    EXPECT_EQ(d.introduction_points, want.introduction_points);
    live += want.service_public_key.size() +
            want.introduction_points.size() * sizeof(crypto::Fingerprint);
  }
  EXPECT_EQ(store.live_payload_bytes(), live);
  for (const auto& id : ids)
    EXPECT_EQ(store.contains(id, now), oracle.contains(id, now));
}

TEST(HourStepDiffTest, WatermarkedExpiryMatchesFullScan) {
  util::Rng rng(1707);
  for (int trial = 0; trial < 40; ++trial) {
    hsdir::DescriptorStore store;
    OracleStore oracle;
    std::vector<crypto::DescriptorId> ids(
        static_cast<std::size_t>(rng.uniform_int(1, 30)));
    for (auto& id : ids) rng.fill_bytes(id.data(), id.size());
    util::UnixTime now = kNow;
    std::uint64_t epoch = 0;
    for (int step = 0; step < 300; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.45) {
        // Store or refresh; published anywhere from 30 h ago (already
        // expired on arrival) to now, visible now or after a delay.
        const auto& id = ids[rng.index(ids.size())];
        const util::UnixTime published = now - rng.uniform_int(0, 30) * 3600;
        const util::UnixTime visible =
            rng.bernoulli(0.3) ? published + rng.uniform_int(1, 6) * 3600
                               : published;
        const auto d = random_descriptor(rng, id, published, visible);
        store.store(d);
        oracle.store(d);
      } else if (roll < 0.8) {
        store.expire(now);
        oracle.expire(now);
        if (store.size() == 0) {
          EXPECT_EQ(store.arena_bytes(), 0u);
        }
      } else if (roll < 0.9) {
        store.observe_epoch(++epoch);
      } else {
        now += rng.uniform_int(0, 12) * 3600;
      }
      expect_same_store(store, oracle, ids, now);
      if (testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------
// Percentile
// ---------------------------------------------------------------------

TEST(HourStepDiffTest, PercentileIsBitIdenticalToSortOracle) {
  util::Rng rng(1708);
  const double fixed_ps[] = {0.0, 1.0, 12.5, 25.0, 33.3, 50.0, 75.0, 99.9,
                             100.0};
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<double> values(static_cast<std::size_t>(
        rng.uniform_int(1, trial % 10 == 0 ? 2000 : 40)));
    const bool tied = rng.bernoulli(0.5);
    for (double& v : values)
      v = tied ? static_cast<double>(rng.index(5)) * 12.5
               : rng.uniform(-1000.0, 1000.0);
    for (const double p : fixed_ps) {
      const double got = stats::percentile(values, p);
      const double want = oracle_percentile(values, p);
      EXPECT_TRUE(same_bits(got, want)) << p << ": " << got << " vs " << want;
    }
    const double p = rng.uniform(0.0, 100.0);
    EXPECT_TRUE(same_bits(stats::percentile(values, p),
                          oracle_percentile(values, p)));
    EXPECT_TRUE(same_bits(stats::median(values), oracle_median(values)));
  }
  EXPECT_THROW(stats::percentile(std::vector<double>{}, 50.0),
               std::invalid_argument);
  EXPECT_THROW(stats::percentile(std::vector<double>{1.0}, 101.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace torsim
