// The deterministic memoization layer (docs/performance.md): the
// MemoTable primitive, the process-wide --cache knob, the descriptor-id
// derivation caches, the consensus generation stamp, and the
// responsible-HSDir ring cache. The load-bearing property throughout:
// a cache hit returns byte-for-byte what the miss path computes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "dirauth/consensus.hpp"
#include "dirauth/ring_cache.hpp"
#include "util/memo.hpp"
#include "util/rng.hpp"

namespace torsim {
namespace {

struct U32Hash {
  std::uint64_t operator()(const std::uint32_t& key) const {
    return util::memo_mix_u64(1469598103934665603ULL, key);
  }
};

TEST(MemoTableTest, StoreFindClear) {
  util::MemoTable<std::uint32_t, std::string, U32Hash> table(8);
  EXPECT_EQ(table.capacity(), 8u);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_FALSE(table.store(1, "one"));
  ASSERT_NE(table.find(1), nullptr);
  EXPECT_EQ(*table.find(1), "one");
  // Refreshing the same key is not an eviction.
  EXPECT_FALSE(table.store(1, "uno"));
  EXPECT_EQ(*table.find(1), "uno");
  table.clear();
  EXPECT_EQ(table.find(1), nullptr);
}

TEST(MemoTableTest, CapacityRoundsUpToPowerOfTwo) {
  util::MemoTable<std::uint32_t, int, U32Hash> table(100);
  EXPECT_EQ(table.capacity(), 128u);
  util::MemoTable<std::uint32_t, int, U32Hash> tiny(0);
  EXPECT_EQ(tiny.capacity(), 1u);
}

TEST(MemoTableTest, CollidingKeyEvictsSlot) {
  // Capacity 1: every key maps to the same slot, so a second distinct
  // key must report an eviction and replace the first.
  util::MemoTable<std::uint32_t, int, U32Hash> table(1);
  EXPECT_FALSE(table.store(1, 10));
  EXPECT_TRUE(table.store(2, 20));
  EXPECT_EQ(table.find(1), nullptr);
  ASSERT_NE(table.find(2), nullptr);
  EXPECT_EQ(*table.find(2), 20);
}

TEST(MemoKnobTest, GuardSetsAndRestores) {
  const bool before = util::memo_enabled();
  {
    const util::MemoEnabledGuard guard(!before);
    EXPECT_EQ(util::memo_enabled(), !before);
  }
  EXPECT_EQ(util::memo_enabled(), before);
}

TEST(MemoKnobTest, EpochBumpIsMonotone) {
  const std::uint64_t before = util::memo_epoch();
  util::bump_memo_epoch();
  EXPECT_GT(util::memo_epoch(), before);
}

// ---------------------------------------------------------------------
// Derivation caches
// ---------------------------------------------------------------------

crypto::PermanentId random_pid(util::Rng& rng) {
  crypto::PermanentId pid;
  rng.fill_bytes(pid.data(), pid.size());
  return pid;
}

TEST(DerivationCacheTest, CachedEqualsUncachedForRandomInputs) {
  util::Rng rng(501);
  for (int i = 0; i < 200; ++i) {
    const auto pid = random_pid(rng);
    const auto period =
        static_cast<std::uint32_t>(rng.uniform_int(15000, 16000));
    const auto replica = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    crypto::DescriptorId cached, uncached;
    {
      const util::MemoEnabledGuard guard(true);
      cached = crypto::descriptor_id(pid, period, replica);
      // Hit the warm path too — must match the cold result exactly.
      EXPECT_EQ(crypto::descriptor_id(pid, period, replica), cached);
    }
    {
      const util::MemoEnabledGuard guard(false);
      uncached = crypto::descriptor_id(pid, period, replica);
    }
    EXPECT_EQ(cached, uncached) << i;
  }
}

TEST(DerivationCacheTest, SecretIdPartCachedEqualsUncached) {
  for (std::uint32_t period : {0u, 15740u, 0xffffffffu}) {
    for (std::uint8_t replica : {std::uint8_t{0}, std::uint8_t{1}}) {
      crypto::Sha1Digest cached, uncached;
      {
        const util::MemoEnabledGuard guard(true);
        cached = crypto::secret_id_part(period, replica);
        EXPECT_EQ(crypto::secret_id_part(period, replica), cached);
      }
      {
        const util::MemoEnabledGuard guard(false);
        uncached = crypto::secret_id_part(period, replica);
      }
      EXPECT_EQ(cached, uncached);
    }
  }
}

TEST(DerivationCacheTest, MidstatePathMatchesPerReplicaDerivation) {
  util::Rng rng(502);
  const std::vector<std::uint8_t> cookie = {0xde, 0xad, 0xbe, 0xef};
  for (int i = 0; i < 50; ++i) {
    const auto pid = random_pid(rng);
    const auto period =
        static_cast<std::uint32_t>(rng.uniform_int(15000, 16000));
    for (const bool cache_on : {false, true}) {
      const util::MemoEnabledGuard guard(cache_on);
      // Public service: cacheable path.
      const auto ids = crypto::descriptor_ids_for_period(pid, period);
      for (std::uint8_t replica = 0; replica < crypto::kNumReplicas;
           ++replica)
        EXPECT_EQ(ids[replica], crypto::descriptor_id(pid, period, replica));
      // Authenticated service: cookie forces the direct midstate path.
      const auto auth_ids =
          crypto::descriptor_ids_for_period(pid, period, cookie);
      for (std::uint8_t replica = 0; replica < crypto::kNumReplicas;
           ++replica)
        EXPECT_EQ(auth_ids[replica],
                  crypto::descriptor_id(pid, period, replica, cookie));
    }
  }
}

TEST(DerivationCacheTest, CountsHitsAndMisses) {
  const util::MemoEnabledGuard guard(true);  // also bumps the epoch
  crypto::reset_derivation_cache_stats();
  util::Rng rng(503);
  const auto pid = random_pid(rng);
  crypto::descriptor_id(pid, 15740, 0);
  const auto cold = crypto::derivation_cache_stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, 1u);
  crypto::descriptor_id(pid, 15740, 0);
  const auto warm = crypto::derivation_cache_stats();
  EXPECT_EQ(warm.hits, 1u);
  EXPECT_EQ(warm.misses, 1u);
  // The second replica shares the secret-part period prefix: its
  // secret lookup misses once, then hits on repeat.
  const auto secret_before = crypto::secret_cache_stats();
  crypto::descriptor_id(pid, 15740, 1);
  crypto::descriptor_id(pid, 15740, 1);
  const auto secret_after = crypto::secret_cache_stats();
  EXPECT_EQ(secret_after.misses - secret_before.misses, 1u);
}

TEST(DerivationCacheTest, EpochBumpInvalidatesShards) {
  const util::MemoEnabledGuard guard(true);
  util::Rng rng(504);
  const auto pid = random_pid(rng);
  crypto::descriptor_id(pid, 15740, 0);
  crypto::reset_derivation_cache_stats();
  util::bump_memo_epoch();
  crypto::descriptor_id(pid, 15740, 0);
  const auto stats = crypto::derivation_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(DerivationCacheTest, CookieDerivationsBypassTheCache) {
  const util::MemoEnabledGuard guard(true);
  crypto::reset_derivation_cache_stats();
  util::Rng rng(505);
  const auto pid = random_pid(rng);
  const std::vector<std::uint8_t> cookie = {1, 2, 3};
  crypto::descriptor_id(pid, 15740, 0, cookie);
  crypto::descriptor_id(pid, 15740, 0, cookie);
  const auto stats = crypto::derivation_cache_stats();
  EXPECT_EQ(stats.lookups(), 0u);
}

// ---------------------------------------------------------------------
// Consensus generation stamps
// ---------------------------------------------------------------------

dirauth::Consensus make_consensus(util::Rng& rng, int n) {
  std::vector<dirauth::ConsensusEntry> entries;
  for (int i = 0; i < n; ++i) {
    dirauth::ConsensusEntry e;
    e.relay = static_cast<relay::RelayId>(i + 1);
    rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    e.flags = dirauth::with_flag(0, dirauth::Flag::kHSDir);
    entries.push_back(e);
  }
  return {1359676800, std::move(entries)};
}

TEST(ConsensusGenerationTest, DistinctConsensusesGetDistinctStamps) {
  util::Rng rng(506);
  const auto a = make_consensus(rng, 8);
  const auto b = make_consensus(rng, 8);
  EXPECT_NE(a.generation(), 0u);
  EXPECT_NE(b.generation(), 0u);
  EXPECT_NE(a.generation(), b.generation());
  EXPECT_EQ(dirauth::Consensus().generation(), 0u);
}

TEST(ConsensusGenerationTest, CopyRestampsMovePreserves) {
  util::Rng rng(507);
  auto original = make_consensus(rng, 8);
  const std::uint64_t stamp = original.generation();

  // A copy owns a different entries buffer: cached pointers into the
  // original must not be served for it, so it re-stamps.
  const dirauth::Consensus copy(original);
  EXPECT_NE(copy.generation(), stamp);
  EXPECT_NE(copy.generation(), 0u);

  // A move carries the buffer, so cached pointers stay valid: the stamp
  // moves with it and the source decays to the empty consensus.
  const dirauth::Consensus moved(std::move(original));
  EXPECT_EQ(moved.generation(), stamp);
  EXPECT_EQ(original.generation(), 0u);
  EXPECT_EQ(original.size(), 0u);
}

// ---------------------------------------------------------------------
// Responsible-set ring cache
// ---------------------------------------------------------------------

TEST(RingCacheTest, MatchesUncachedRingWalk) {
  util::Rng rng(508);
  const auto consensus = make_consensus(rng, 40);
  std::vector<crypto::DescriptorId> ids(64);
  for (auto& id : ids) rng.fill_bytes(id.data(), id.size());

  for (const bool cache_on : {false, true}) {
    const util::MemoEnabledGuard guard(cache_on);
    dirauth::ResponsibleSetCache cache;
    for (const auto& id : ids) {
      const auto expected = consensus.responsible_hsdirs(id);
      // Twice: cold then warm, both must match the direct walk.
      for (int round = 0; round < 2; ++round) {
        const auto& set = cache.responsible(consensus, id);
        ASSERT_EQ(set.count, expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k)
          EXPECT_EQ(set.dirs[k], expected[k]);
      }
    }
  }
}

TEST(RingCacheTest, NewConsensusGenerationInvalidates) {
  util::Rng rng(510);
  const auto first = make_consensus(rng, 40);
  const auto second = make_consensus(rng, 40);
  crypto::DescriptorId id;
  rng.fill_bytes(id.data(), id.size());

  const util::MemoEnabledGuard guard(true);
  dirauth::ResponsibleSetCache cache;
  cache.responsible(first, id);  // fill under `first`
  // Same id under a different consensus must answer from *that*
  // consensus, not from the stale fill.
  const auto expected = second.responsible_hsdirs(id);
  const auto& set = cache.responsible(second, id);
  ASSERT_EQ(set.count, expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    EXPECT_EQ(set.dirs[k], expected[k]);
}

TEST(RingCacheTest, DisabledCacheRecordsNoStats) {
  util::Rng rng(511);
  const auto consensus = make_consensus(rng, 16);
  crypto::DescriptorId id;
  rng.fill_bytes(id.data(), id.size());

  const util::MemoEnabledGuard guard(false);
  dirauth::ResponsibleSetCache cache;
  dirauth::ResponsibleSetCache::reset_stats();
  cache.responsible(consensus, id);
  cache.responsible(consensus, id);
  const auto stats = dirauth::ResponsibleSetCache::stats();
  EXPECT_EQ(stats.lookups(), 0u);
}

}  // namespace
}  // namespace torsim
