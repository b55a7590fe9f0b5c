// Differential suite for the eytzinger HSDir ring index
// (dirauth/ring_index.hpp): a sorted-scan oracle built from the public
// entries() / hsdir_indices() is replayed against the indexed lookups
// over randomized populations and query schedules — the vector and
// the allocation-free forms, and the property edge cases (empty ring,
// < kHsDirsPerReplica HSDirs, duplicate fingerprints, exact-hit and
// past-ring-max queries).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/digest.hpp"
#include "dirauth/consensus.hpp"
#include "dirauth/ring_index.hpp"
#include "util/rng.hpp"

namespace torsim::dirauth {
namespace {

// A consensus of `hsdirs` HSDir-flagged relays plus `others` plain
// relays (the index must skip non-HSDirs like the oracle does).
Consensus make_consensus(util::Rng& rng, int hsdirs, int others) {
  std::vector<ConsensusEntry> entries;
  for (int i = 0; i < hsdirs + others; ++i) {
    ConsensusEntry e;
    e.relay = static_cast<relay::RelayId>(i + 1);
    rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    if (i < hsdirs) e.flags = with_flag(0, Flag::kHSDir);
    entries.push_back(e);
  }
  return {0, std::move(entries)};
}

// The pre-index lookup, kept as the oracle: binary search over
// hsdir_indices() for the first HSDir whose fingerprint is strictly
// greater than the id, wrapping around the ring, then the next
// kHsDirsPerReplica - 1.
std::vector<const ConsensusEntry*> responsible_hsdirs_scan(
    const Consensus& c, const crypto::DescriptorId& descriptor_id) {
  const std::vector<std::size_t>& ring = c.hsdir_indices();
  std::vector<const ConsensusEntry*> out;
  if (ring.empty()) return out;
  std::size_t lo = 0, hi = ring.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (c.entries()[ring[mid]].fingerprint > descriptor_id)
      hi = mid;
    else
      lo = mid + 1;
  }
  const std::size_t take =
      std::min<std::size_t>(crypto::kHsDirsPerReplica, ring.size());
  for (std::size_t k = 0; k < take; ++k)
    out.push_back(&c.entries()[ring[(lo + k) % ring.size()]]);
  return out;
}

std::vector<crypto::DescriptorId> random_ids(util::Rng& rng,
                                             std::size_t count) {
  std::vector<crypto::DescriptorId> ids(count);
  for (auto& id : ids) rng.fill_bytes(id.data(), id.size());
  return ids;
}

// A query mix that hits every interesting ring position: random points,
// exact fingerprints of ring members, ids past the ring maximum and
// before the minimum (both wraparound classes), and duplicates.
std::vector<crypto::DescriptorId> adversarial_ids(util::Rng& rng,
                                                  const Consensus& c) {
  std::vector<crypto::DescriptorId> ids = random_ids(rng, 32);
  for (const std::size_t idx : c.hsdir_indices()) {
    const crypto::Fingerprint& fp = c.entries()[idx].fingerprint;
    ids.push_back(fp);  // exactly on an entry: strict ">" must skip it
    crypto::DescriptorId below = fp;
    below[19] = static_cast<std::uint8_t>(below[19] - 1);
    ids.push_back(below);
    crypto::DescriptorId above = fp;
    above[19] = static_cast<std::uint8_t>(above[19] + 1);
    ids.push_back(above);
  }
  crypto::DescriptorId all_ff;
  all_ff.fill(0xff);  // past the ring max: must wrap to rank 0
  ids.push_back(all_ff);
  crypto::DescriptorId all_00{};
  ids.push_back(all_00);
  // Duplicates: repeated queries must answer identically.
  const std::size_t base = ids.size();
  for (std::size_t i = 0; i < std::min<std::size_t>(8, base); ++i)
    ids.push_back(ids[i * 3 % base]);
  return ids;
}

TEST(RingIndexDiffTest, RandomizedPopulationsMatchScanOracle) {
  util::Rng rng(501);
  for (const int hsdirs : {1, 2, 3, 5, 64, 1300}) {
    const Consensus c = make_consensus(rng, hsdirs, hsdirs / 3);
    const auto ids = adversarial_ids(rng, c);
    for (const auto& id : ids)
      EXPECT_EQ(c.responsible_hsdirs(id), responsible_hsdirs_scan(c, id));
  }
}

TEST(RingIndexDiffTest, EmptyConsensusAndNoHsdirs) {
  util::Rng rng(502);
  const Consensus empty;
  const Consensus no_hsdirs = make_consensus(rng, 0, 10);
  const auto id = random_ids(rng, 1)[0];
  for (const Consensus* c : {&empty, &no_hsdirs}) {
    EXPECT_TRUE(c->ring_index().empty());
    EXPECT_TRUE(c->responsible_hsdirs(id).empty());
    EXPECT_TRUE(responsible_hsdirs_scan(*c, id).empty());
    const ConsensusEntry* buf[crypto::kHsDirsPerReplica];
    EXPECT_EQ(c->responsible_hsdirs_into(id, buf, crypto::kHsDirsPerReplica),
              0u);
  }
}

TEST(RingIndexDiffTest, FewerHsdirsThanReplicaSetWraps) {
  // With n < kHsDirsPerReplica the responsible set is the whole ring,
  // starting at the successor — both paths must agree on the rotation.
  util::Rng rng(503);
  for (const int hsdirs : {1, 2}) {
    const Consensus c = make_consensus(rng, hsdirs, 2);
    for (const auto& id : adversarial_ids(rng, c)) {
      const auto oracle = responsible_hsdirs_scan(c, id);
      EXPECT_EQ(oracle.size(), static_cast<std::size_t>(hsdirs));
      EXPECT_EQ(c.responsible_hsdirs(id), oracle);
    }
  }
}

TEST(RingIndexDiffTest, DuplicateFingerprintsMatchOracle) {
  // Duplicate ring keys: upper-bound semantics must land on the same
  // (first) duplicate in both implementations.
  util::Rng rng(504);
  std::vector<ConsensusEntry> entries;
  crypto::Fingerprint shared;
  rng.fill_bytes(shared.data(), shared.size());
  for (int i = 0; i < 6; ++i) {
    ConsensusEntry e;
    e.relay = static_cast<relay::RelayId>(i + 1);
    e.flags = with_flag(0, Flag::kHSDir);
    if (i < 3) {
      e.fingerprint = shared;  // three identical ring keys
    } else {
      rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    }
    entries.push_back(e);
  }
  const Consensus c(0, std::move(entries));
  for (const auto& id : adversarial_ids(rng, c))
    EXPECT_EQ(c.responsible_hsdirs(id), responsible_hsdirs_scan(c, id));
}

TEST(RingIndexDiffTest, ResponsibleSetWalkMatchesOracle) {
  // The publish and fetch walks' allocation-free form, at every
  // capacity: the oracle's set truncated to `capacity`, in ring order.
  util::Rng rng(506);
  const Consensus c = make_consensus(rng, 300, 50);
  auto ids = adversarial_ids(rng, c);
  const auto more = random_ids(rng, 500);
  ids.insert(ids.end(), more.begin(), more.end());
  for (const auto& id : ids) {
    const auto oracle = responsible_hsdirs_scan(c, id);
    for (std::size_t capacity = 0; capacity <= crypto::kHsDirsPerReplica;
         ++capacity) {
      ResponsibleSet set;
      set.count = static_cast<std::uint8_t>(
          c.responsible_hsdirs_into(id, set.dirs.data(), capacity));
      ASSERT_EQ(set.count, std::min(capacity, oracle.size()));
      for (std::size_t k = 0; k < set.count; ++k)
        EXPECT_EQ(set.dirs[k], oracle[k]);
    }
  }
}

TEST(RingIndexDiffTest, IndexSurvivesCopyAndMove) {
  util::Rng rng(508);
  Consensus original = make_consensus(rng, 50, 10);
  const auto ids = random_ids(rng, 64);
  std::vector<std::vector<const ConsensusEntry*>> oracle;
  for (const auto& id : ids)
    oracle.push_back(responsible_hsdirs_scan(original, id));
  const auto check = [&](const Consensus& c) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto got = c.responsible_hsdirs(ids[i]);
      ASSERT_EQ(got.size(), oracle[i].size());
      for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_EQ(got[k]->relay, oracle[i][k]->relay);
    }
  };
  const Consensus copy = original;
  check(copy);
  const Consensus moved = std::move(original);
  check(moved);
  EXPECT_TRUE(original.ring_index().empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(original.responsible_hsdirs(ids[0]).empty());
}

}  // namespace
}  // namespace torsim::dirauth
