// Differential suite for the lane-batched key-grinding kernel
// (crypto/grind.hpp): the scalar loops it replaced — the two in
// attack/grinding.cpp and the "sil" phishing loop in
// Population::generate, kept below verbatim — are replayed against the
// kernel from identical Rng states. Every case asserts the same key
// bytes, the same attempt count, the same nullopt-ness and the same next
// four Rng draws afterwards, so a replay that is off by one draw fails
// even when the winner happens to agree. Cases straddle the batch edges
// (k-th draw winners and max_attempts at 1, B - 1, B, B + 1 for
// B = crypto::kGrindBatch) and the prefixes the base32-free matcher
// must get right (empty, upper case, non-base32, longer than an onion).
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "attack/grinding.hpp"
#include "crypto/digest.hpp"
#include "crypto/grind.hpp"
#include "crypto/keypair.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace torsim {
namespace {

constexpr std::uint64_t B = crypto::kGrindBatch;

// ---------------------------------------------------------------------
// The references: the scalar grinding loops exactly as they were before
// crypto::grind_keys replaced them.
// ---------------------------------------------------------------------

namespace oracle {

using attack::GrindResult;

// attack/grinding.cpp
std::optional<GrindResult> grind_key_after(const crypto::Sha1Digest& target,
                                           double max_ring_fraction,
                                           util::Rng& rng,
                                           std::uint64_t max_attempts) {
  const double ring_size = std::ldexp(1.0, 160);
  const double max_distance = max_ring_fraction * ring_size;
  const crypto::U160 target_value(target);
  for (std::uint64_t attempt = 1; attempt <= max_attempts; ++attempt) {
    crypto::KeyPair key = crypto::KeyPair::generate(rng);
    const crypto::U160 fp(key.fingerprint());
    if (fp == target_value) continue;  // need strictly after
    const double distance =
        fp.ring_distance_from(target_value).to_double();
    if (distance <= max_distance)
      return GrindResult{std::move(key), attempt, distance};
  }
  return std::nullopt;
}

// attack/grinding.cpp
std::optional<GrindResult> grind_onion_prefix(std::string_view prefix,
                                              util::Rng& rng,
                                              std::uint64_t max_attempts) {
  for (std::uint64_t attempt = 1; attempt <= max_attempts; ++attempt) {
    crypto::KeyPair key = crypto::KeyPair::generate(rng);
    const auto onion = crypto::onion_address(
        crypto::permanent_id_from_fingerprint(key.fingerprint()));
    if (util::starts_with(onion, prefix))
      return GrindResult{std::move(key), attempt, 0.0};
  }
  return std::nullopt;
}

// population/population.cpp, the phishing section's inner loop.
crypto::KeyPair population_sil_key(util::Rng& rng) {
  crypto::KeyPair key = crypto::KeyPair::generate(rng);
  while (true) {
    const auto onion = crypto::onion_address(
        crypto::permanent_id_from_fingerprint(key.fingerprint()));
    if (util::starts_with(onion, "sil")) break;
    key = crypto::KeyPair::generate(rng);
  }
  return key;
}

// The grind_onion_prefix loop above with the onion test swapped for an
// arbitrary fingerprint predicate.
std::optional<GrindResult> grind_keys(
    util::Rng& rng, std::uint64_t max_attempts,
    const crypto::FingerprintPredicate& accept) {
  for (std::uint64_t attempt = 1; attempt <= max_attempts; ++attempt) {
    crypto::KeyPair key = crypto::KeyPair::generate(rng);
    if (accept(key.fingerprint()))
      return GrindResult{std::move(key), attempt, 0.0};
  }
  return std::nullopt;
}

}  // namespace oracle

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// What a grind leaves behind: the winner (if any) and the Rng's future.
struct Outcome {
  std::optional<std::vector<std::uint8_t>> key;
  std::uint64_t attempts = 0;
  double distance = 0.0;
  std::array<std::uint64_t, 4> next{};
};

template <typename Hit>
Outcome outcome_of(const std::optional<Hit>& hit, util::Rng& rng) {
  Outcome out;
  if (hit) {
    out.key = hit->key.public_bytes();
    out.attempts = hit->attempts;
    if constexpr (requires { hit->distance; }) out.distance = hit->distance;
  }
  for (auto& draw : out.next) draw = rng.next();
  return out;
}

void expect_same(const Outcome& want, const Outcome& got,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(want.key.has_value(), got.key.has_value());
  if (want.key) {
    EXPECT_EQ(*want.key, *got.key);
    EXPECT_EQ(want.attempts, got.attempts);
    EXPECT_EQ(want.distance, got.distance);
  }
  EXPECT_EQ(want.next, got.next);
}

/// Fingerprint of the k-th key (1-based) the scalar path draws from `rng`.
crypto::Fingerprint kth_fingerprint(util::Rng rng, std::uint64_t k) {
  crypto::Fingerprint fp{};
  for (std::uint64_t i = 0; i < k; ++i)
    fp = crypto::KeyPair::generate(rng).fingerprint();
  return fp;
}

// ---------------------------------------------------------------------
// grind_keys
// ---------------------------------------------------------------------

TEST(GrindDiffTest, PredicateOnKthDrawAtBatchEdges) {
  for (const std::uint64_t seed : {3u, 17u}) {
    for (const std::uint64_t k : {std::uint64_t{1}, B - 1, B, B + 1, 3 * B}) {
      const util::Rng start(seed);
      const crypto::Fingerprint target = kth_fingerprint(start, k);
      const auto only_kth = [&](const crypto::Fingerprint& fp) {
        return fp == target;
      };
      util::Rng a = start;
      util::Rng b = start;
      const auto want =
          outcome_of(oracle::grind_keys(a, 4 * B, only_kth), a);
      const auto got = outcome_of(crypto::grind_keys(b, 4 * B, only_kth), b);
      ASSERT_TRUE(want.key.has_value());
      EXPECT_EQ(want.attempts, k);
      expect_same(want, got,
                  "seed " + std::to_string(seed) + " k " + std::to_string(k));
    }
  }
}

TEST(GrindDiffTest, ExhaustionConsumesTheSameDraws) {
  const auto never = [](const crypto::Fingerprint&) { return false; };
  for (const std::uint64_t max_attempts :
       {std::uint64_t{0}, std::uint64_t{1}, B - 1, B, B + 1}) {
    util::Rng a(29);
    util::Rng b(29);
    const auto want =
        outcome_of(oracle::grind_keys(a, max_attempts, never), a);
    const auto got =
        outcome_of(crypto::grind_keys(b, max_attempts, never), b);
    EXPECT_FALSE(got.key.has_value());
    expect_same(want, got, "max_attempts " + std::to_string(max_attempts));
  }
}

TEST(GrindDiffTest, WinnerOnTheLastAllowedAttempt) {
  // max_attempts cuts the final batch exactly at the winner.
  for (const std::uint64_t k : {B - 1, B, B + 1}) {
    const util::Rng start(31);
    const crypto::Fingerprint target = kth_fingerprint(start, k);
    const auto only_kth = [&](const crypto::Fingerprint& fp) {
      return fp == target;
    };
    for (const std::uint64_t max_attempts : {k - 1, k}) {
      util::Rng a = start;
      util::Rng b = start;
      const auto want =
          outcome_of(oracle::grind_keys(a, max_attempts, only_kth), a);
      const auto got =
          outcome_of(crypto::grind_keys(b, max_attempts, only_kth), b);
      EXPECT_EQ(want.key.has_value(), max_attempts == k);
      expect_same(want, got,
                  "k " + std::to_string(k) + " max " +
                      std::to_string(max_attempts));
    }
  }
}

// ---------------------------------------------------------------------
// Onion prefixes
// ---------------------------------------------------------------------

TEST(GrindDiffTest, OnionPrefixCases) {
  struct Case {
    std::string prefix;
    std::uint64_t max_attempts;
    bool wins;
  };
  const std::vector<Case> cases = {
      {"", 10, true},                        // wins at attempt 1
      {"s", 1000, true},
      {"ab", 20000, true},
      {"sil", 1'000'000, true},
      {"AB", B + 1, false},                  // onions are lower case
      {"1", B - 1, false},                   // not a base32 character
      {"sil1", B, false},                    // bad character after a match
      {"abcdefghijklmnopq", B + 1, false},   // longer than an onion
  };
  for (const std::uint64_t seed : {5u, 99u}) {
    for (const auto& c : cases) {
      util::Rng a(seed);
      util::Rng b(seed);
      const auto want = outcome_of(
          oracle::grind_onion_prefix(c.prefix, a, c.max_attempts), a);
      const auto got = outcome_of(
          attack::grind_onion_prefix(c.prefix, b, c.max_attempts), b);
      EXPECT_EQ(want.key.has_value(), c.wins) << "'" << c.prefix << "'";
      if (c.prefix.empty()) {
        EXPECT_EQ(got.attempts, 1u);
      }
      expect_same(want, got,
                  "seed " + std::to_string(seed) + " prefix '" + c.prefix +
                      "'");
    }
  }
}

TEST(GrindDiffTest, PopulationPhishingLoopChained) {
  // Population::generate grinds its phishing keys back to back from one
  // Rng; chaining five grinds checks that each leaves the state the next
  // one (and everything after the section) starts from.
  for (const std::uint64_t seed : {1u, 42u, 7u}) {
    util::Rng a(seed);
    util::Rng b(seed);
    for (int i = 0; i < 5; ++i) {
      const crypto::KeyPair want = oracle::population_sil_key(a);
      const auto got = crypto::grind_onion_prefix(
          "sil", b, std::numeric_limits<std::uint64_t>::max());
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(want.public_bytes(), got->key.public_bytes())
          << "seed " << seed << " grind " << i;
    }
    util::Rng a_next = a;
    util::Rng b_next = b;
    for (int d = 0; d < 4; ++d) EXPECT_EQ(a_next.next(), b_next.next());
  }
}

TEST(GrindDiffTest, OnionPrefixAgreesWithBase32) {
  // The matcher decides starts_with(onion_address(fp), prefix) without
  // building the string; check it against the string for every prefix
  // of each address, a one-character mutation of each, and the cases no
  // onion can match.
  util::Rng rng(2024);
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz234567";
  for (int i = 0; i < 500; ++i) {
    const crypto::Fingerprint fp = crypto::KeyPair::generate(rng).fingerprint();
    const std::string onion =
        crypto::onion_address(crypto::permanent_id_from_fingerprint(fp));
    ASSERT_EQ(onion.size(), 16u);
    std::vector<std::string> prefixes;
    for (std::size_t len = 0; len <= onion.size(); ++len) {
      const std::string p = onion.substr(0, len);
      prefixes.push_back(p);
      if (len == 0) continue;
      std::string mutated = p;
      mutated.back() = alphabet[(alphabet.find(p.back()) +
                                 1 + rng.index(alphabet.size() - 1)) %
                                alphabet.size()];
      prefixes.push_back(mutated);
      std::string upper = p;
      upper.back() = static_cast<char>(std::toupper(
          static_cast<unsigned char>(upper.back())));
      prefixes.push_back(upper);
      prefixes.push_back(p + "=");
    }
    prefixes.push_back(onion + "a");
    for (const auto& p : prefixes)
      EXPECT_EQ(crypto::OnionPrefix(p).matches(fp),
                util::starts_with(onion, p))
          << onion << " / '" << p << "'";
  }
}

// ---------------------------------------------------------------------
// grind_key_after
// ---------------------------------------------------------------------

TEST(GrindDiffTest, KeyAfterMatchesScalar) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    for (const double fraction : {1e-2, 1e-3, 2e-4, 1e-12}) {
      util::Rng a(seed);
      crypto::Sha1Digest target;
      a.fill_bytes(target.data(), target.size());
      util::Rng b = a;
      const std::uint64_t max_attempts = 3 * B + 7;
      const auto want = outcome_of(
          oracle::grind_key_after(target, fraction, a, max_attempts), a);
      const auto got = outcome_of(
          attack::grind_key_after(target, fraction, b, max_attempts), b);
      expect_same(want, got,
                  "seed " + std::to_string(seed) + " fraction " +
                      std::to_string(fraction));
    }
  }
}

TEST(GrindDiffTest, KeyAfterSkipsTheExactTarget) {
  // A fingerprint equal to the target is at distance 0 <= any bound, yet
  // is not "after" it: both paths must pass it over.
  for (const std::uint64_t k : {std::uint64_t{1}, B, B + 1}) {
    const util::Rng start(37);
    const crypto::Fingerprint target = kth_fingerprint(start, k);
    // Only the exact target lies within distance 0, so nothing wins.
    {
      util::Rng a = start;
      util::Rng b = start;
      const auto want =
          outcome_of(oracle::grind_key_after(target, 0.0, a, 2 * B + 3), a);
      const auto got =
          outcome_of(attack::grind_key_after(target, 0.0, b, 2 * B + 3), b);
      EXPECT_FALSE(want.key.has_value());
      expect_same(want, got, "fraction 0, k " + std::to_string(k));
    }
    // With a loose bound the winner is a later draw.
    {
      util::Rng a = start;
      util::Rng b = start;
      const auto want =
          outcome_of(oracle::grind_key_after(target, 1e-3, a, 1'000'000), a);
      const auto got = outcome_of(
          attack::grind_key_after(target, 1e-3, b, 1'000'000), b);
      ASSERT_TRUE(want.key.has_value());
      if (k == 1) {
        EXPECT_GT(want.attempts, 1u);
      }
      expect_same(want, got, "fraction 1e-3, k " + std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace torsim
