// Key grinding: regenerating surrogate keypairs until the fingerprint
// satisfies a predicate. This is how the paper's "silkroa..." phishing
// copies got their vanity onion addresses, and how trackers positioned
// relays right after Silk Road's descriptor IDs (attack/grinding.hpp).
//
// grind_keys is the one grinding loop in the tree. It is exact: it draws
// the same keys from the Rng, in the same order, as calling
// KeyPair::generate(rng) until the predicate holds, returns the same
// winner and attempt count, and leaves the Rng in the same state. It is
// fast because it never builds a KeyPair for a losing candidate: a batch
// of kGrindBatch keys is drawn into one buffer, hashed with the
// lane-batched crypto::sha1_batch, and the predicate runs on the raw
// digests. See docs/performance.md ("Key grinding") for the replay
// argument and why the kernel takes no threads.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "crypto/keypair.hpp"
#include "util/rng.hpp"

namespace torsim::crypto {

/// Candidate keys drawn and hashed per batch. The key buffer is
/// kGrindBatch × kPublicKeyBytes (~140 KB), allocated once per call.
inline constexpr std::size_t kGrindBatch = 1024;

/// A won grind: the key and its 1-based attempt number.
struct GrindHit {
  KeyPair key;
  std::uint64_t attempts = 0;
};

/// A test on a candidate's fingerprint. Must be a pure function of the
/// fingerprint.
using FingerprintPredicate = std::function<bool(const Fingerprint&)>;

/// Tries up to `max_attempts` keys, each drawn as KeyPair::generate(rng)
/// would, and returns the first whose fingerprint satisfies `accept`.
/// On success the Rng stands just after the winner's draws; on
/// exhaustion it has consumed exactly `max_attempts` keys.
std::optional<GrindHit> grind_keys(util::Rng& rng,
                                   std::uint64_t max_attempts,
                                   const FingerprintPredicate& accept);

/// "The onion address starts with `prefix`", decided on the raw
/// fingerprint: the prefix is decoded to 5-bit groups once and compared
/// with the leading digest bits, so no base32 string is built per
/// candidate. Agrees with util::starts_with(onion_address(...), prefix)
/// for every prefix: onion addresses are 16 lowercase base32 characters,
/// so an empty prefix always matches, and a prefix longer than 16 or
/// holding any other character (upper case included) never does.
class OnionPrefix {
 public:
  explicit OnionPrefix(std::string_view prefix);

  bool matches(const Fingerprint& fingerprint) const;

 private:
  // The onion address covers the fingerprint's first 80 bits: bytes 0-7
  // as a big-endian u64 (`hi`) and bytes 8-9 as a big-endian u16 (`lo`).
  std::uint64_t mask_hi_ = 0;
  std::uint64_t want_hi_ = 0;
  std::uint16_t mask_lo_ = 0;
  std::uint16_t want_lo_ = 0;
  bool never_ = false;
};

/// grind_keys with OnionPrefix(prefix); the winner's onion address is
/// re-derived through base32 and checked against `prefix`.
std::optional<GrindHit> grind_onion_prefix(std::string_view prefix,
                                           util::Rng& rng,
                                           std::uint64_t max_attempts);

}  // namespace torsim::crypto
