#include "crypto/grind.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/sha1_batch.hpp"
#include "util/strings.hpp"

namespace torsim::crypto {

namespace {

// Onion addresses are lowercase RFC 4648 base32 (util::base32_encode).
constexpr std::string_view kOnionAlphabet = "abcdefghijklmnopqrstuvwxyz234567";
constexpr std::size_t kOnionChars = 16;

// Returns the 1-based attempt number of the first accepted candidate,
// or 0 when `max_attempts` candidates were all rejected. Each batch
// draws its keys serially into `keys` (exactly KeyPair::generate's
// fill), hashes them in lanes, and scans the digests in draw order. On a
// hit the Rng is rewound to the batch start and the candidates before
// the winner are redrawn, so the caller's KeyPair::generate draws the
// winner itself and the Rng ends where the scalar loop leaves it. The
// last batch is cut to the attempts that remain, so exhaustion consumes
// the same draws too.
// detlint: hot
std::uint64_t first_accepted(
    util::Rng& rng, std::uint64_t max_attempts,
    const FingerprintPredicate& accept, std::span<std::uint8_t> keys,
    std::span<const std::span<const std::uint8_t>> messages,
    std::span<Fingerprint> digests) {
  for (std::uint64_t done = 0; done < max_attempts;) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kGrindBatch, max_attempts - done));
    const util::Rng batch_start = rng;
    for (std::size_t i = 0; i < n; ++i)
      rng.fill_bytes(keys.data() + i * kPublicKeyBytes, kPublicKeyBytes);
    sha1_batch(messages.first(n), digests.first(n));
    for (std::size_t i = 0; i < n; ++i) {
      if (!accept(digests[i])) continue;
      rng = batch_start;
      for (std::size_t k = 0; k < i; ++k)
        rng.fill_bytes(keys.data() + k * kPublicKeyBytes, kPublicKeyBytes);
      return done + i + 1;
    }
    done += n;
  }
  return 0;
}

}  // namespace

std::optional<GrindHit> grind_keys(util::Rng& rng,
                                   std::uint64_t max_attempts,
                                   const FingerprintPredicate& accept) {
  std::vector<std::uint8_t> keys(kGrindBatch * kPublicKeyBytes);
  std::vector<std::span<const std::uint8_t>> messages(kGrindBatch);
  for (std::size_t i = 0; i < kGrindBatch; ++i)
    messages[i] = std::span<const std::uint8_t>(
        keys.data() + i * kPublicKeyBytes, kPublicKeyBytes);
  std::vector<Fingerprint> digests(kGrindBatch);
  const std::uint64_t attempts =
      first_accepted(rng, max_attempts, accept, keys, messages, digests);
  if (attempts == 0) return std::nullopt;
  return GrindHit{KeyPair::generate(rng), attempts};
}

OnionPrefix::OnionPrefix(std::string_view prefix) {
  if (prefix.size() > kOnionChars) {
    never_ = true;
    return;
  }
  for (std::size_t c = 0; c < prefix.size(); ++c) {
    const std::size_t value = kOnionAlphabet.find(prefix[c]);
    if (value == std::string_view::npos) {
      never_ = true;
      return;
    }
    // Character c is bits [5c, 5c + 5) of the address, counted from the
    // most significant bit of the fingerprint.
    for (std::size_t b = 0; b < 5; ++b) {
      const std::size_t bit = 5 * c + b;
      const bool set = ((value >> (4 - b)) & 1) != 0;
      if (bit < 64) {
        const std::uint64_t m = std::uint64_t{1} << (63 - bit);
        mask_hi_ |= m;
        if (set) want_hi_ |= m;
      } else {
        const auto m = static_cast<std::uint16_t>(1u << (79 - bit));
        mask_lo_ = static_cast<std::uint16_t>(mask_lo_ | m);
        if (set) want_lo_ = static_cast<std::uint16_t>(want_lo_ | m);
      }
    }
  }
}

bool OnionPrefix::matches(const Fingerprint& fingerprint) const {
  if (never_) return false;
  std::uint64_t hi = 0;
  for (std::size_t i = 0; i < 8; ++i) hi = (hi << 8) | fingerprint[i];
  const auto lo = static_cast<std::uint16_t>(fingerprint[8] << 8 |
                                             fingerprint[9]);
  return (hi & mask_hi_) == want_hi_ && (lo & mask_lo_) == want_lo_;
}

std::optional<GrindHit> grind_onion_prefix(std::string_view prefix,
                                           util::Rng& rng,
                                           std::uint64_t max_attempts) {
  const OnionPrefix wanted(prefix);
  auto hit = grind_keys(rng, max_attempts, [&](const Fingerprint& fp) {
    return wanted.matches(fp);
  });
  if (hit && !util::starts_with(onion_address(permanent_id_from_fingerprint(
                                    hit->key.fingerprint())),
                                prefix))
    throw std::logic_error("grind_onion_prefix: winner does not start with '" +
                           std::string(prefix) + "'");
  return hit;
}

}  // namespace torsim::crypto
