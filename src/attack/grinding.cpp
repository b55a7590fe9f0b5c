#include "attack/grinding.hpp"

#include <cmath>
#include <stdexcept>

#include "crypto/grind.hpp"

namespace torsim::attack {

std::optional<GrindResult> grind_key_after(const crypto::Sha1Digest& target,
                                           double max_ring_fraction,
                                           util::Rng& rng,
                                           std::uint64_t max_attempts) {
  const double ring_size = std::ldexp(1.0, 160);
  const double max_distance = max_ring_fraction * ring_size;
  const crypto::U160 target_value(target);
  // Strictly after the target: an exact hit is no position at all.
  const auto after_target = [&](const crypto::Fingerprint& fingerprint) {
    const crypto::U160 fp(fingerprint);
    return !(fp == target_value) &&
           fp.ring_distance_from(target_value).to_double() <= max_distance;
  };
  auto hit = crypto::grind_keys(rng, max_attempts, after_target);
  if (!hit) return std::nullopt;
  if (!after_target(hit->key.fingerprint()))
    throw std::logic_error("grind_key_after: winner outside the target arc");
  const double distance = crypto::U160(hit->key.fingerprint())
                              .ring_distance_from(target_value)
                              .to_double();
  return GrindResult{std::move(hit->key), hit->attempts, distance};
}

std::optional<GrindResult> grind_onion_prefix(std::string_view prefix,
                                              util::Rng& rng,
                                              std::uint64_t max_attempts) {
  auto hit = crypto::grind_onion_prefix(prefix, rng, max_attempts);
  if (!hit) return std::nullopt;
  return GrindResult{std::move(hit->key), hit->attempts, 0.0};
}

}  // namespace torsim::attack
