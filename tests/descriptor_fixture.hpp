// Test-side descriptor builder: derives the descriptor id the way
// hs::ServiceHost does (rend-spec v2, from the key and the period
// holding `now`) and hands it to hsdir::make_descriptor, which derives
// nothing itself.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/keypair.hpp"
#include "hsdir/descriptor.hpp"
#include "util/time.hpp"

namespace torsim::test_support {

inline hsdir::Descriptor make_descriptor(
    const crypto::KeyPair& key, std::vector<crypto::Fingerprint> intro_points,
    std::uint8_t replica, util::UnixTime now,
    std::span<const std::uint8_t> cookie = {}) {
  const crypto::PermanentId pid =
      crypto::permanent_id_from_fingerprint(key.fingerprint());
  const std::uint32_t period = crypto::time_period(now, pid);
  return hsdir::make_descriptor(
      key, std::move(intro_points),
      crypto::descriptor_id(pid, period, replica, cookie), replica, period,
      now);
}

}  // namespace torsim::test_support
