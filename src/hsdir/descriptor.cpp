#include "hsdir/descriptor.hpp"

namespace torsim::hsdir {

std::string Descriptor::onion_address() const {
  const auto key = crypto::KeyPair::from_public_bytes(service_public_key);
  return crypto::onion_address(
      crypto::permanent_id_from_fingerprint(key.fingerprint()));
}

Descriptor make_descriptor(const crypto::KeyPair& key,
                           std::vector<crypto::Fingerprint> intro_points,
                           const crypto::DescriptorId& descriptor_id,
                           std::uint8_t replica, std::uint32_t time_period,
                           util::UnixTime now) {
  Descriptor d;
  d.descriptor_id = descriptor_id;
  d.permanent_id = crypto::permanent_id_from_fingerprint(key.fingerprint());
  d.time_period = time_period;
  d.service_public_key = key.public_bytes();
  d.introduction_points = std::move(intro_points);
  d.replica = replica;
  d.published = now;
  return d;
}

}  // namespace torsim::hsdir
