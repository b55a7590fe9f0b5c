#include "hs/service_host.hpp"

#include <algorithm>

namespace torsim::hs {

namespace {

// The ring walk for both replicas: each replica's responsible set, and
// their fingerprints concatenated in replica order. Returns how many
// fingerprints it wrote.
// detlint: hot
std::size_t walk_replicas(
    const dirauth::Consensus& consensus,
    const std::array<crypto::DescriptorId, crypto::kNumReplicas>& ids,
    std::array<dirauth::ResponsibleSet, crypto::kNumReplicas>& sets,
    std::array<crypto::Fingerprint, ServiceHost::kMaxResponsible>&
        fingerprints) {
  std::size_t n = 0;
  for (std::size_t r = 0; r < ids.size(); ++r) {
    dirauth::ResponsibleSet& set = sets[r];
    set.count = static_cast<std::uint8_t>(consensus.responsible_hsdirs_into(
        ids[r], set.dirs.data(), set.dirs.size()));
    for (std::uint8_t k = 0; k < set.count; ++k)
      fingerprints[n++] = set.dirs[k]->fingerprint;
  }
  return n;
}

}  // namespace

ServiceHost::ServiceHost(crypto::KeyPair key, util::UnixTime created)
    : key_(std::move(key)),
      permanent_id_(crypto::permanent_id_from_fingerprint(key_.fingerprint())),
      created_(created) {}

ServiceHost ServiceHost::create(util::Rng& rng, util::UnixTime now) {
  ServiceHost host(crypto::KeyPair::generate(rng), now);
  host.set_address(util::Ipv4::random_public(rng));
  return host;
}

std::string ServiceHost::onion_address() const {
  return crypto::onion_address(permanent_id_);
}

std::vector<relay::RelayId> ServiceHost::maybe_publish(
    const dirauth::Consensus& consensus, hsdir::DirectoryNetwork& dirnet,
    util::Rng& rng, util::UnixTime now, bool force) {
  if (!online_) return {};
  const std::uint32_t period = crypto::time_period(now, permanent_id_);
  if (!replica_ids_valid_ || replica_ids_period_ != period) {
    replica_ids_ = crypto::descriptor_ids_for_period(permanent_id_, period,
                                                     descriptor_cookie_);
    replica_ids_period_ = period;
    replica_ids_valid_ = true;
  }

  // The currently responsible HSDirs for both replicas: one ring walk,
  // which also routes the upload if this turns into a publication.
  std::array<dirauth::ResponsibleSet, crypto::kNumReplicas> walked{};
  std::array<crypto::Fingerprint, kMaxResponsible> responsible{};
  const std::size_t count =
      walk_replicas(consensus, replica_ids_, walked, responsible);
  const bool ring_shifted =
      !std::equal(responsible.begin(), responsible.begin() + count,
                  last_responsible_.begin(),
                  last_responsible_.begin() + last_responsible_count_);
  if (published_once_ && period == last_period_ && !ring_shifted && !force)
    return {};

  // Sample up to 3 introduction points among Fast relays.
  intro_points_.clear();
  const auto& fast = consensus.fast_entries();
  if (!fast.empty()) {
    for (int i = 0; i < 3; ++i)
      intro_points_.push_back(fast[rng.index(fast.size())]->fingerprint);
  }

  std::array<hsdir::Descriptor, crypto::kNumReplicas> descriptors;
  for (std::uint8_t replica = 0; replica < crypto::kNumReplicas; ++replica)
    descriptors[replica] = hsdir::make_descriptor(
        key_, intro_points_, replica_ids_[replica], replica, period, now);

  last_period_ = period;
  published_once_ = true;
  last_responsible_ = responsible;
  last_responsible_count_ = count;
  const auto receivers = dirnet.publish(consensus, descriptors, walked);

  // Typed outcome: directories the upload never reached despite the
  // network's bounded retries (receivers is deduplicated, so compare
  // against the deduplicated responsible set).
  std::array<relay::RelayId, kMaxResponsible> distinct_relays{};
  std::size_t distinct = 0;
  for (const dirauth::ResponsibleSet& set : walked) {
    for (std::uint8_t k = 0; k < set.count; ++k) {
      const auto seen =
          distinct_relays.begin() + static_cast<std::ptrdiff_t>(distinct);
      if (std::find(distinct_relays.begin(), seen, set.dirs[k]->relay) ==
          seen)
        distinct_relays[distinct++] = set.dirs[k]->relay;
    }
  }
  last_publish_lost_ = static_cast<int>(distinct - receivers.size());

  // Each upload rides its own guard-fronted circuit (when the service
  // maintains guards; a guard-less service uploads unprotected, which is
  // what made the original attack so effective against default setups).
  publish_records_.clear();
  for (const relay::RelayId hsdir : receivers) {
    PublishRecord record;
    record.hsdir = hsdir;
    if (const auto guard = guard_manager_.pick(consensus, rng))
      record.guard = guard->relay;
    publish_records_.push_back(record);
  }
  return receivers;
}

std::vector<crypto::DescriptorId> ServiceHost::current_descriptor_ids(
    util::UnixTime now) const {
  const std::uint32_t period = crypto::time_period(now, permanent_id_);
  if (replica_ids_valid_ && replica_ids_period_ == period)
    return {replica_ids_.begin(), replica_ids_.end()};
  const auto replica_ids = crypto::descriptor_ids_for_period(
      permanent_id_, period, descriptor_cookie_);
  return {replica_ids.begin(), replica_ids.end()};
}

}  // namespace torsim::hs
