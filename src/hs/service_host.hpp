// The operator side of a hidden service: keeps the identity keypair,
// picks introduction points, and (re)publishes v2 descriptors to the six
// responsible HSDirs as time periods roll over.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "dirauth/consensus.hpp"
#include "util/ipv4.hpp"
#include "hs/guard_manager.hpp"
#include "hsdir/directory_network.hpp"
#include "util/rng.hpp"

namespace torsim::hs {

/// One descriptor upload: which directory received it and which entry
/// guard fronted the upload circuit — the two vantage points of the
/// original S&P'13 *service* deanonymisation.
struct PublishRecord {
  relay::RelayId hsdir = relay::kInvalidRelayId;
  relay::RelayId guard = relay::kInvalidRelayId;
};

class ServiceHost {
 public:
  /// Most directories one publication reaches: every replica's full
  /// responsible set.
  static constexpr std::size_t kMaxResponsible =
      crypto::kNumReplicas * crypto::kHsDirsPerReplica;

  /// Creates a service with a fresh identity.
  ServiceHost(crypto::KeyPair key, util::UnixTime created);

  static ServiceHost create(util::Rng& rng, util::UnixTime now);

  /// The operator machine's IP address — ground truth, observable only
  /// by the first hop of the service's own circuits.
  const util::Ipv4& address() const { return address_; }
  void set_address(util::Ipv4 address) { address_ = address; }

  const crypto::KeyPair& key() const { return key_; }
  const crypto::PermanentId& permanent_id() const { return permanent_id_; }
  std::string onion_address() const;

  bool online() const { return online_; }
  void set_online(bool online) { online_ = online; }

  /// Publishes the descriptors for the current time period if they have
  /// not been published yet, if the responsible HSDir set changed since
  /// the last upload (Tor re-uploads when the ring shifts under it —
  /// this is what lets a shadow relay that just became active collect
  /// descriptors mid-period), or if `force` is set. Introduction points
  /// are sampled from Fast relays in the consensus. Returns the relay
  /// ids that received copies (empty if nothing was published).
  std::vector<relay::RelayId> maybe_publish(
      const dirauth::Consensus& consensus, hsdir::DirectoryNetwork& dirnet,
      util::Rng& rng, util::UnixTime now, bool force = false);

  /// Current descriptor IDs (replica 0 and 1) at time `now`: the held
  /// pair when `now` falls in the period maybe_publish last derived,
  /// otherwise derived afresh.
  std::vector<crypto::DescriptorId> current_descriptor_ids(
      util::UnixTime now) const;

  /// Turns this into an authenticated ("stealth") service: descriptors
  /// are published under cookie-mixed IDs, so only clients holding the
  /// cookie can derive where to fetch them. Call before first publish
  /// (or force a republish afterwards).
  void set_descriptor_cookie(std::vector<std::uint8_t> cookie) {
    descriptor_cookie_ = std::move(cookie);
    replica_ids_valid_ = false;
  }
  const std::vector<std::uint8_t>& descriptor_cookie() const {
    return descriptor_cookie_;
  }

  /// Time period of the most recent publication (0 if never).
  std::uint32_t last_published_period() const { return last_period_; }

  /// The service's own entry guards — hidden services build circuits
  /// through guards exactly like clients do (which is what the original
  /// S&P'13 deanonymisation attacked). maintain_guards() refreshes the
  /// set against the consensus.
  GuardManager& guards() { return guard_manager_; }
  const GuardManager& guards() const { return guard_manager_; }
  void maintain_guards(const dirauth::Consensus& consensus, util::Rng& rng,
                       util::UnixTime now) {
    guard_manager_.maintain(consensus, rng, now);
  }

  /// Introduction points from the most recent publication (empty before
  /// the first publish).
  const std::vector<crypto::Fingerprint>& introduction_points() const {
    return intro_points_;
  }

  /// Per-HSDir upload circuits of the most recent publication.
  const std::vector<PublishRecord>& last_publish_records() const {
    return publish_records_;
  }

  /// Responsible directories the most recent publication failed to
  /// reach even after the directory network's bounded upload retries
  /// (0 without fault injection). The typed records live in
  /// DirectoryNetwork::failure_log() as kPublishLost.
  int last_publish_lost() const { return last_publish_lost_; }

 private:
  crypto::KeyPair key_;
  crypto::PermanentId permanent_id_;
  util::UnixTime created_;
  bool online_ = true;
  std::uint32_t last_period_ = 0;
  bool published_once_ = false;
  int last_publish_lost_ = 0;
  /// Both replicas' descriptor ids for `replica_ids_period_` — a period
  /// lasts 24 hours, and maybe_publish asks every hour; the publication
  /// and current_descriptor_ids read them from here. Dropped when the
  /// cookie changes.
  std::array<crypto::DescriptorId, crypto::kNumReplicas> replica_ids_{};
  std::uint32_t replica_ids_period_ = 0;
  bool replica_ids_valid_ = false;
  /// Responsible fingerprints at the last publication, replica 0's
  /// walk then replica 1's, in the first `last_responsible_count_`
  /// slots.
  std::array<crypto::Fingerprint, kMaxResponsible> last_responsible_{};
  std::size_t last_responsible_count_ = 0;
  std::vector<crypto::Fingerprint> intro_points_;
  std::vector<std::uint8_t> descriptor_cookie_;
  std::vector<PublishRecord> publish_records_;
  util::Ipv4 address_;
  GuardManager guard_manager_;
};

}  // namespace torsim::hs
