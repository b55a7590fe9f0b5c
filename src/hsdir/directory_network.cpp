#include "hsdir/directory_network.hpp"

#include <algorithm>

namespace torsim::hsdir {

std::vector<relay::RelayId> DirectoryNetwork::publish(
    const dirauth::Consensus& consensus,
    const std::array<Descriptor, crypto::kNumReplicas>& descriptors,
    const std::array<dirauth::ResponsibleSet, crypto::kNumReplicas>&
        responsible) {
  std::array<relay::RelayId, kMaxReceivers> delivered{};
  const std::size_t stored =
      store_replicas(consensus, descriptors, responsible, delivered);
  // At most six ids: an insertion sort (GCC 12's -Warray-bounds also
  // misfires on std::sort over a six-slot std::array).
  for (std::size_t i = 1; i < stored; ++i)
    for (std::size_t j = i; j > 0 && delivered[j - 1] > delivered[j]; --j)
      std::swap(delivered[j - 1], delivered[j]);
  const auto first = delivered.begin();
  const auto last =
      std::unique(first, first + static_cast<std::ptrdiff_t>(stored));
  if (config_.metrics != nullptr) {
    config_.metrics->counter("hsdir.publishes")
        .inc(static_cast<std::int64_t>(descriptors.size()));
    config_.metrics->counter("hsdir.replica_stores")
        .inc(static_cast<std::int64_t>(stored));
  }
  return std::vector<relay::RelayId>(first, last);
}

// detlint: hot
std::size_t DirectoryNetwork::store_replicas(
    const dirauth::Consensus& consensus,
    const std::array<Descriptor, crypto::kNumReplicas>& descriptors,
    const std::array<dirauth::ResponsibleSet, crypto::kNumReplicas>&
        responsible,
    std::span<relay::RelayId, kMaxReceivers> receivers) {
  const bool faults = injector_ != nullptr && injector_->enabled();
  std::size_t stored = 0;
  for (std::size_t i = 0; i < descriptors.size(); ++i) {
    const dirauth::ResponsibleSet& set = responsible[i];
    for (std::uint8_t k = 0; k < set.count; ++k) {
      const relay::RelayId hsdir = set.dirs[k]->relay;
      if (faults) {
        if (!store_under_faults(consensus.generation(), descriptors[i], hsdir))
          continue;
      } else {
        // Each touched store learns the publish round's consensus
        // generation — its cue to compact dead arena spans (store.hpp).
        DescriptorStore& target = store_for(hsdir);
        target.observe_epoch(consensus.generation());
        target.store(descriptors[i]);
      }
      receivers[stored++] = hsdir;
    }
  }
  return stored;
}

bool DirectoryNetwork::store_under_faults(std::uint64_t generation,
                                          const Descriptor& descriptor,
                                          relay::RelayId hsdir) {
  const std::uint64_t descriptor_key = fault::FaultInjector::key_of(
      descriptor.descriptor_id.data(), descriptor.descriptor_id.size());
  // Bounded per-directory retry: an upload lost in transit is re-sent
  // up to max_attempts times; a directory that drops all of them simply
  // never receives this replica (typed, not silent).
  const int max_attempts = injector_->retry().max_attempts;
  int attempt = 1;
  bool delivered = false;
  for (; attempt <= max_attempts; ++attempt) {
    if (!injector_->publish_lost(descriptor_key, hsdir, attempt)) {
      delivered = true;
      break;
    }
  }
  if (!delivered) {
    failure_log_.push_back({fault::FailureKind::kPublishLost, descriptor_key,
                            hsdir, max_attempts});
    return false;
  }
  Descriptor copy = descriptor;
  if (injector_->publish_delayed(descriptor_key, hsdir)) {
    copy.visible_after = copy.published + injector_->plan().publish_delay;
    failure_log_.push_back({fault::FailureKind::kPublishDelayed,
                            descriptor_key, hsdir, attempt});
  }
  DescriptorStore& target = store_for(hsdir);
  target.observe_epoch(generation);
  target.store(copy);
  return true;
}

std::optional<Descriptor> DirectoryNetwork::fetch_from(
    const dirauth::Consensus& consensus, const crypto::DescriptorId& id,
    util::UnixTime now, relay::RelayId& hsdir_relay, FetchTrace* trace) {
  hsdir_relay = relay::kInvalidRelayId;
  // fetch_attempts counts requests (one per call); fetch_probes counts
  // the per-directory contacts one request fans out into — including
  // directories that never answer, since the client still spent a
  // circuit on them.
  if (config_.metrics != nullptr)
    config_.metrics->counter("hsdir.fetch_attempts").inc();
  dirauth::ResponsibleSet responsible;
  responsible.count =
      static_cast<std::uint8_t>(consensus.responsible_hsdirs_into(
          id, responsible.dirs.data(), responsible.dirs.size()));
  for (std::uint8_t k = 0; k < responsible.count; ++k) {
    const dirauth::ConsensusEntry* e = responsible.dirs[k];
    if (config_.metrics != nullptr)
      config_.metrics->counter("hsdir.fetch_probes").inc();
    if (injector_ != nullptr && injector_->hsdir_unresponsive(e->relay, now)) {
      // The directory is inside an outage window: the request circuit
      // gets no answer, the client moves on to the next responsible
      // dir. Logged typed; not recorded in the store's own fetch log
      // (an unresponsive dir logs nothing, which is exactly why the
      // paper's measuring HSDirs undercount during outages).
      if (trace != nullptr) ++trace->dirs_unresponsive;
      failure_log_.push_back(
          {fault::FailureKind::kHsdirUnresponsive,
           fault::FaultInjector::key_of(id.data(), id.size()), e->relay, 1});
      continue;
    }
    if (trace != nullptr) ++trace->dirs_tried;
    hsdir_relay = e->relay;
    auto result = store_for(e->relay).fetch(id, now);
    if (result) {
      if (config_.metrics != nullptr)
        config_.metrics->counter("hsdir.fetch_hits").inc();
      return result;
    }
  }
  if (config_.metrics != nullptr)
    config_.metrics->counter("hsdir.fetch_misses").inc();
  return std::nullopt;
}

void DirectoryNetwork::expire_all(util::UnixTime now) {
  for (auto& [id, store] : stores_) store.expire(now);
}

}  // namespace torsim::hsdir
