#include "dirauth/ring_cache.hpp"

namespace torsim::dirauth {

namespace {

util::CacheCounters& ring_counters() {
  static util::CacheCounters counters;
  return counters;
}

// Allocation-free ring walk straight into a ResponsibleSet (the result
// matches responsible_hsdirs).
void fill_set(const Consensus& consensus, const crypto::DescriptorId& id,
              ResponsibleSet& set) {
  set.count = static_cast<std::uint8_t>(
      consensus.responsible_hsdirs_into(id, set.dirs.data(), set.dirs.size()));
}

}  // namespace

ResponsibleSetCache::ResponsibleSetCache(std::size_t capacity)
    : table_(capacity) {}

void ResponsibleSetCache::sync_generation(const Consensus& consensus) {
  if (generation_ == consensus.generation()) return;
  table_.clear();
  generation_ = consensus.generation();
}

const ResponsibleSet& ResponsibleSetCache::responsible(
    const Consensus& consensus, const crypto::DescriptorId& id) {
  if (!util::memo_enabled()) {
    fill_set(consensus, id, scratch_);
    return scratch_;
  }
  sync_generation(consensus);
  if (const ResponsibleSet* hit = table_.find(id)) {
    ring_counters().hit();
    return *hit;
  }
  ring_counters().miss();
  fill_set(consensus, id, scratch_);
  if (table_.store(id, scratch_)) ring_counters().evict();
  return scratch_;
}

util::CacheStats ResponsibleSetCache::stats() {
  return ring_counters().snapshot();
}

void ResponsibleSetCache::reset_stats() { ring_counters().reset(); }

}  // namespace torsim::dirauth
