#include "hs/guard_manager.hpp"

#include <algorithm>

namespace torsim::hs {
namespace {

bool listed(const dirauth::Consensus& consensus, const GuardSlot& slot) {
  const auto* entry = consensus.find(slot.fingerprint);
  return entry != nullptr && has_flag(entry->flags, dirauth::Flag::kRunning);
}

}  // namespace

void GuardManager::maintain(const dirauth::Consensus& consensus,
                            util::Rng& rng, util::UnixTime now) {
  // Drop expired guards.
  guards_.erase(std::remove_if(guards_.begin(), guards_.end(),
                               [now](const GuardSlot& g) {
                                 return now >= g.expires_at;
                               }),
                guards_.end());

  const auto reachable = static_cast<int>(
      std::count_if(guards_.begin(), guards_.end(),
                    [&](const GuardSlot& g) { return listed(consensus, g); }));

  // Top up when below target size, or resample when fewer than two of the
  // kept guards are reachable.
  if (static_cast<int>(guards_.size()) >= policy_.set_size && reachable >= 2)
    return;

  // Resampling: guards that fell out of the consensus must actually be
  // dropped, or a full set of dead guards would block the top-up below
  // and wedge pick() forever.
  if (reachable < 2)
    guards_.erase(std::remove_if(guards_.begin(), guards_.end(),
                                 [&](const GuardSlot& g) {
                                   return !listed(consensus, g);
                                 }),
                  guards_.end());

  const auto& candidates = consensus.guard_entries();
  if (candidates.empty()) return;
  // Bandwidth-weighted sampling (Tor weights path selection by consensus
  // bandwidth).
  double total_bw = 0.0;
  for (const auto* candidate : candidates)
    total_bw += candidate->bandwidth_kbps;
  const auto weighted_pick = [&]() -> const dirauth::ConsensusEntry* {
    if (total_bw <= 0.0) return candidates[rng.index(candidates.size())];
    double roll = rng.uniform(0.0, total_bw);
    for (const auto* candidate : candidates) {
      roll -= candidate->bandwidth_kbps;
      if (roll <= 0.0) return candidate;
    }
    return candidates.back();
  };
  while (static_cast<int>(guards_.size()) < policy_.set_size) {
    const auto* entry = weighted_pick();
    const bool already =
        std::any_of(guards_.begin(), guards_.end(), [&](const GuardSlot& g) {
          return g.relay == entry->relay;
        });
    if (already) {
      // Avoid spinning forever on tiny candidate sets.
      if (static_cast<int>(candidates.size()) <=
          static_cast<int>(guards_.size()))
        break;
      continue;
    }
    GuardSlot slot;
    slot.relay = entry->relay;
    slot.fingerprint = entry->fingerprint;
    slot.chosen_at = now;
    slot.expires_at =
        now + rng.uniform_int(policy_.min_lifetime, policy_.max_lifetime);
    guards_.push_back(slot);
  }
}

std::optional<GuardSlot> GuardManager::pick(
    const dirauth::Consensus& consensus, util::Rng& rng) const {
  std::vector<const GuardSlot*> usable;
  for (const GuardSlot& g : guards_)
    if (listed(consensus, g)) usable.push_back(&g);
  if (usable.empty()) return std::nullopt;
  return *usable[rng.index(usable.size())];
}

}  // namespace torsim::hs
