#include "dirauth/authority.hpp"

#include <algorithm>
#include <span>

#include "stats/descriptive.hpp"

namespace torsim::dirauth {

namespace {

// One relay the authorities can see, with its per-address election
// keys copied out of the relay once. Every candidate is online, so a
// longer continuous uptime is an earlier online_since.
struct Candidate {
  std::uint32_t address = 0;
  double bandwidth_kbps = 0.0;
  util::UnixTime online_since = 0;
  relay::RelayId id = relay::kInvalidRelayId;
  const relay::Relay* relay = nullptr;
};

// Ascending address, then the election within an address: higher
// bandwidth, then longer uptime, then lower id (a total order: ids are
// unique).
bool election_order(const Candidate& a, const Candidate& b) {
  if (a.address != b.address) return a.address < b.address;
  if (a.bandwidth_kbps != b.bandwidth_kbps)
    return a.bandwidth_kbps > b.bandwidth_kbps;
  if (a.online_since != b.online_since)
    return a.online_since < b.online_since;
  return a.id < b.id;
}

// The candidate pass: every online, authority-reachable relay in
// registry order, written into caller-sized storage (both spans hold
// at least registry.size() slots). Returns the count written.
// detlint: hot
std::size_t gather_candidates(const relay::Registry& registry,
                              std::span<Candidate> out,
                              std::span<double> bandwidths) {
  std::size_t n = 0;
  for (const relay::Relay& r : registry.all()) {
    if (!r.online() || !r.authority_reachable()) continue;
    out[n] = Candidate{r.config().address.value(), r.config().bandwidth_kbps,
                       r.online_since(), r.id(), &r};
    bandwidths[n] = r.config().bandwidth_kbps;
    ++n;
  }
  return n;
}

}  // namespace

FlagSet Authority::compute_flags(const relay::Relay& relay,
                                 double median_bandwidth,
                                 util::UnixTime now) const {
  FlagSet flags = 0;
  if (!relay.online()) return flags;
  flags = with_flag(flags, Flag::kRunning);
  flags = with_flag(flags, Flag::kValid);
  const util::Seconds uptime = relay.continuous_uptime(now);
  const double bw = relay.config().bandwidth_kbps;
  if (bw >= policy_.fast_min_bandwidth_kbps)
    flags = with_flag(flags, Flag::kFast);
  if (uptime >= policy_.stable_min_uptime)
    flags = with_flag(flags, Flag::kStable);
  if (uptime >= policy_.hsdir_min_uptime)
    flags = with_flag(flags, Flag::kHSDir);
  if (uptime >= policy_.guard_min_uptime &&
      bw >= policy_.guard_bandwidth_median_fraction * median_bandwidth &&
      relay.fractional_uptime(now) >= policy_.guard_min_fractional_uptime)
    flags = with_flag(flags, Flag::kGuard);
  return flags;
}

Consensus Authority::build_consensus(const relay::Registry& registry,
                                     util::UnixTime now) const {
  std::vector<Candidate> candidates(registry.size());
  std::vector<double> bandwidths(registry.size());
  const std::size_t n = gather_candidates(registry, candidates, bandwidths);
  candidates.resize(n);
  bandwidths.resize(n);
  const double median_bw = n == 0 ? 0.0 : stats::median(bandwidths);

  // One flat sort groups every address into a contiguous run, in
  // ascending address order, with the run already in election order:
  // active = the first max_relays_per_ip of each run (higher bandwidth,
  // then longer uptime, then lower id).
  std::sort(candidates.begin(), candidates.end(), election_order);
  const auto cap = static_cast<std::size_t>(policy_.max_relays_per_ip);
  std::vector<ConsensusEntry> entries;
  entries.reserve(n);
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    run = i > 0 && candidates[i].address == candidates[i - 1].address
              ? run + 1
              : 0;
    if (run >= cap) continue;
    const relay::Relay& r = *candidates[i].relay;
    ConsensusEntry e;
    e.relay = r.id();
    e.fingerprint = r.fingerprint();
    e.nickname = r.config().nickname;
    e.address = r.config().address;
    e.or_port = r.config().or_port;
    e.bandwidth_kbps = r.config().bandwidth_kbps;
    e.flags = compute_flags(r, median_bw, now);
    entries.push_back(std::move(e));
  }
  return Consensus(now, std::move(entries));
}

}  // namespace torsim::dirauth
