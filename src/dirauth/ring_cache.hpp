// Consensus-generation-keyed cache for responsible-HSDir ring walks.
//
// The fetch path resolves the same descriptor ids against the same
// hourly consensus over and over (every client retry, every
// flash-crowd fetch, every harvester round). Publish does not come
// through here: hs::ServiceHost walks both replicas once per hour
// itself and hands that walk to DirectoryNetwork::publish. A ring walk
// is a pure function of (consensus, descriptor-id), so its result can
// be memoized for as long as the consensus stands: the cache stamps the
// Consensus::generation() it was filled under and drops everything the
// moment a different consensus shows up. Cached entry pointers therefore always point into
// the live consensus' entries() buffer (see the generation semantics in
// consensus.hpp — copies re-stamp, moves carry the buffer and stamp).
//
// Not thread-safe by design: fetch runs in serial sections
// (hsdir::DirectoryNetworkConfig).
#pragma once

#include <cstdint>

#include "dirauth/consensus.hpp"
#include "util/memo.hpp"

namespace torsim::dirauth {

class ResponsibleSetCache {
 public:
  explicit ResponsibleSetCache(std::size_t capacity = 8192);

  /// The responsible set for `id` under `consensus`, from the cache
  /// when util::memo_enabled() (computing and filling on miss). The
  /// returned reference is invalidated by the next call.
  const ResponsibleSet& responsible(const Consensus& consensus,
                                    const crypto::DescriptorId& id);

  /// Process-wide hit/miss/evict totals across every instance (bench
  /// "cache" telemetry; never part of the metrics goldens).
  static util::CacheStats stats();
  static void reset_stats();

 private:
  struct IdHash {
    std::uint64_t operator()(const crypto::DescriptorId& id) const {
      return util::memo_mix_bytes(id.data(), id.size());
    }
  };

  /// Clears the table when `consensus` is not the one it was filled
  /// under.
  void sync_generation(const Consensus& consensus);

  util::MemoTable<crypto::DescriptorId, ResponsibleSet, IdHash> table_;
  std::uint64_t generation_ = 0;
  ResponsibleSet scratch_;
};

}  // namespace torsim::dirauth
