// Sec. V: resolving logged descriptor IDs back to onion addresses.
//
// The descriptor ID is a one-way function of (onion, day, replica), so
// the paper resolved its request log by deriving, for every harvested
// onion address, the descriptor IDs of *every day between 28 Jan and
// 8 Feb 2013* (to absorb client clock skew) and joining against the log.
// We implement exactly that method.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "popularity/request_generator.hpp"
#include "util/interner.hpp"

namespace torsim::popularity {

struct ResolverConfig {
  /// Derivation window (paper: 28 Jan – 8 Feb 2013). Zero means default.
  util::UnixTime derive_from = 0;
  util::UnixTime derive_to = 0;
  /// Worker threads for the dictionary build: the per-onion multi-day
  /// descriptor-ID derivation and the per-bucket sorts; <= 0 = one per
  /// hardware thread, 1 = everything inline on the caller. The
  /// dictionary is bit-identical for every value (see
  /// docs/concurrency.md).
  int threads = 0;
  /// Optional metrics sink ("resolver.*" counters). Must outlive the
  /// resolver. See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One row of the popularity ranking (Table II).
struct RankedService {
  std::string onion;
  std::string label;        ///< ground-truth class label, if pinned
  std::string paper_alias;  ///< Table II address this stands in for
  std::int64_t requests = 0;
  int paper_rank = 0;       ///< 0 when the service is not pinned
};

struct ResolutionReport {
  std::int64_t total_requests = 0;
  std::int64_t unique_descriptor_ids = 0;
  std::int64_t resolved_descriptor_ids = 0;
  std::int64_t resolved_onions = 0;
  std::int64_t resolved_requests = 0;
  /// Popularity ranking over resolved onions, descending by requests.
  std::vector<RankedService> ranking;

  double unresolved_request_share() const {
    return total_requests > 0
               ? 1.0 - static_cast<double>(resolved_requests) /
                           static_cast<double>(total_requests)
               : 0.0;
  }
};

class DescriptorResolver {
 public:
  explicit DescriptorResolver(ResolverConfig config = {});

  /// Builds the descriptor-id -> onion dictionary from the harvested
  /// address database (all onions in the population — the harvest
  /// collected addresses regardless of later availability).
  void build_dictionary(const population::Population& pop);

  /// Builds the dictionary from bare onion addresses — exactly the
  /// paper's method: nothing but the harvested address list is needed
  /// to derive every descriptor ID in the window. When two onions
  /// derive the same id, the later one in `onions` owns it.
  void build_dictionary_from_onions(const std::vector<std::string>& onions);

  /// Resolves a request stream and produces the ranking. `pop` (when
  /// provided) only supplies ground-truth labels for the report.
  ResolutionReport resolve(const RequestStream& stream,
                           const population::Population& pop) const;
  ResolutionReport resolve(const RequestStream& stream) const;

  std::size_t dictionary_size() const { return dictionary_.size(); }

  /// Resolves one descriptor id to its onion address, if known.
  std::optional<std::string> resolve_id(
      const crypto::DescriptorId& id) const;

 private:
  /// One dictionary row: a derived descriptor id and the interned onion
  /// it belongs to (docs/data-layout.md).
  struct DictionaryEntry {
    crypto::DescriptorId id;
    util::StringInterner::Id onion = 0;
  };
  static_assert(sizeof(DictionaryEntry) == 24, "20 + 4 bytes, no padding");

  /// One (onion, requests) pair of the request-log join. Deliberately
  /// without member initialisers: the join's scratch buffer of these is
  /// allocated uninitialised and only the slots it writes are touched.
  struct OnionCount {
    util::StringInterner::Id onion;
    std::int64_t requests;
  };

  ResolutionReport resolve_internal(const RequestStream& stream,
                                    const population::Population* pop) const;

  /// The hot request-log join (Sec. V method), in caller-provided
  /// storage: sorts `ids` (a copy of the stream's descriptor ids),
  /// counts each run of equal ids, merge-walks the runs against the
  /// sorted dictionary, and folds the resolved runs into per-onion
  /// counts. `onion_counts` must hold at least one slot per resolved
  /// id; returns how many per-onion counts it wrote, sorted by intern
  /// id.
  std::size_t tally_requests(std::span<crypto::DescriptorId> ids,
                             std::span<OnionCount> onion_counts,
                             ResolutionReport& report) const;

  ResolverConfig config_;
  /// Sorted by id, one entry per distinct id. Values are ids into
  /// util::global_interner() — one 4-byte handle per derived
  /// descriptor id instead of ~12 owned copies of every onion string
  /// (one per derivation day).
  std::vector<DictionaryEntry> dictionary_;
};

}  // namespace torsim::popularity
