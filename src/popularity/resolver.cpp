#include "popularity/resolver.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "util/parallel.hpp"

namespace torsim::popularity {
namespace {

// Byte-wise (big-endian) id order — the same order as
// std::array::operator<, spelled as one memcmp for the sorts.
bool id_less(const crypto::DescriptorId& a, const crypto::DescriptorId& b) {
  return std::memcmp(a.data(), b.data(), a.size()) < 0;
}

constexpr std::size_t kBuckets = 256;  // one per leading id byte

}  // namespace

DescriptorResolver::DescriptorResolver(ResolverConfig config)
    : config_(config) {
  if (config_.derive_from == 0)
    config_.derive_from = util::make_utc(2013, 1, 28);
  if (config_.derive_to == 0)
    config_.derive_to = util::make_utc(2013, 2, 9);
}

void DescriptorResolver::build_dictionary(
    const population::Population& pop) {
  std::vector<std::string> onions;
  onions.reserve(pop.size());
  for (const population::Population::ServiceRef svc : pop.services())
    onions.emplace_back(svc.onion());
  build_dictionary_from_onions(onions);
}

void DescriptorResolver::build_dictionary_from_onions(
    const std::vector<std::string>& onions) {
  dictionary_ = {};
  // One derivation per day in the window; the time-period function
  // shifts per-service, so every onion gets the same number of days.
  std::size_t days = 0;
  for (util::UnixTime t = config_.derive_from; t < config_.derive_to;
       t += util::kSecondsPerDay)
    ++days;
  const std::size_t per_onion = days * crypto::kNumReplicas;

  // The SHA-1 derivations per onion are independent: each task fills
  // its own slots of one flat array, tagging every id with the onion's
  // input index (the tie-break that reproduces last-writer-wins below).
  std::vector<DictionaryEntry> derived(onions.size() * per_onion);
  const auto derive_one = [&](std::size_t index) {
    const auto pid = crypto::parse_onion_address(onions[index]);
    // All of the service's periods go through the lane-batched
    // derivation in a single call (period-major, replica-minor).
    std::vector<std::uint32_t> periods;
    periods.reserve(days);
    for (util::UnixTime t = config_.derive_from; t < config_.derive_to;
         t += util::kSecondsPerDay)
      periods.push_back(crypto::time_period(t, pid));
    const std::vector<crypto::DescriptorId> ids =
        crypto::descriptor_ids_for_periods(pid, periods);
    const auto tag = static_cast<util::StringInterner::Id>(index);
    for (std::size_t k = 0; k < per_onion; ++k)
      derived[index * per_onion + k] = DictionaryEntry{ids[k], tag};
  };
  util::parallel_for(onions.size(), config_.threads, derive_one);

  // Bucket in place by the leading id byte (SHA-1 output is uniform):
  // one counting pass, then swap every entry into its bucket's range.
  std::array<std::size_t, kBuckets + 1> starts{};
  for (const DictionaryEntry& e : derived) ++starts[e.id[0] + 1u];
  for (std::size_t b = 0; b < kBuckets; ++b) starts[b + 1] += starts[b];
  std::array<std::size_t, kBuckets> next{};
  std::copy(starts.begin(), starts.end() - 1, next.begin());
  for (std::size_t b = 0; b < kBuckets; ++b) {
    while (next[b] < starts[b + 1]) {
      const std::size_t owner = derived[next[b]].id[0];
      if (owner == b)
        ++next[b];
      else
        std::swap(derived[next[b]], derived[next[owner]++]);
    }
  }
  // Then sort each bucket on its own: buckets are disjoint ranges and
  // (id, input index) is a total order — `onion` still holds the input
  // index here — so the result is the same for every thread count.
  const auto entry_less = [](const DictionaryEntry& a,
                             const DictionaryEntry& b) {
    const int c = std::memcmp(a.id.data(), b.id.data(), a.id.size());
    return c != 0 ? c < 0 : a.onion < b.onion;
  };
  const auto sort_bucket = [&](std::size_t bucket) {
    std::sort(derived.begin() + static_cast<std::ptrdiff_t>(starts[bucket]),
              derived.begin() + static_cast<std::ptrdiff_t>(starts[bucket + 1]),
              entry_less);
  };
  util::parallel_for(kBuckets, config_.threads, sort_bucket);

  // Keep the last entry of each equal-id run: the highest input index,
  // i.e. the last writer in input order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < derived.size(); ++i) {
    if (i + 1 < derived.size() && derived[i + 1].id == derived[i].id)
      continue;
    derived[kept++] = derived[i];
  }
  derived.resize(kept);

  // Interning happens here, serially and in input order — never in the
  // parallel derivation above (the interner's contract,
  // docs/data-layout.md).
  std::vector<util::StringInterner::Id> onion_ids(onions.size());
  for (std::size_t i = 0; i < onions.size(); ++i)
    onion_ids[i] = util::global_interner().intern(onions[i]);
  for (DictionaryEntry& e : derived) e.onion = onion_ids[e.onion];
  derived.shrink_to_fit();
  dictionary_ = std::move(derived);

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("resolver.onions_derived")
        .inc(static_cast<std::int64_t>(onions.size()));
    m.gauge("resolver.dictionary_size")
        .set(static_cast<std::int64_t>(dictionary_.size()));
  }
}

std::optional<std::string> DescriptorResolver::resolve_id(
    const crypto::DescriptorId& id) const {
  const auto it = std::lower_bound(
      dictionary_.begin(), dictionary_.end(), id,
      [](const DictionaryEntry& e, const crypto::DescriptorId& key) {
        return id_less(e.id, key);
      });
  if (it == dictionary_.end() || it->id != id) return std::nullopt;
  return std::string(util::global_interner().view(it->onion));
}

ResolutionReport DescriptorResolver::resolve(
    const RequestStream& stream) const {
  return resolve_internal(stream, nullptr);
}

ResolutionReport DescriptorResolver::resolve(
    const RequestStream& stream, const population::Population& pop) const {
  return resolve_internal(stream, &pop);
}

// The request-log join is the resolver's measured inner loop: one sort
// of the request ids, then a single merge walk of their runs against
// the sorted dictionary — no per-request probe. Everything
// allocator-visible (the scratch buffers, the ranking rows, label
// lookups) stays in resolve_internal.
// detlint: hot
std::size_t DescriptorResolver::tally_requests(
    std::span<crypto::DescriptorId> ids, std::span<OnionCount> onion_counts,
    ResolutionReport& report) const {
  std::sort(ids.begin(), ids.end(), id_less);
  std::size_t resolved = 0;
  std::size_t d = 0;
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t run_end = i + 1;
    while (run_end < ids.size() && ids[run_end] == ids[i]) ++run_end;
    const auto count = static_cast<std::int64_t>(run_end - i);
    ++report.unique_descriptor_ids;
    while (d < dictionary_.size() && id_less(dictionary_[d].id, ids[i])) ++d;
    if (d < dictionary_.size() && dictionary_[d].id == ids[i]) {
      ++report.resolved_descriptor_ids;
      report.resolved_requests += count;
      onion_counts[resolved++] = OnionCount{dictionary_[d].onion, count};
    }
    i = run_end;
  }

  // Fold the resolved runs into one count per onion.
  const auto used = onion_counts.first(resolved);
  std::sort(used.begin(), used.end(),
            [](const OnionCount& a, const OnionCount& b) {
              return a.onion < b.onion;
            });
  std::size_t onions = 0;
  for (const OnionCount& c : used) {
    if (onions > 0 && onion_counts[onions - 1].onion == c.onion)
      onion_counts[onions - 1].requests += c.requests;
    else
      onion_counts[onions++] = c;
  }
  return onions;
}

ResolutionReport DescriptorResolver::resolve_internal(
    const RequestStream& stream, const population::Population* pop) const {
  ResolutionReport report;
  report.total_requests = static_cast<std::int64_t>(stream.requests.size());

  std::vector<crypto::DescriptorId> ids;
  ids.reserve(stream.requests.size());
  for (const DescriptorRequest& req : stream.requests)
    ids.push_back(req.descriptor_id);
  // One slot per resolved id: never more than the requests, nor than
  // the dictionary. Left uninitialised, so the pages of the slots the
  // join never writes (nearly all of them) are never touched.
  const std::size_t slots =
      std::min(stream.requests.size(), dictionary_.size());
  const auto slot_buffer = std::make_unique_for_overwrite<OnionCount[]>(slots);
  const std::span<OnionCount> onion_counts(slot_buffer.get(), slots);
  const std::size_t onions = tally_requests(ids, onion_counts, report);
  report.resolved_onions = static_cast<std::int64_t>(onions);

  // Rows come in intern-id order, not lexicographic — harmless: the
  // sort below totally orders rows by (requests, onion).
  report.ranking.reserve(onions);
  for (const OnionCount& c : onion_counts.first(onions)) {
    const std::string_view onion = util::global_interner().view(c.onion);
    RankedService row;
    row.onion = std::string(onion);
    row.requests = c.requests;
    if (pop != nullptr) {
      if (const auto svc = pop->find(onion)) {
        row.label = std::string(svc->label());
        row.paper_alias = std::string(svc->paper_alias());
        row.paper_rank = svc->paper_rank();
      }
    }
    report.ranking.push_back(std::move(row));
  }
  std::sort(report.ranking.begin(), report.ranking.end(),
            [](const RankedService& a, const RankedService& b) {
              if (a.requests != b.requests) return a.requests > b.requests;
              return a.onion < b.onion;
            });
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("resolver.requests_seen").inc(report.total_requests);
    m.counter("resolver.requests_resolved").inc(report.resolved_requests);
    m.counter("resolver.ids_resolved").inc(report.resolved_descriptor_ids);
    m.counter("resolver.ids_unresolved")
        .inc(report.unique_descriptor_ids - report.resolved_descriptor_ids);
    obs::Histogram& per_onion = m.histogram(
        "resolver.requests_per_onion",
        {0, 1, 2, 5, 10, 25, 50, 100, 250, 1000});
    for (const RankedService& row : report.ranking)
      per_onion.observe(row.requests);
  }
  return report;
}

}  // namespace torsim::popularity
