#include "popularity/request_generator.hpp"

#include <algorithm>

namespace torsim::popularity {

RequestGenerator::RequestGenerator(RequestGeneratorConfig config)
    : config_(config) {
  if (config_.window_start == 0)
    config_.window_start = util::make_utc(2013, 2, 4, 10, 0, 0);
}

RequestStream RequestGenerator::generate(
    const population::Population& pop) const {
  util::Rng rng(config_.seed);
  RequestStream stream;
  const util::UnixTime t0 = config_.window_start;
  const double window_2h_units =
      static_cast<double>(config_.window_length) /
      static_cast<double>(2 * util::kSecondsPerHour);

  // --- Real requests: Poisson per requested service -----------------
  for (const population::Population::ServiceRef svc : pop.services()) {
    if (svc.requests_per_2h() <= 0.0) continue;
    const std::int64_t n =
        rng.poisson(svc.requests_per_2h() * window_2h_units);
    if (n == 0) continue;
    ++stream.real_ids;  // counts requested services; ids tallied below
    const auto permanent_id =
        crypto::permanent_id_from_fingerprint(svc.key().fingerprint());
    // Every derive_time below lies within a day of the window, so one
    // lane batch derives each period a request can name, instead of
    // two SHA-1s per request.
    const std::uint32_t first_period = crypto::time_period(
        std::max<util::UnixTime>(0, t0 - util::kSecondsPerDay),
        permanent_id);
    const std::uint32_t last_period = crypto::time_period(
        t0 + config_.window_length - 1 + util::kSecondsPerDay, permanent_id);
    std::vector<std::uint32_t> periods;
    for (std::uint32_t p = first_period; p <= last_period; ++p)
      periods.push_back(p);
    const std::vector<crypto::DescriptorId> window_ids =
        crypto::descriptor_ids_for_periods(permanent_id, periods);
    for (std::int64_t i = 0; i < n; ++i) {
      DescriptorRequest req;
      req.time = t0 + rng.uniform_int(0, config_.window_length - 1);
      // Clients ask a random replica; a few run with a skewed clock and
      // derive yesterday's/tomorrow's period (the paper resolved against
      // several days of derived IDs for exactly this reason).
      util::UnixTime derive_time = req.time;
      const double clock_roll = rng.uniform01();
      if (clock_roll < 0.01)
        derive_time -= util::kSecondsPerDay;
      else if (clock_roll < 0.02)
        derive_time += util::kSecondsPerDay;
      const auto replica = static_cast<std::uint8_t>(
          rng.uniform_int(0, crypto::kNumReplicas - 1));
      const std::uint32_t period =
          crypto::time_period(derive_time, permanent_id);
      req.descriptor_id = window_ids[static_cast<std::size_t>(
          (period - first_period) * crypto::kNumReplicas + replica)];
      stream.requests.push_back(req);
      ++stream.real_requests;
    }
  }

  // --- Phantom requests: never-published descriptor IDs --------------
  // Volume chosen so phantom/total ~= phantom_request_share.
  const double share = std::clamp(config_.phantom_request_share, 0.0, 0.999);
  const auto phantom_total = static_cast<std::int64_t>(
      static_cast<double>(stream.real_requests) * share / (1.0 - share));
  // Volume and ID count degrade together: a window with no phantom
  // traffic fabricates no phantom IDs either (a lone zero-request
  // phantom id would skew the Table II denominators at small --scale).
  const auto phantom_ids =
      phantom_total <= 0
          ? std::int64_t{0}
          : std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       static_cast<double>(stream.real_ids) *
                       config_.phantom_id_ratio));
  stream.phantom_ids = phantom_ids;

  // Phantom IDs: descriptor IDs of onion addresses that never existed
  // (random keys outside the population). Request volume per phantom id
  // is Zipf-ish: a few dead-but-famous services soak most of it.
  std::vector<crypto::DescriptorId> ids;
  ids.reserve(static_cast<std::size_t>(phantom_ids));
  for (std::int64_t i = 0; i < phantom_ids; ++i) {
    const auto key = crypto::KeyPair::generate(rng);
    const auto pid = crypto::permanent_id_from_fingerprint(key.fingerprint());
    ids.push_back(crypto::descriptor_id(
        pid, crypto::time_period(t0, pid),
        static_cast<std::uint8_t>(rng.uniform_int(0, 1))));
  }
  std::vector<double> weights(ids.size());
  double weight_total = 0.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
    weight_total += weights[i];
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto n = rng.poisson(static_cast<double>(phantom_total) *
                               weights[i] / weight_total);
    for (std::int64_t j = 0; j < n; ++j) {
      DescriptorRequest req;
      req.descriptor_id = ids[i];
      req.time = t0 + rng.uniform_int(0, config_.window_length - 1);
      stream.requests.push_back(req);
      ++stream.phantom_requests;
    }
  }

  std::sort(stream.requests.begin(), stream.requests.end(),
            [](const DescriptorRequest& a, const DescriptorRequest& b) {
              return a.time < b.time;
            });
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("requests.real").inc(stream.real_requests);
    m.counter("requests.phantom").inc(stream.phantom_requests);
    m.counter("requests.real_ids").inc(stream.real_ids);
    m.counter("requests.phantom_ids").inc(stream.phantom_ids);
  }
  return stream;
}

}  // namespace torsim::popularity
