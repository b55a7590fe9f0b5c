// The serve equivalence gate (`ctest -L serve`): the same request mix
// answered through the full daemon path — unix socket, framing,
// admission control, batching — must be byte-identical to the serial
// in-process reference, across thread counts, admission pressure, and
// connection chaos. The default mix is also
// pinned to committed goldens under tests/testdata/serve/; regenerate
// deliberately with TORSIM_SERVE_REGEN=1 (docs/serving.md).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "serve/loadgen.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "temp_dir.hpp"

namespace {

using namespace torsim;
using serve::LoadConfig;
using serve::LoadResult;
using serve::Request;
using serve::Response;
using serve::ServerConfig;
using serve::SessionConfig;
using serve::Status;
using serve::WorldSession;

const std::string kGoldenDir = TORSIM_SERVE_TESTDATA_DIR;

SessionConfig toy_config(int threads, obs::MetricsRegistry* metrics) {
  SessionConfig config;
  config.world.seed = 20130204;
  config.world.honest_relays = 60;
  config.world.metrics = metrics;
  config.services = 6;
  config.warmup_hours = 2;
  config.threads = threads;
  config.metrics = metrics;
  return config;
}

/// The canonical mix the gate pins: 24 requests over 6 services from 3
/// clients, seeded with the repo-wide default seed.
std::vector<Request> canonical_mix() {
  return serve::default_request_mix(20130204, 24, 6, 3);
}

std::string render_all(const std::vector<Response>& responses) {
  std::string out;
  for (const Response& response : responses)
    out += serve::render_response(response);
  return out;
}

struct RunBytes {
  std::string responses;
  std::string metrics_json;
};

/// Serial in-process reference: one request at a time against a fresh
/// warmed session.
RunBytes run_direct(const std::vector<Request>& mix, int threads) {
  obs::MetricsRegistry metrics;
  WorldSession session(toy_config(threads, &metrics));
  std::vector<Response> responses;
  responses.reserve(mix.size());
  for (const Request& request : mix)
    responses.push_back(session.execute(request));
  return {render_all(responses), metrics.to_json()};
}

/// Full daemon path: server on a unix socket in a background thread,
/// loadgen as the client fleet, shutdown request to end the loop.
RunBytes run_via_socket(const std::string& tag, int session_threads,
                        ServerConfig edge, LoadConfig load) {
  obs::MetricsRegistry metrics;
  WorldSession session(toy_config(session_threads, &metrics));
  const test_support::TempDir dir;  // outlives the server
  edge.socket_path = dir.file(tag + ".sock");
  serve::Server server(session, edge);
  server.start();
  std::thread loop([&] { server.run(); });
  load.socket_path = edge.socket_path;
  load.shutdown = true;  // ends the daemon loop after the run
  LoadResult result;
  try {
    result = serve::run_load(load);
  } catch (...) {
    server.stop();
    loop.join();
    throw;
  }
  loop.join();
  return {render_all(result.responses), metrics.to_json()};
}

/// The serial reference for a socket run must execute the identical
/// request stream, including the trailing shutdown request loadgen
/// appends.
std::vector<Request> with_shutdown(std::vector<Request> mix) {
  Request request;
  request.id = mix.size() + 1;
  request.kind = serve::QueryKind::kShutdown;
  mix.push_back(request);
  return mix;
}

void check_or_regen(const std::string& name, const std::string& actual) {
  const std::string path = kGoldenDir + "/" + name;
  if (std::getenv("TORSIM_SERVE_REGEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — regenerate with TORSIM_SERVE_REGEN=1 "
                            "(docs/serving.md)";
  const std::string expected{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  EXPECT_EQ(actual, expected) << "golden " << name << " diverged";
}

// "AndCache" in the name is historical: the memo caches it also
// toggled are gone; the name stays so the test's history lines up.
TEST(ServeEquivalence, DefaultMixMatchesGoldenAcrossThreadsAndCache) {
  const std::vector<Request> mix = canonical_mix();
  bool first = true;
  for (const int threads : {1, 4, 8}) {
    const RunBytes bytes = run_direct(mix, threads);
    if (first) {
      check_or_regen("default_mix.responses.txt", bytes.responses);
      check_or_regen("default_mix.metrics.json", bytes.metrics_json);
      first = false;
    } else {
      // Later thread counts are compared in-process (one golden on
      // disk, every configuration pinned to it).
      const RunBytes reference = run_direct(mix, 1);
      EXPECT_EQ(bytes.responses, reference.responses)
          << "threads=" << threads;
      EXPECT_EQ(bytes.metrics_json, reference.metrics_json)
          << "threads=" << threads;
    }
  }
}

TEST(ServeEquivalence, SocketClosedLoopMatchesSerialReference) {
  const std::vector<Request> mix = canonical_mix();
  const RunBytes reference = run_direct(with_shutdown(mix), 1);
  for (const int threads : {1, 4, 8}) {
    LoadConfig load;
    load.clients = 3;
    load.requests = 24;
    load.services = 6;
    load.seed = 20130204;
    const RunBytes bytes =
        run_via_socket("closed_t" + std::to_string(threads), threads,
                       ServerConfig{}, load);
    EXPECT_EQ(bytes.responses, reference.responses)
        << "threads=" << threads;
    EXPECT_EQ(bytes.metrics_json, reference.metrics_json)
        << "threads=" << threads;
  }
}

TEST(ServeEquivalence, SocketOpenLoopMatchesSerialReference) {
  const std::vector<Request> mix = canonical_mix();
  const RunBytes reference = run_direct(with_shutdown(mix), 1);
  LoadConfig load;
  load.clients = 3;
  load.requests = 24;
  load.services = 6;
  load.seed = 20130204;
  load.open_loop = true;
  const RunBytes bytes =
      run_via_socket("open", 4, ServerConfig{}, load);
  EXPECT_EQ(bytes.responses, reference.responses);
  EXPECT_EQ(bytes.metrics_json, reference.metrics_json);
}

TEST(ServeEquivalence, AdmissionPressureStaysByteIdentical) {
  // A one-request batch ceiling and a two-slot queue force retry-after
  // rejections under six concurrent clients; the retry loop must make
  // the final answers indistinguishable from the unpressured run.
  const std::vector<Request> mix = canonical_mix();
  const RunBytes reference = run_direct(with_shutdown(mix), 1);
  ServerConfig edge;
  edge.max_batch = 1;
  edge.queue_capacity = 2;
  LoadConfig load;
  load.clients = 6;
  load.requests = 24;
  load.services = 6;
  load.seed = 20130204;
  const RunBytes bytes = run_via_socket("pressure", 2, edge, load);
  EXPECT_EQ(bytes.responses, reference.responses);
  EXPECT_EQ(bytes.metrics_json, reference.metrics_json);
}

TEST(ServeEquivalence, DropAndDelayChaosStaysByteIdentical) {
  // Dropped connections and held-back responses only cost retries and
  // reconnects; the answers (and the deterministic session metrics)
  // must not move.
  const std::vector<Request> mix = canonical_mix();
  const RunBytes reference = run_direct(with_shutdown(mix), 1);
  ServerConfig edge;
  edge.chaos = fault::FaultPlan::parse("drop=0.3,timeout=0.3");
  LoadConfig load;
  load.clients = 4;
  load.requests = 24;
  load.services = 6;
  load.seed = 20130204;
  const RunBytes bytes = run_via_socket("chaos_drop", 4, edge, load);
  EXPECT_EQ(bytes.responses, reference.responses);
  EXPECT_EQ(bytes.metrics_json, reference.metrics_json);
}

TEST(ServeEquivalence, CorruptionChaosNeverHangsOrDropsRequests) {
  // Garbled response bytes make clients tear down and replay; a short
  // receive timeout keeps mismatched-id waits cheap. Payload equality
  // is NOT asserted — an unlucky flip can land inside a data line and
  // parse fine (the protocol carries no checksum; docs/serving.md) —
  // but every request must still get a response with its own id.
  ServerConfig edge;
  edge.chaos = fault::FaultPlan::parse("corrupt=0.4");
  LoadConfig load;
  load.clients = 3;
  load.requests = 12;
  load.services = 6;
  load.seed = 20130204;
  load.timeout_millis = 500;
  obs::MetricsRegistry metrics;
  WorldSession session(toy_config(2, &metrics));
  const test_support::TempDir dir;  // outlives the server
  edge.socket_path = dir.file("corrupt.sock");
  serve::Server server(session, edge);
  server.start();
  std::thread loop([&] { server.run(); });
  load.socket_path = edge.socket_path;
  // No shutdown request here: a garbled shutdown acknowledgement would
  // strand the client retrying against an already-exited daemon. The
  // test stops the loop explicitly instead.
  const LoadResult result = serve::run_load(load);
  server.stop();
  loop.join();
  ASSERT_EQ(result.responses.size(), result.requests.size());
  for (std::size_t i = 0; i < result.requests.size(); ++i)
    EXPECT_EQ(result.responses[i].id, result.requests[i].id) << i;
}

}  // namespace
