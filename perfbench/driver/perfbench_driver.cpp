// perfbench_driver — the in-process half of the torsim end-to-end
// benchmark. perfbench/run.py launches the shipped binaries (torsim,
// torsimd) for the end-to-end numbers and calls this program for the
// jobs the binaries cannot do themselves:
//
//   serve-client    the benchmark's load generator: one connection to a
//                   running torsimd, a closed-loop capacity phase and an
//                   open-loop latency phase on a fixed schedule
//   trace-report    the paper pipeline, one timed call per stage
//   trace-scenario  a scenario pack through scenario::run_pack, plus the
//                   pack's world stepped hour by hour with a split timer
//   trace-serve     a torsimd-equivalent WorldSession, each request of
//                   the mix executed and timed in-process
//   spawn           runs one program and reports its wall time, CPU
//                   and peak RSS; run.py starts every program this way
//
// Every command prints one JSON object on stdout. The trace commands
// also write their spans (name, parent, start, end, CPU) to --spans.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "content/pipeline.hpp"
#include "fault/plan.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"
#include "population/population.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "scenario/engine.hpp"
#include "scenario/pack.hpp"
#include "serve/loadgen.hpp"
#include "serve/proto.hpp"
#include "serve/session.hpp"
#include "serve_common.hpp"
#include "sim/world.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

using namespace torsim;

std::int64_t mono_ns() {
  // CLOCK_MONOTONIC, the clock Python's time.monotonic_ns() reads, so
  // run.py can subtract its own launch timestamps from ours.
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return cpu_seconds(ru);
}

/// The process's peak RSS so far (VmHWM of /proc/self/status), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// --- spans ---------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// In-memory span recorder around the calls into each layer; spans are
/// written out once, when the command ends.
class Tracer {
 public:
  int open(const std::string& name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = mono_ns();
    span.cpu_s = process_cpu_s();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = mono_ns();
    span.cpu_s = process_cpu_s() - span.cpu_s;
    stack_.pop_back();
  }

  /// Runs `f` inside span `name` and returns its result.
  template <class F>
  auto call(const std::string& name, F&& f) {
    const int id = open(name);
    auto result = f();
    close(id);
    return result;
  }

  const Span& get(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  const Span& find(const std::string& name) const {
    for (const Span& span : spans_)
      if (span.name == name) return span;
    throw std::logic_error("no span " + name);
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"cpu_s\": " << s.cpu_s << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- arguments -----------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc)
        throw std::invalid_argument("expected --key value, got " + key);
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  std::string str_or(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::int64_t i64(const std::string& key) const { return std::stoll(str(key)); }
  int i32(const std::string& key) const { return std::stoi(str(key)); }
  std::uint64_t u64(const std::string& key) const { return std::stoull(str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

/// Flat {"name": number} JSON object, printed on one line.
class JsonLine {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.15g", value);
    fields_.emplace_back(key, buf);
  }
  void print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- trace-report --------------------------------------------------

/// The stages of `torsim report`, called as that command calls them.
int trace_report(const Args& args) {
  const std::uint64_t seed = args.u64("seed");
  const int threads = args.i32("threads");
  Tracer tracer;
  JsonLine json;

  const int total = tracer.open("report");
  auto pop = tracer.call("population.generate", [&] {
    population::PopulationConfig config;
    config.seed = seed;
    config.scale = 1.0;
    return std::make_unique<population::Population>(
        population::Population::generate(config));
  });
  auto scan_report = tracer.call("scan.scan", [&] {
    scan::PortScanner scanner(scan::ScanConfig{.threads = threads});
    return std::make_unique<scan::ScanReport>(scanner.scan(*pop));
  });
  auto certs = tracer.call("scan.certs", [&] {
    return std::make_unique<scan::CertReport>(
        scan::analyse_certificates(*pop, *scan_report));
  });
  auto crawl = tracer.call("scan.crawl", [&] {
    scan::Crawler crawler(scan::CrawlConfig{.revisit_attempts = 1});
    return std::make_unique<scan::CrawlReport>(crawler.crawl(*pop, *scan_report));
  });
  auto classifier = tracer.call("content.train", [&] {
    util::Rng rng(seed + 2);
    return std::make_unique<content::TopicClassifier>(
        content::TopicClassifier::make_default(rng));
  });
  auto content_report = tracer.call("content.classify", [&] {
    content::ContentPipeline pipeline(*classifier,
                                      content::LanguageDetector::instance(),
                                      {.threads = threads});
    return std::make_unique<content::PipelineResult>(pipeline.run(crawl->pages));
  });
  auto stream = tracer.call("popularity.requests", [&] {
    popularity::RequestGenerator generator(
        popularity::RequestGeneratorConfig{.seed = seed + 3});
    return std::make_unique<popularity::RequestStream>(generator.generate(*pop));
  });
  auto resolver = tracer.call("popularity.dictionary", [&] {
    auto r = std::make_unique<popularity::DescriptorResolver>(
        popularity::ResolverConfig{.threads = threads});
    r->build_dictionary(*pop);
    return r;
  });
  // Peak RSS so far; every earlier stage peaks lower, so this is the
  // dictionary stage's peak.
  const double dictionary_rss_mb = peak_rss_mb();
  auto resolution = tracer.call("popularity.resolve", [&] {
    return std::make_unique<popularity::ResolutionReport>(
        resolver->resolve(*stream, *pop));
  });

  json.add("population.services", static_cast<double>(pop->size()));
  json.add("crawl.pages", static_cast<double>(crawl->pages.size()));
  json.add("content.classified", static_cast<double>(content_report->classified));
  json.add("requests.total", static_cast<double>(stream->requests.size()));
  json.add("resolver.dictionary_size",
           static_cast<double>(resolver->dictionary_size()));
  json.add("resolver.unique_ids",
           static_cast<double>(resolution->unique_descriptor_ids));

  const int teardown = tracer.open("teardown");
  resolution.reset();
  resolver.reset();
  stream.reset();
  content_report.reset();
  classifier.reset();
  crawl.reset();
  certs.reset();
  scan_report.reset();
  pop.reset();
  tracer.close(teardown);
  tracer.close(total);

  for (const char* stage :
       {"population.generate", "scan.scan", "scan.certs", "scan.crawl",
        "content.train", "content.classify", "popularity.requests",
        "popularity.dictionary", "popularity.resolve", "teardown"})
    json.add(std::string(stage) + "_s", tracer.find(stage).seconds());
  json.add("content.classify_cpu_s", tracer.find("content.classify").cpu_s);
  json.add("popularity.dictionary_cpu_s",
           tracer.find("popularity.dictionary").cpu_s);
  json.add("popularity.dictionary_rss_mb", dictionary_rss_mb);
  json.add("report.total_s", tracer.get(total).seconds());
  tracer.write(args.str_or("spans", ""));
  json.print();
  return 0;
}

// --- trace-scenario ------------------------------------------------

int trace_scenario(const Args& args) {
  const scenario::ScenarioPack pack =
      scenario::load_pack_file(args.str("pack"));
  const int threads = args.i32("threads");
  Tracer tracer;
  JsonLine json;

  // The engine run itself, with the deterministic metrics sink on; its
  // timeline must match the untraced CLI run byte for byte.
  obs::MetricsRegistry metrics;
  const int run = tracer.open("scenario.run");
  scenario::ScenarioRunConfig rc;
  rc.threads = threads;
  rc.metrics = &metrics;
  const scenario::ScenarioRunReport report = scenario::run_pack(pack, rc);
  tracer.close(run);
  {
    util::CsvWriter csv(args.str("csv"));
    report.write_timeline(csv);
  }
  for (const char* name : {"sim.consensus_rebuilds", "hsdir.publishes",
                           "hsdir.replica_stores", "scenario.flash_fetches_ok"})
    json.add(name, static_cast<double>(metrics.counter(name).value()));

  // run_pack owns its World, so the hour split is taken on the pack's
  // world stepped without its events: same seed, start, relays,
  // services and threads as the engine builds.
  sim::WorldConfig wc;
  wc.seed = pack.seed;
  wc.start = pack.start;
  wc.honest_relays = pack.relays;
  wc.threads = threads;
  if (!pack.fault_spec.empty()) wc.faults = fault::FaultPlan::parse(pack.fault_spec);
  wc.record_archive = false;
  auto world = tracer.call("sim.bootstrap", [&] {
    auto w = std::make_unique<sim::World>(wc);
    for (int i = 0; i < pack.services; ++i) w->add_service();
    return w;
  });
  std::int64_t hook_ns = 0;
  world->set_post_consensus_hook([&hook_ns](sim::World&) { hook_ns = mono_ns(); });
  double consensus_s = 0.0;
  double publish_s = 0.0;
  const int steps = tracer.open("sim.steps");
  for (int hour = 0; hour < pack.horizon_hours; ++hour) {
    const std::int64_t start = mono_ns();
    hook_ns = start;
    world->step_hour();
    const std::int64_t end = mono_ns();
    consensus_s += static_cast<double>(hook_ns - start) / 1e9;
    publish_s += static_cast<double>(end - hook_ns) / 1e9;
  }
  tracer.close(steps);
  const int teardown = tracer.open("sim.teardown");
  world.reset();
  tracer.close(teardown);

  json.add("scenario.run_s", tracer.get(run).seconds());
  json.add("sim.bootstrap_s", tracer.find("sim.bootstrap").seconds());
  json.add("sim.consensus_ms", 1000.0 * consensus_s / pack.horizon_hours);
  json.add("sim.publish_ms", 1000.0 * publish_s / pack.horizon_hours);
  tracer.write(args.str_or("spans", ""));
  json.print();
  return 0;
}

// --- trace-serve ---------------------------------------------------

tools::ServeParams serve_params(const Args& args) {
  tools::ServeParams params;
  params.scale = 1.0;
  params.seed = args.u64("seed");
  params.services = args.i32("services");
  params.warmup_hours = args.i32("hours");
  params.threads = args.i32("threads");
  return params;
}

int trace_serve(const Args& args) {
  const tools::ServeParams params = serve_params(args);
  const int requests = args.i32("requests");
  const int batch = args.i32("batch");
  Tracer tracer;
  JsonLine json;

  auto session = tracer.call("session.build", [&] {
    return std::make_unique<serve::WorldSession>(
        tools::make_session_config(params, nullptr));
  });
  const std::vector<serve::Request> mix = serve::default_request_mix(
      params.seed, requests, static_cast<std::uint64_t>(params.services), 1);

  std::map<serve::QueryKind, std::vector<double>> exec_us;
  const int execute = tracer.open("session.execute");
  for (const serve::Request& request : mix) {
    const std::int64_t start = mono_ns();
    const serve::Response response = session->execute(request);
    exec_us[request.kind].push_back(static_cast<double>(mono_ns() - start) / 1e3);
    if (response.status != serve::Status::kOk)
      throw std::runtime_error("trace-serve: request " +
                               std::to_string(request.id) + " failed");
  }
  tracer.close(execute);

  double weighted_us = 0.0;
  for (const auto& [kind, times] : exec_us) {
    json.add("session.exec_us." + std::string(serve::query_kind_name(kind)),
             percentile(times, 0.5));
    weighted_us += percentile(times, 0.5) * static_cast<double>(times.size()) /
                   static_cast<double>(mix.size());
  }
  json.add("session.exec_us.weighted", weighted_us);

  std::vector<double> batch_ms;
  const int batches = tracer.open("session.execute_batch");
  for (std::size_t first = 0; first + static_cast<std::size_t>(batch) <= mix.size();
       first += static_cast<std::size_t>(batch)) {
    const std::vector<serve::Request> slice(
        mix.begin() + static_cast<long>(first),
        mix.begin() + static_cast<long>(first) + batch);
    const std::int64_t start = mono_ns();
    const std::vector<serve::Response> responses = session->execute_batch(slice);
    batch_ms.push_back(static_cast<double>(mono_ns() - start) / 1e6);
  }
  tracer.close(batches);
  json.add("session.batch_ms", percentile(batch_ms, 0.5));
  tracer.write(args.str_or("spans", ""));
  json.print();
  return 0;
}

// --- spawn ---------------------------------------------------------

volatile sig_atomic_t g_spawned = 0;

extern "C" void kill_spawned(int) {
  if (g_spawned > 0) ::kill(static_cast<pid_t>(g_spawned), SIGKILL);
}

/// perfbench_driver spawn --timeout-s T --stdout FILE --stderr FILE -- PROGRAM ARGS...
///
/// Linux starts a child's peak-RSS count at the size of the process it
/// forks from, and run.py grows large while it compares serve answers;
/// forking here, from a small process, keeps ru_maxrss the program's
/// own. SIGTERM or the timeout kills the program, which is then reaped.
int spawn(int argc, char** argv) {
  int sep = 2;
  while (sep < argc && std::strcmp(argv[sep], "--") != 0) ++sep;
  if (sep + 1 >= argc) throw std::invalid_argument("spawn needs -- PROGRAM [ARGS...]");
  const Args args(sep, argv);
  const int out = ::open(args.str("stdout").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err = ::open(args.str("stderr").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0 || err < 0) throw std::runtime_error("spawn: cannot open output files");

  struct sigaction action {};
  action.sa_handler = kill_spawned;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGALRM, &action, nullptr);
  // A killed run.py takes its launchers, and so their programs, along.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  sigset_t block, old;
  sigemptyset(&block);
  sigaddset(&block, SIGTERM);
  sigaddset(&block, SIGALRM);
  sigprocmask(SIG_BLOCK, &block, &old);  // until g_spawned is set
  const pid_t parent = ::getpid();
  const std::int64_t start_ns = mono_ns();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("spawn: fork failed");
  if (pid == 0) {
    // Dies with this process, so no program outlives a killed spawn.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    sigprocmask(SIG_SETMASK, &old, nullptr);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::execvp(argv[sep + 1], argv + sep + 1);
    ::_exit(127);
  }
  g_spawned = pid;
  ::alarm(static_cast<unsigned>(args.i32("timeout-s")));
  sigprocmask(SIG_SETMASK, &old, nullptr);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0)
    if (errno != EINTR) throw std::runtime_error("spawn: wait4 failed");
  const std::int64_t end_ns = mono_ns();
  ::alarm(0);

  JsonLine json;
  json.add("start_ns", static_cast<double>(start_ns));
  json.add("wall_s", static_cast<double>(end_ns - start_ns) / 1e9);
  json.add("cpu_s", cpu_seconds(usage));
  json.add("rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  json.add("rc", WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status));
  json.print();
  return 0;
}

// --- serve-client --------------------------------------------------

/// One non-blocking connection: a send buffer and a frame reader.
class Connection {
 public:
  Connection(const std::string& path, std::int64_t deadline_ns) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
      throw std::invalid_argument("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The daemon binds once its world is built; until then connect
    // fails and is retried.
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
        return;
      ::close(fd_);
      fd_ = -1;
      if (mono_ns() > deadline_ns)
        throw std::runtime_error("cannot connect to " + path);
      ::usleep(200);
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void queue(const serve::Request& request) {
    out_ += serve::encode_frame(serve::render_request(request));
  }

  /// Waits up to `timeout_ns` for the socket, writes what it can and
  /// reads what has arrived; parsed responses are appended to `in`.
  void pump(std::int64_t timeout_ns, std::vector<serve::Response>& in) {
    if (closed_) throw std::runtime_error("daemon closed the connection");
    flush();
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
    const std::int64_t wait = std::max<std::int64_t>(timeout_ns, 0);
    const timespec ts{static_cast<time_t>(wait / 1000000000),
                      static_cast<long>(wait % 1000000000)};
    if (::ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR)
      throw std::runtime_error("ppoll failed");
    flush();
    char buf[65536];
    std::string body;
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        // Drained per read: FrameReader pops frames from the front of a
        // vector, so letting many pile up costs quadratic time.
        reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        while (reader_.next_frame(body)) in.push_back(serve::parse_response(body));
        continue;
      }
      if (n == 0) {
        // Frames that arrived before the close (a shutdown
        // acknowledgement) are still delivered.
        closed_ = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      throw std::runtime_error("recv failed");
    }
  }

 private:
  void flush() {
    while (sent_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("send failed");
    }
    out_.clear();
    sent_ = 0;
  }

  int fd_ = -1;
  std::string out_;
  std::size_t sent_ = 0;
  bool closed_ = false;
  serve::FrameReader reader_;
};

/// Waits for the response to one control request (stats, shutdown).
serve::Response call(Connection& conn, const serve::Request& request,
                     std::int64_t deadline_ns) {
  conn.queue(request);
  std::vector<serve::Response> in;
  while (mono_ns() < deadline_ns) {
    conn.pump(1000000, in);
    for (const serve::Response& response : in)
      if (response.id == request.id) return response;
    in.clear();
  }
  throw std::runtime_error("no answer to control request");
}

int serve_client(const Args& args) {
  const std::uint64_t seed = args.u64("seed");
  const int services = args.i32("services");
  const int capacity_n = args.i32("capacity");
  const int latency_n = args.i32("latency");
  const double rate = std::stod(args.str("rate"));
  const int inflight = args.i32("inflight");
  const std::int64_t timeout_ns = args.i64("timeout-s") * 1000000000;
  const std::vector<serve::Request> mix = serve::default_request_mix(
      seed, capacity_n + latency_n, static_cast<std::uint64_t>(services), 1);
  const std::size_t n = mix.size();
  std::vector<serve::Response> responses(n);
  std::vector<bool> answered(n, false);
  JsonLine json;

  Connection conn(args.str("socket"), mono_ns() + timeout_ns);
  serve::Request control;
  control.id = n + 1;
  control.kind = serve::QueryKind::kStats;
  const serve::Response stats = call(conn, control, mono_ns() + timeout_ns);
  json.add("stats_answered_ns", static_cast<double>(mono_ns()));
  json.add("stats_ok", stats.status == serve::Status::kOk ? 1 : 0);

  std::vector<serve::Response> in;
  const auto take = [&](std::size_t& outstanding, auto&& on_answer) {
    for (serve::Response& response : in) {
      if (response.id < 1 || response.id > n || answered[response.id - 1])
        throw std::runtime_error("unexpected response id " +
                                 std::to_string(response.id));
      const std::size_t i = response.id - 1;
      answered[i] = true;
      responses[i] = std::move(response);
      --outstanding;
      on_answer(i);
    }
    in.clear();
  };

  // Capacity: closed loop, `inflight` requests outstanding at all times.
  std::size_t next = 0;
  std::size_t outstanding = 0;
  const auto cap_end = static_cast<std::size_t>(capacity_n);
  const std::int64_t cap_start = mono_ns();
  std::int64_t deadline = cap_start + timeout_ns;
  while (next < cap_end && outstanding < static_cast<std::size_t>(inflight)) {
    conn.queue(mix[next++]);
    ++outstanding;
  }
  while (outstanding > 0 && mono_ns() < deadline) {
    conn.pump(deadline - mono_ns(), in);
    take(outstanding, [&](std::size_t) {
      if (next < cap_end) {
        conn.queue(mix[next++]);
        ++outstanding;
      }
    });
  }
  const double cap_seconds = static_cast<double>(mono_ns() - cap_start) / 1e9;
  json.add("capacity_rps", static_cast<double>(capacity_n) / cap_seconds);

  // Latency: open loop, request k due at start + k / rate, timed from
  // its due time whether or not the generator sent it on time.
  const std::int64_t lat_start = mono_ns() + 1000000;
  const auto due = [&](std::size_t k) {
    return lat_start + static_cast<std::int64_t>(static_cast<double>(k - cap_end) *
                                                 1e9 / rate);
  };
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  latency_ms.reserve(static_cast<std::size_t>(latency_n));
  lag_ms.reserve(static_cast<std::size_t>(latency_n));
  std::size_t inflight_max = 0;
  deadline = lat_start + static_cast<std::int64_t>(latency_n / rate * 1e9) + timeout_ns;
  while ((next < n || outstanding > 0) && mono_ns() < deadline) {
    std::int64_t now = mono_ns();
    while (next < n && due(next) <= now) {
      lag_ms.push_back(static_cast<double>(now - due(next)) / 1e6);
      conn.queue(mix[next++]);
      ++outstanding;
    }
    inflight_max = std::max(inflight_max, outstanding);
    now = mono_ns();
    const std::int64_t wait = next < n ? due(next) - now : deadline - now;
    conn.pump(wait, in);
    const std::int64_t arrived = mono_ns();
    take(outstanding, [&](std::size_t i) {
      latency_ms.push_back(static_cast<double>(arrived - due(i)) / 1e6);
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (answered[i]) continue;
    responses[i].status = serve::Status::kError;
    responses[i].error = "no answer before the deadline";
  }

  control.id = n + 2;
  control.kind = serve::QueryKind::kShutdown;
  call(conn, control, mono_ns() + timeout_ns);

  {
    util::CsvWriter csv(args.str("csv"));
    tools::write_result_csv(csv, mix, responses);
  }
  json.add("p50_ms", percentile(latency_ms, 0.50));
  json.add("p99_ms", percentile(latency_ms, 0.99));
  json.add("lag_p99_ms", percentile(lag_ms, 0.99));
  json.add("inflight_max", static_cast<double>(inflight_max));
  json.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver spawn|serve-client|trace-report|"
                 "trace-scenario|trace-serve --key value ...\n");
    return 2;
  }
  try {
    const std::string command = argv[1];
    if (command == "spawn") return spawn(argc, argv);
    const Args args(argc, argv);
    if (command == "serve-client") return serve_client(args);
    if (command == "trace-report") return trace_report(args);
    if (command == "trace-scenario") return trace_scenario(args);
    if (command == "trace-serve") return trace_serve(args);
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
