#!/usr/bin/env python3
"""End-to-end benchmark of torsim.

Three workloads, the paper report, a month-long scenario and torsimd
read traffic, plus a traced run that times each layer in-process:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

    WORKLOAD: report_paper, scenario_month or serve_reads

Run it from the repository root. It builds torsim, torsimd and the
in-process driver under .bench_build/, works in a fresh directory under
.bench_work/, prints every metric by name and unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 when every output check passed, 1 when one failed and 2 when the
benchmark could not run. perfbench/README.md explains the workloads
and metrics.
"""
import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")

# No workload uses more threads than the 4 cores of the reference machine.
THREADS = 4
# torsimd's batch fan-out; with the one-thread generator, three threads in all.
SERVE_THREADS = 2
PAPER_SERVICES = 39824
CAPACITY_REQUESTS = 50000
LATENCY_REQUESTS = 40000
LATENCY_RATE = 20000
# Requests in flight in the capacity phase, below the queue cap.
INFLIGHT = 256
# torsimd's admission queue. At the default 1,024 a 50 ms stall of the
# generator or of the host, then a burst of overdue requests, overflowed
# it in one session in about 150 here; 4,096 absorbs 200 ms at 20,000
# req/s, so stalls show as latency and rejects stay real failures.
QUEUE_CAP = 4096
# The batch set-up commands and the month replays are serial, and on a
# shared VM each core's speed drifts on its own; running one child per
# core and taking the median over all of them averages that drift out.
SIDE_BY_SIDE = THREADS
SETUP_ROUNDS = 2
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150
CLIENT_TIMEOUT_S = 30

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "capacity_rps": "1/s",
    "p50_ms": "ms",
}

REPORT_LAYER = {
    "population.generate_s": "s", "scan.scan_s": "s", "scan.certs_s": "s",
    "scan.crawl_s": "s", "content.train_s": "s", "content.classify_s": "s",
    "content.classify_cpu_s": "s", "popularity.requests_s": "s",
    "popularity.dictionary_s": "s", "popularity.dictionary_cpu_s": "s",
    "popularity.dictionary_rss_mb": "MB", "popularity.resolve_s": "s",
    "teardown_s": "s",
    "population.services": "count", "crawl.pages": "count",
    "content.classified": "count", "requests.total": "count",
    "resolver.dictionary_size": "count", "resolver.unique_ids": "count",
}
SCENARIO_LAYER = {
    "sim.bootstrap_s": "s", "sim.consensus_ms": "ms", "sim.publish_ms": "ms",
    "sim.consensus_rebuilds": "count", "hsdir.publishes": "count",
    "hsdir.replica_stores": "count", "scenario.flash_fetches_ok": "count",
}
SERVE_LAYER = {
    "session.exec_us.stats": "us", "session.exec_us.harvest": "us",
    "session.exec_us.resolve": "us", "session.exec_us.scan": "us",
    "session.exec_us.popularity": "us", "session.batch_ms": "ms",
    "edge.overhead_us": "us", "edge.batch_size_mean": "count",
    "edge.inflight_max": "count", "edge.admission_rejects": "count",
    "serve.p99_ms": "ms", "generator.lag_ms": "ms",
}
WORKLOADS = ("report_paper", "scenario_month", "serve_reads")
LAYER_UNITS = {**REPORT_LAYER, **SCENARIO_LAYER, **SERVE_LAYER,
               **{f"trace.overhead.{w}": "ratio" for w in WORKLOADS}}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


# --- child processes -------------------------------------------------

_live = []


class Child:
    """One program, started through the driver's `spawn` command, which
    reports the program's own wall time, CPU and peak RSS."""

    launcher = None  # the driver binary, set once it is built

    def __init__(self, argv, cwd, stdout_name):
        self.argv = argv
        self.stdout_path = os.path.join(cwd, stdout_name)
        self.stderr_path = self.stdout_path + ".err"
        self.proc = subprocess.Popen(
            [Child.launcher, "spawn", "--timeout-s", str(CHILD_TIMEOUT_S),
             "--stdout", self.stdout_path, "--stderr", self.stderr_path, "--"] + argv,
            cwd=cwd, stdout=subprocess.PIPE)
        _live.append(self)

    def kill(self):
        """Makes the launcher kill the program; wait() still reaps it."""
        if self.proc.poll() is None:
            self.proc.terminate()

    def wait(self):
        try:
            report, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S + 30)
        except subprocess.TimeoutExpired:
            self.proc.kill()  # the program dies with its launcher
            self.proc.communicate()
            raise BenchError(f"launcher hung running {self.argv[0]}")
        finally:
            if self.proc.returncode is not None:
                _live.remove(self)
        if self.proc.returncode != 0:
            raise BenchError(f"launcher failed running {self.argv[0]}")
        stats = json.loads(report)
        self.start_ns = stats["start_ns"]
        self.wall_s = stats["wall_s"]
        self.cpu_s = stats["cpu_s"]
        self.rss_mb = stats["rss_mb"]
        self.rc = stats["rc"]
        return self

    def stdout(self):
        with open(self.stdout_path, "r", encoding="utf-8", errors="replace") as f:
            return f.read()

    def failure(self):
        """A problem line when the program failed, else None."""
        if self.rc == 0:
            return None
        with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as f:
            tail = f.read().strip().splitlines()[-1:] or [""]
        return f"{os.path.basename(self.argv[0])} {' '.join(self.argv[1:3])}: exit {self.rc} {tail[0]}"


def run(argv, cwd, stdout_name):
    return Child(argv, cwd, stdout_name).wait()


def run_side_by_side(argvs, cwd, stem):
    """Runs one program per argv at the same time, each on its own core."""
    children = [Child(argv, cwd, f"{stem}{j}.out") for j, argv in enumerate(argvs)]
    return [child.wait() for child in children]


def stop_children():
    for child in list(_live):
        child.kill()
        try:
            child.wait()
        except BenchError:
            pass


# --- build -----------------------------------------------------------

def build():
    """Builds torsim and torsimd from the checkout, then the driver."""
    tree = os.path.join(BUILD, "torsim")
    driver_tree = os.path.join(BUILD, "driver")
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", tree, "-DCMAKE_BUILD_TYPE=Release",
                      "-DTORSIM_WERROR=OFF"])
    steps.append(["cmake", "--build", tree, "-j", str(THREADS),
                  "--target", "torsim_cli", "torsimd_cli"])
    if not os.path.exists(os.path.join(driver_tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(HERE, "driver"), "-B", driver_tree,
                      "-DCMAKE_BUILD_TYPE=Release", f"-DTORSIM_ROOT={ROOT}",
                      f"-DTORSIM_BUILD={tree}"])
    steps.append(["cmake", "--build", driver_tree, "-j", str(THREADS)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")
    return {
        "torsim": os.path.join(tree, "tools", "torsim"),
        "torsimd": os.path.join(tree, "tools", "torsimd"),
        "driver": os.path.join(driver_tree, "perfbench_driver"),
    }


# --- results ---------------------------------------------------------

class Outcome:
    """Operations attempted, the problems found, and timing samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}

    def op(self, problems):
        """Counts one operation; it failed when it has problems."""
        problems = [p for p in problems if p]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def sample(self, **values):
        for name, value in values.items():
            self.samples.setdefault(name, []).append(value)

    def sample_batch(self, child, work_units):
        """A batch command's metrics: its latency is its run time, and its
        capacity is the work it finished per second."""
        self.sample(run_s=child.wall_s, cpu_s=child.cpu_s, peak_rss_mb=child.rss_mb,
                    capacity_rps=work_units / child.wall_s, p50_ms=child.wall_s * 1000.0)

    def medians(self):
        return {name: statistics.median(values) for name, values in self.samples.items()}


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def repeat_until(seconds, body):
    """Calls body(k) for k = 0, 1, ... until `seconds` have passed."""
    begin = time.monotonic()
    k = 0
    while k < MIN_REPEATS or time.monotonic() - begin < seconds:
        body(k)
        k += 1


# --- report_paper ----------------------------------------------------

def report_args(bins, seed):
    return [bins["torsim"], "report", "--scale", "1", "--threads", str(THREADS),
            "--seed", str(seed)]


def report_paper(bins, seed, seconds, work):
    out = Outcome()
    seeds = inputs.derived_seeds("report_paper", seed, 64)
    reference = read(os.path.join(HERE, "reference", "report_default.md"), "rb")

    # Set-up: the serial population build (plus the port scan) that every
    # paper command pays before its analysis, one scan per core.
    for k in range(SETUP_ROUNDS):
        for child in run_side_by_side(
                [[bins["torsim"], "scan", "--scale", "1", "--threads", "1",
                  "--seed", str(seeds[k * SIDE_BY_SIDE + j])] for j in range(SIDE_BY_SIDE)],
                work, "scan"):
            ok = "scanned" in child.stdout()
            out.op([child.failure(), None if ok else "scan: no summary line"])
            out.sample(setup_s=child.wall_s)

    def one(k):
        report_seed = inputs.DEFAULT_SEED if k == 0 else seeds[k]
        child = run(report_args(bins, report_seed), work, "report.md")
        problems = [child.failure()] + checks.check_report(child.stdout())
        if k == 0:
            problems += checks.check_identical(read(child.stdout_path, "rb"), reference,
                                               f"report seed {report_seed}")
        out.op(problems)
        out.sample_batch(child, PAPER_SERVICES)

    repeat_until(seconds, one)
    return out


# --- scenario_month --------------------------------------------------

def write_packs(seed, work):
    """The month pack of each side-by-side slot, and its set-up pack."""
    packs = []
    for j in range(SIDE_BY_SIDE):
        pack_seed = f"{seed}/{j}"
        month = os.path.join(work, f"month{j}.scn")
        setup = os.path.join(work, f"setup{j}.scn")
        with open(month, "w") as f:
            f.write(inputs.month_pack(pack_seed))
        with open(setup, "w") as f:
            f.write(inputs.setup_pack(pack_seed))
        packs.append((month, setup))
    return packs


def scenario_args(bins, pack, csv=None, threads=1):
    args = [bins["torsim"], "scenario", "run", pack, "--threads", str(threads)]
    return args + (["--csv", csv] if csv else [])


def check_curated_packs(bins, work, out):
    """The curated packs replay byte-identical to scenarios/golden/."""
    packs = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.scn")))
    if not packs:
        out.op(["scenario: no curated packs under scenarios/"])
    for pack in packs:
        name = os.path.splitext(os.path.basename(pack))[0]
        golden = os.path.join(ROOT, "scenarios", "golden", name)
        csv, metrics = os.path.join(work, "golden.csv"), os.path.join(work, "golden.json")
        child = run(scenario_args(bins, pack, csv, THREADS) + ["--metrics-out", metrics],
                    work, "golden.out")
        problems = [child.failure()]
        if child.rc == 0:
            problems += checks.check_identical(read(csv, "rb"), read(golden + ".timeline.csv", "rb"),
                                               f"scenario {name} timeline")
            problems += checks.check_identical(read(metrics, "rb"), read(golden + ".metrics.json", "rb"),
                                               f"scenario {name} metrics")
        out.op(problems)


def scenario_month(bins, seed, seconds, work):
    out = Outcome()
    packs = write_packs(seed, work)
    for month, _ in packs:
        child = run([bins["torsim"], "scenario", "check", month], work, "check.out")
        out.op([child.failure(), None if "OK" in child.stdout() else "scenario check: no OK line"])
    check_curated_packs(bins, work, out)

    for _ in range(SETUP_ROUNDS):
        for child in run_side_by_side([scenario_args(bins, setup) for _, setup in packs],
                                      work, "setup"):
            out.op([child.failure()])
            out.sample(setup_s=child.wall_s)

    timelines = {}

    def one(k):
        csvs = [os.path.join(work, f"month{j}.csv") for j in range(SIDE_BY_SIDE)]
        children = run_side_by_side(
            [scenario_args(bins, month, csv) for (month, _), csv in zip(packs, csvs)],
            work, "month")
        for j, (child, csv) in enumerate(zip(children, csvs)):
            problems = [child.failure()]
            if child.rc == 0:
                timeline = read(csv, "rb")
                if j not in timelines:
                    timelines[j] = timeline
                    problems += checks.check_every_kind_fired(timeline.decode())
                problems += checks.check_identical(timeline, timelines[j],
                                                   f"scenario pack {j} timeline, round {k}")
            out.op(problems)
            out.sample_batch(child, inputs.MONTH_HOURS)

    repeat_until(seconds, one)
    return out


# --- serve_reads -----------------------------------------------------

def serve_seed(seed):
    return inputs.derived_seeds("serve_reads", seed, 1)[0]


def world_args(world_seed):
    return ["--scale", "1", "--seed", str(world_seed),
            "--services", str(inputs.SERVE_SERVICES),
            "--hours", str(inputs.SERVE_WARMUP_HOURS), "--threads", str(SERVE_THREADS)]


def serve_replay(bins, world_seed, work, out):
    """The serial `torsim query` answers to the same mix: the reference."""
    csv = os.path.join(work, "replay.csv")
    child = run([bins["torsim"], "query"] + world_args(world_seed) +
                ["--clients", "1", "--requests", str(CAPACITY_REQUESTS + LATENCY_REQUESTS),
                 "--csv", csv], work, "replay.out")
    if not out.op([child.failure()]):
        raise BenchError("serve: the query replay failed")
    return read(csv)


def serve_session(bins, world_seed, work, name, replay, out, traced=False):
    """One daemon lifetime: launch, set-up, capacity, latency, shutdown."""
    session = os.path.join(work, name)
    os.makedirs(session)
    extra = ["--metrics-out", "metrics.json", "--telemetry-out", "telemetry.json"] if traced else []
    # Relative socket path: the daemon and the generator share the session
    # directory as cwd, so the path stays short wherever the checkout is.
    daemon = Child([bins["torsimd"], "--socket", "d.sock", "--queue-cap", str(QUEUE_CAP)] +
                   world_args(world_seed) + extra, session, "daemon.out")
    client = Child([bins["driver"], "serve-client", "--socket", "d.sock",
                    "--seed", str(world_seed), "--services", str(inputs.SERVE_SERVICES),
                    "--capacity", str(CAPACITY_REQUESTS), "--latency", str(LATENCY_REQUESTS),
                    "--rate", str(LATENCY_RATE), "--inflight", str(INFLIGHT),
                    "--timeout-s", str(CLIENT_TIMEOUT_S), "--csv", "served.csv"],
                   session, "client.out").wait()
    if client.rc != 0:
        daemon.kill()
    daemon.wait()
    problems = [client.failure(), daemon.failure()]
    if client.rc != 0:
        out.attempted += CAPACITY_REQUESTS + LATENCY_REQUESTS
        out.failed += CAPACITY_REQUESTS + LATENCY_REQUESTS
        out.problems += [p for p in problems if p]
        return None
    result = json.loads(client.stdout().strip().splitlines()[-1])
    rows, mismatches = checks.serve_mismatches(read(os.path.join(session, "served.csv")), replay)
    out.attempted += rows
    out.failed += len(mismatches)
    out.problems += mismatches[:5]
    out.op(problems + [None if result["stats_ok"] == 1 else "serve: stats query failed"])
    result.update(setup_s=(result["stats_answered_ns"] - daemon.start_ns) / 1e9,
                  run_s=daemon.wall_s, cpu_s=daemon.cpu_s, peak_rss_mb=daemon.rss_mb,
                  session_dir=session)
    return result


def serve_reads(bins, seed, seconds, work):
    out = Outcome()
    world_seed = serve_seed(seed)
    replay = serve_replay(bins, world_seed, work, out)

    def one(k):
        result = serve_session(bins, world_seed, work, f"session{k}", replay, out)
        if result is not None:
            out.sample(**{name: result[name] for name in E2E_UNITS})

    repeat_until(seconds, one)
    return out


# --- traced run ------------------------------------------------------

def driver_json(bins, argv, work, name, out):
    child = run([bins["driver"]] + argv, work, name)
    if not out.op([child.failure()]):
        raise BenchError(f"driver {argv[0]} failed")
    return json.loads(child.stdout().strip().splitlines()[-1])


def trace_report(bins, seed, work, out, metrics):
    report_seed = inputs.derived_seeds("report_paper", seed, 1)[0]
    cli = run(report_args(bins, report_seed), work, "report.md")
    text = cli.stdout()
    out.op([cli.failure()] + checks.check_report(text))
    traced = driver_json(bins, ["trace-report", "--seed", str(report_seed), "--threads",
                                str(THREADS), "--spans", "spans_report.json"],
                         work, "trace_report.out", out)
    # The traced pipeline must compute what the CLI printed.
    out.op([None if traced["content.classified"] == checks.report_value(text, "classified")
            else "trace-report: classified count differs from the CLI report",
            None if traced["resolver.unique_ids"] == checks.report_value(text, "unique descriptor ids")
            else "trace-report: unique ids differ from the CLI report"])
    metrics.update({name: traced[name] for name in REPORT_LAYER})
    metrics["trace.overhead.report_paper"] = traced["report.total_s"] / cli.wall_s


def trace_scenario(bins, seed, work, out, metrics):
    month, _ = write_packs(seed, work)[0]
    untraced_csv = os.path.join(work, "month.csv")
    cli = run(scenario_args(bins, month, untraced_csv), work, "month.out")
    out.op([cli.failure()])
    traced_csv = os.path.join(work, "month_traced.csv")
    traced = driver_json(bins, ["trace-scenario", "--pack", month, "--threads", "1",
                                "--csv", traced_csv, "--spans", "spans_scenario.json"],
                         work, "trace_scenario.out", out)
    out.op(checks.check_identical(read(traced_csv, "rb"), read(untraced_csv, "rb"),
                                  "scenario timeline traced vs untraced"))
    metrics.update({name: traced[name] for name in SCENARIO_LAYER})
    metrics["trace.overhead.scenario_month"] = traced["scenario.run_s"] / cli.wall_s


def trace_serve(bins, seed, work, out, metrics):
    world_seed = serve_seed(seed)
    replay = serve_replay(bins, world_seed, work, out)
    plain = serve_session(bins, world_seed, work, "plain", replay, out)
    traced = serve_session(bins, world_seed, work, "traced", replay, out, traced=True)
    if plain is None or traced is None:
        raise BenchError("serve: a traced-run session failed")
    session = driver_json(bins, ["trace-serve", "--seed", str(world_seed),
                                 "--services", str(inputs.SERVE_SERVICES),
                                 "--hours", str(inputs.SERVE_WARMUP_HOURS),
                                 "--threads", str(SERVE_THREADS),
                                 "--requests", str(CAPACITY_REQUESTS + LATENCY_REQUESTS),
                                 "--batch", str(INFLIGHT), "--spans", "spans_serve.json"],
                          work, "trace_serve.out", out)
    telemetry = json.loads(read(os.path.join(traced["session_dir"], "telemetry.json")))
    batch_size = telemetry["histograms"]["serve_edge.batch_size"]
    metrics.update({name: session[name] for name in SERVE_LAYER if name in session})
    metrics.update({
        "edge.overhead_us": traced["p50_ms"] * 1000.0 - session["session.exec_us.weighted"],
        "edge.batch_size_mean": batch_size["sum"] / batch_size["count"],
        "edge.inflight_max": traced["inflight_max"],
        "edge.admission_rejects": telemetry["counters"].get("serve_edge.admission_rejects", 0),
        "serve.p99_ms": traced["p99_ms"],
        "generator.lag_ms": traced["lag_p99_ms"],
        "trace.overhead.serve_reads": traced["run_s"] / plain["run_s"],
    })


def keep_spans(work):
    """Moves a traced run's span files to .bench_work/spans/, replacing
    the previous run's."""
    spans = glob.glob(os.path.join(work, "spans_*.json"))
    if spans:
        keep = os.path.join(WORK, "spans")
        shutil.rmtree(keep, ignore_errors=True)
        os.makedirs(keep)
        for path in spans:
            shutil.move(path, keep)


def traced_run(bins, seed, work):
    """Every layer of every workload, so each traced run is complete."""
    out = Outcome()
    metrics = {}
    for step in (trace_report, trace_scenario, trace_serve):
        step(bins, seed, work, out, metrics)
    return out, metrics, LAYER_UNITS


# --- main ------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bins = build()
        Child.launcher = bins["driver"]
        os.makedirs(WORK, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
        try:
            if args.trace:
                out, metrics, units = traced_run(bins, args.seed, work)
            else:
                body = {"report_paper": report_paper, "scenario_month": scenario_month,
                        "serve_reads": serve_reads}[args.workload]
                out = body(bins, args.seed, args.seconds, work)
                metrics, units = out.medians(), E2E_UNITS
        finally:
            stop_children()
            keep_spans(work)
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as error:
        stop_children()
        print(f"error: {error}", file=sys.stderr)
        return 2

    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 2
    for problem in out.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    label = "traced" if args.trace else args.workload
    for name, unit in units.items():
        print(f"{label:<15} {name:<30} {metrics[name]:>14.6f} {unit}")
    print(f"{label:<15} {'failed_share':<30} {out.failed / max(out.attempted, 1):>14.6f} "
          f"({out.failed}/{out.attempted})")
    correct = out.failed == 0 and not out.problems
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
