#!/usr/bin/env python3
"""Schema check for the BENCH_<name>.json telemetry files.

Validates the `torsim-bench-v1` layout written by obs::BenchReport
(src/obs/report.cpp): identity header, measured-vs-paper rows with the
paper==0 -> ratio null rule, google-benchmark timings, wall-clock
phases, peak RSS, and the metrics sections. CI's bench-smoke job runs
this over every emitted file and fails the build on malformed output.

Usage:  check_bench_json.py FILE_OR_DIR [FILE_OR_DIR ...]

Directories are searched for BENCH_*.json. Exits non-zero and prints
one line per violation if any file fails.
"""

import json
import numbers
import os
import sys


class Checker:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def error(self, message):
        self.errors.append(f"{self.path}: {message}")

    def require(self, condition, message):
        if not condition:
            self.error(message)
        return condition

    def is_num(self, value):
        # bool is an int subclass; a bare true/false is never a number here.
        return isinstance(value, numbers.Real) and not isinstance(value, bool)

    def is_int(self, value):
        return isinstance(value, int) and not isinstance(value, bool)

    def check_rows(self, rows):
        if not self.require(isinstance(rows, list), "rows must be a list"):
            return
        for i, row in enumerate(rows):
            where = f"rows[{i}]"
            if not self.require(isinstance(row, dict), f"{where} not an object"):
                continue
            for key in ("section", "label"):
                self.require(isinstance(row.get(key), str),
                             f"{where}.{key} must be a string")
            for key in ("measured", "paper"):
                self.require(self.is_num(row.get(key)),
                             f"{where}.{key} must be a number")
            if "ratio" not in row:
                self.error(f"{where} missing ratio")
            elif self.is_num(row.get("paper")):
                # The n/a rule: no paper baseline -> ratio is null, never 0.
                if row["paper"] == 0:
                    self.require(row["ratio"] is None,
                                 f"{where}.ratio must be null when paper == 0")
                else:
                    self.require(self.is_num(row["ratio"]),
                                 f"{where}.ratio must be a number")

    def check_benchmarks(self, benchmarks):
        if not self.require(isinstance(benchmarks, list),
                            "benchmarks must be a list"):
            return
        for i, run in enumerate(benchmarks):
            where = f"benchmarks[{i}]"
            if not self.require(isinstance(run, dict), f"{where} not an object"):
                continue
            self.require(isinstance(run.get("name"), str),
                         f"{where}.name must be a string")
            for key in ("real_time_seconds", "cpu_time_seconds"):
                value = run.get(key)
                self.require(self.is_num(value) and value >= 0,
                             f"{where}.{key} must be a non-negative number")
            iterations = run.get("iterations")
            self.require(self.is_int(iterations) and iterations >= 0,
                         f"{where}.iterations must be a non-negative integer")

    def check_wall_clock(self, wall_clock):
        if not self.require(isinstance(wall_clock, dict),
                            "wall_clock must be an object"):
            return
        phases = wall_clock.get("phases")
        if self.require(isinstance(phases, dict),
                        "wall_clock.phases must be an object"):
            for name, seconds in phases.items():
                self.require(self.is_num(seconds) and seconds >= 0,
                             f"wall_clock.phases[{name!r}] must be >= 0")
        total = wall_clock.get("total_seconds")
        self.require(self.is_num(total) and total >= 0,
                     "wall_clock.total_seconds must be a non-negative number")

    def check_serve(self, serve):
        # Optional section: only BENCH_serve.json carries it (the
        # daemon-path throughput/latency telemetry from bench_serve),
        # but when present anywhere it must be well-formed. Like
        # wall_clock it is perf telemetry, never golden-compared.
        if serve is None:
            return
        if not self.require(isinstance(serve, dict),
                            "serve must be an object"):
            return
        for key, floor in (("clients", 1), ("threads", 0), ("requests", 1),
                           ("retries", 0), ("reconnects", 0)):
            value = serve.get(key)
            self.require(self.is_int(value) and value >= floor,
                         f"serve.{key} must be an integer >= {floor}")
        seconds = serve.get("seconds")
        self.require(self.is_num(seconds) and seconds >= 0,
                     "serve.seconds must be a non-negative number")
        if "requests_per_second" not in serve:
            self.error("serve missing requests_per_second")
        elif self.is_num(seconds):
            # The n/a rule: an unmeasured run has no meaningful rate ->
            # requests_per_second is null, never 0 or inf.
            if seconds == 0:
                self.require(serve["requests_per_second"] is None,
                             "serve.requests_per_second must be null "
                             "when seconds == 0")
            else:
                rps = serve["requests_per_second"]
                self.require(self.is_num(rps) and rps >= 0,
                             "serve.requests_per_second must be a "
                             "non-negative number")
        latency = serve.get("latency_us")
        if not self.require(isinstance(latency, dict),
                            "serve.latency_us must be an object"):
            return
        edges = latency.get("edges")
        buckets = latency.get("buckets")
        ok_edges = self.require(
            isinstance(edges, list) and edges
            and all(self.is_int(e) for e in edges)
            and all(a < b for a, b in zip(edges, edges[1:])),
            "serve.latency_us.edges must be strictly increasing integers")
        ok_buckets = self.require(
            isinstance(buckets, list)
            and all(self.is_int(b) and b >= 0 for b in buckets),
            "serve.latency_us.buckets must be non-negative integers")
        if ok_edges and ok_buckets:
            self.require(len(buckets) == len(edges) + 1,
                         "serve.latency_us: need len(edges)+1 buckets")
        count = latency.get("count")
        if self.require(self.is_int(count) and count >= 0,
                        "serve.latency_us.count must be a non-negative "
                        "integer") and ok_buckets:
            self.require(sum(buckets) == count,
                         "serve.latency_us: bucket counts must sum to count")
        self.require(self.is_int(latency.get("sum")),
                     "serve.latency_us.sum must be an integer")
        quantiles = []
        for key in ("p50", "p90", "p99"):
            value = latency.get(key)
            if self.require(self.is_int(value) and value >= 0,
                            f"serve.latency_us.{key} must be a "
                            f"non-negative integer"):
                quantiles.append(value)
        if len(quantiles) == 3:
            self.require(quantiles[0] <= quantiles[1] <= quantiles[2],
                         "serve.latency_us: p50 <= p90 <= p99 must hold")

    def check_population(self, population, peak_rss_bytes):
        # Optional section: only BENCH_population.json carries it (the
        # SoA-vs-legacy data-layout telemetry from bench_population, see
        # docs/data-layout.md), but when present anywhere it must be
        # well-formed. Unlike the other perf sections this one carries a
        # gate: the document's own peak_rss_bytes must stay under the
        # peak_rss_budget_bytes ceiling the bench computed for its
        # scale, so a layout regression fails CI here.
        if population is None:
            return
        if not self.require(isinstance(population, dict),
                            "population must be an object"):
            return
        for key in ("services", "column_bytes", "index_bytes",
                    "interner_bytes", "interner_strings",
                    "legacy_record_bytes", "soa_rss_delta_bytes",
                    "legacy_rss_delta_bytes", "rss_reduction_bytes",
                    "arena_bytes", "arena_live_bytes", "arena_compactions"):
            value = population.get(key)
            if not self.require(self.is_int(value),
                                f"population.{key} must be an integer"):
                continue
            # rss_reduction_bytes is a difference of measured deltas and
            # the only field allowed to go negative (that IS the
            # regression signal, reported rather than rejected).
            if key != "rss_reduction_bytes":
                self.require(value >= 0,
                             f"population.{key} must be non-negative")
        legacy = population.get("legacy_rss_delta_bytes")
        soa = population.get("soa_rss_delta_bytes")
        reduction = population.get("rss_reduction_bytes")
        if all(self.is_int(v) for v in (legacy, soa, reduction)):
            self.require(reduction == legacy - soa,
                         "population.rss_reduction_bytes must equal "
                         "legacy_rss_delta_bytes - soa_rss_delta_bytes")
        live = population.get("arena_live_bytes")
        held = population.get("arena_bytes")
        if self.is_int(live) and self.is_int(held):
            self.require(live <= held,
                         "population.arena_live_bytes must not exceed "
                         "arena_bytes")
        budget = population.get("peak_rss_budget_bytes")
        if self.require(self.is_int(budget) and budget > 0,
                        "population.peak_rss_budget_bytes must be a "
                        "positive integer") and self.is_int(peak_rss_bytes):
            self.require(peak_rss_bytes <= budget,
                         f"peak_rss_bytes {peak_rss_bytes} exceeds "
                         f"population.peak_rss_budget_bytes {budget}")

    def check_scenarios(self, scenarios):
        # Optional section: only BENCH_scenarios.json carries it, but
        # when present anywhere it must be well-formed.
        if scenarios is None:
            return
        if not self.require(isinstance(scenarios, list),
                            "scenarios must be a list"):
            return
        self.require(len(scenarios) > 0, "scenarios must not be empty")
        seen = set()
        for i, entry in enumerate(scenarios):
            where = f"scenarios[{i}]"
            if not self.require(isinstance(entry, dict),
                                f"{where} not an object"):
                continue
            name = entry.get("name")
            if self.require(isinstance(name, str) and name,
                            f"{where}.name must be a non-empty string"):
                self.require(name not in seen,
                             f"{where}.name {name!r} is a duplicate")
                seen.add(name)
            for key in ("horizon_hours", "events_applied", "timeline_rows",
                        "services_migrated", "services_taken_down",
                        "services_added", "relays_injected",
                        "flash_fetches_ok", "flash_fetches_failed"):
                value = entry.get(key)
                self.require(self.is_int(value) and value >= 0,
                             f"{where}.{key} must be a non-negative integer")
            if self.is_int(entry.get("horizon_hours")):
                self.require(entry["horizon_hours"] > 0,
                             f"{where}.horizon_hours must be positive")

    def check_metrics(self, doc):
        for section in ("counters", "gauges"):
            values = doc.get(section)
            if not self.require(isinstance(values, dict),
                                f"{section} must be an object"):
                continue
            for name, value in values.items():
                self.require(self.is_int(value),
                             f"{section}[{name!r}] must be an integer")
        histograms = doc.get("histograms")
        if not self.require(isinstance(histograms, dict),
                            "histograms must be an object"):
            return
        for name, hist in histograms.items():
            where = f"histograms[{name!r}]"
            if not self.require(isinstance(hist, dict),
                                f"{where} not an object"):
                continue
            edges = hist.get("edges")
            buckets = hist.get("buckets")
            ok_edges = self.require(
                isinstance(edges, list) and edges
                and all(self.is_int(e) for e in edges)
                and all(a < b for a, b in zip(edges, edges[1:])),
                f"{where}.edges must be strictly increasing integers")
            ok_buckets = self.require(
                isinstance(buckets, list)
                and all(self.is_int(b) and b >= 0 for b in buckets),
                f"{where}.buckets must be non-negative integers")
            if ok_edges and ok_buckets:
                self.require(len(buckets) == len(edges) + 1,
                             f"{where}: need len(edges)+1 buckets")
            count = hist.get("count")
            if self.require(self.is_int(count),
                            f"{where}.count must be an integer") and ok_buckets:
                self.require(sum(buckets) == count,
                             f"{where}: bucket counts must sum to count")
            self.require(self.is_int(hist.get("sum")),
                         f"{where}.sum must be an integer")

    def check(self, doc):
        if not self.require(isinstance(doc, dict),
                            "top level must be an object"):
            return
        self.require(doc.get("schema") == "torsim-bench-v1",
                     f"schema must be 'torsim-bench-v1', got {doc.get('schema')!r}")
        name = doc.get("name")
        if self.require(isinstance(name, str) and name, "name must be set"):
            expected = f"BENCH_{name}.json"
            self.require(os.path.basename(self.path) == expected,
                         f"name {name!r} does not match filename "
                         f"(expected {expected})")
        scale = doc.get("scale")
        self.require(self.is_num(scale) and scale > 0,
                     "scale must be a positive number")
        self.check_rows(doc.get("rows"))
        self.check_benchmarks(doc.get("benchmarks"))
        self.check_wall_clock(doc.get("wall_clock"))
        rss = doc.get("peak_rss_bytes")
        self.require(self.is_int(rss) and rss > 0,
                     "peak_rss_bytes must be a positive integer")
        self.check_serve(doc.get("serve"))
        self.check_population(doc.get("population"), rss)
        self.check_scenarios(doc.get("scenarios"))
        self.check_metrics(doc)


def collect(args):
    paths = []
    for arg in args:
        if os.path.isdir(arg):
            found = sorted(
                os.path.join(arg, f) for f in os.listdir(arg)
                if f.startswith("BENCH_") and f.endswith(".json"))
            if not found:
                print(f"error: no BENCH_*.json under {arg}", file=sys.stderr)
                sys.exit(2)
            paths.extend(found)
        else:
            paths.append(arg)
    return paths


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in collect(argv[1:]):
        checker = Checker(path)
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            checker.error(f"unreadable or invalid JSON: {err}")
        else:
            checker.check(doc)
        if checker.errors:
            failed = True
            for line in checker.errors:
                print(f"FAIL {line}", file=sys.stderr)
        else:
            print(f"OK   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
