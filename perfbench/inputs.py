"""Seeded inputs for the torsim benchmark.

Every input is a pure function of the benchmark seed, so the same seed
gives the same scenario pack, the same report seeds and the same serve
mix on every machine and at every commit.
"""
import random

# The seed every `torsim` command uses by default; the report made with
# it is pinned byte for byte by reference/report_default.md.
DEFAULT_SEED = 20130204

SERVE_SERVICES = 1000
SERVE_WARMUP_HOURS = 6

MONTH_RELAYS = 1500
MONTH_SERVICES = 400
MONTH_HOURS = 720


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def derived_seeds(workload, seed, count):
    """`count` distinct program seeds for one workload run."""
    rng = _rng(workload, seed)
    seeds = []
    while len(seeds) < count:
        value = rng.randrange(1, 2**31)
        if value not in seeds and value != DEFAULT_SEED:
            seeds.append(value)
    return seeds


def _pack_text(name, title, pack_seed, relays, services, hours, sample, events):
    lines = [
        "torsim-scenario-version 1",
        f"name {name}",
        f"title {title}",
        f"seed {pack_seed}",
        "start 2013-02-01 00:00:00",
        f"relays {relays}",
        f"services {services}",
        f"horizon-hours {hours}",
        f"sample-every-hours {sample}",
    ]
    for at, kind, params in events:
        lines.append(f"at +{at}h {kind}")
        lines += [f"  {key} {value}" for key, value in params]
        lines.append("end")
    lines.append("scenario-end")
    return "\n".join(lines) + "\n"


def _world_seed(seed):
    return _rng("scenario_month.world", seed).randrange(1, 2**31)


def month_pack(seed):
    """A 720-hour pack with every one of the nine event kinds, once each.

    The seed moves each event within its own window of the month and
    picks the services it targets; event sizes are fixed, so every seed
    asks the simulator for the same amount of work. No two windows
    overlap and every window closes before the horizon.
    """
    r = _rng("scenario_month", seed)
    events = [
        (r.randint(24, 96), "churn-storm", [("hours", 36), ("down", 0.2), ("up", 0.08)]),
        (r.randint(150, 190), "relay-join", [("relays", 100), ("bandwidth", 800)]),
        (r.randint(200, 240), "add-services", [("count", 75)]),
        (r.randint(260, 300), "flash-crowd",
         [("clients", 40), ("fetches", 3), ("service", r.randrange(MONTH_SERVICES))]),
        (r.randint(320, 360), "hsdir-flood", [("relays", 40), ("bandwidth", 1200)]),
        (r.randint(390, 430), "authority-outage", [("hours", 18)]),
        (r.randint(470, 500), "fault-window",
         [("hours", 36), ("faults", "drop=0.05,timeout=0.08,retries=3")]),
        (r.randint(560, 600), "migration-wave",
         [("services", 40), ("first", r.randint(0, 100))]),
        (r.randint(640, 680), "takedown",
         [("services", 40), ("first", r.randint(150, 300))]),
    ]
    return _pack_text("bench-month", "Generated month with every event kind",
                      _world_seed(seed), MONTH_RELAYS, MONTH_SERVICES,
                      MONTH_HOURS, 24, events)


def setup_pack(seed):
    """The month pack's world for one quiet hour: its set-up cost."""
    return _pack_text("bench-month-setup", "Set-up of the generated month",
                      _world_seed(seed), MONTH_RELAYS, MONTH_SERVICES, 1, 1, [])
