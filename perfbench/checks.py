"""Output checks of the torsim benchmark.

Each check returns a list of problems; an empty list means the output
is correct. perfbench/test_checks.py shows that every check rejects a
deliberately corrupted output.
"""
import csv
import io
import re

# `torsim report --scale 1` against the paper. Every measured/paper
# ratio of Sec. III-V stays within RATIO_TOLERANCE of 1 and every Fig. 2
# topic share within TOPIC_TOLERANCE_PP percentage points of the
# paper's. Seeds 1, 2, 3, 99, 777, 4242, 12345, 31337 and the default
# seed span ratios 0.88-1.05 (the extremes are the smallest counts, such
# as 30 public-DNS certificates against 34) and topic gaps up to 3.5
# points.
RATIO_TOLERANCE = 0.2
TOPIC_TOLERANCE_PP = 5.0
UNRESOLVED_TOLERANCE = 0.05
REPORT_SECTIONS = ("## Fig. 1 / Sec. III", "## Table I / Sec. IV",
                   "## Fig. 2 topics", "## Table II / Sec. V")
MIN_RATIO_ROWS = 19
MIN_TOPIC_ROWS = 18

_RATIO_ROW = re.compile(r"^\| (.+?) \| (\d+) \| (\d+) \| ([0-9.]+) \|$", re.M)
_TOPIC_ROW = re.compile(r"^\| (.+?) \| ([0-9.]+) \| (\d+) \|$", re.M)
_UNRESOLVED = re.compile(
    r"^unresolved request share: measured ([0-9.]+), paper ([0-9.]+)$", re.M)


def check_report(text):
    """Problems with one `torsim report --scale 1` output."""
    problems = [f"report: missing section '{s}'" for s in REPORT_SECTIONS
                if s not in text]
    ratios = _RATIO_ROW.findall(text)
    if len(ratios) < MIN_RATIO_ROWS:
        problems.append(f"report: {len(ratios)} ratio rows, expected {MIN_RATIO_ROWS}")
    for label, measured, paper, _ in ratios:
        ratio = int(measured) / int(paper) if int(paper) else 0.0
        if abs(ratio - 1.0) > RATIO_TOLERANCE:
            problems.append(f"report: '{label}' ratio {ratio:.3f} outside "
                            f"1 +- {RATIO_TOLERANCE}")
    topics = _TOPIC_ROW.findall(text)
    if len(topics) < MIN_TOPIC_ROWS:
        problems.append(f"report: {len(topics)} topic rows, expected {MIN_TOPIC_ROWS}")
    for label, measured, paper in topics:
        if abs(float(measured) - float(paper)) > TOPIC_TOLERANCE_PP:
            problems.append(f"report: topic '{label}' {measured}% vs paper "
                            f"{paper}% (tolerance {TOPIC_TOLERANCE_PP} points)")
    unresolved = _UNRESOLVED.search(text)
    if unresolved is None:
        problems.append("report: missing unresolved request share")
    elif abs(float(unresolved.group(1)) - float(unresolved.group(2))) > UNRESOLVED_TOLERANCE:
        problems.append(f"report: unresolved share {unresolved.group(1)} vs "
                        f"paper {unresolved.group(2)}")
    return problems


def report_value(text, label):
    """The measured count of one ratio row of a report, or None."""
    for row_label, measured, _, _ in _RATIO_ROW.findall(text):
        if row_label == label:
            return int(measured)
    return None


def check_identical(actual, expected, what):
    """Problems when two byte strings differ; names the first differing line."""
    if actual == expected:
        return []
    a_lines = actual.splitlines()
    e_lines = expected.splitlines()
    for number, (a, e) in enumerate(zip(a_lines, e_lines), start=1):
        if a != e:
            return [f"{what}: line {number} differs"]
    return [f"{what}: {len(a_lines)} lines, expected {len(e_lines)}"]


EVENT_KINDS = ("churn-storm", "takedown", "migration-wave", "flash-crowd",
               "hsdir-flood", "authority-outage", "fault-window", "relay-join",
               "add-services")


def fired_kinds(timeline):
    """Event kinds named in the last (events) column of a timeline CSV."""
    kinds = set()
    for line in timeline.splitlines()[1:]:
        kinds.update(line.rsplit(",", 1)[-1].split())
    return kinds


def check_every_kind_fired(timeline):
    """Problems when a scenario timeline misses one of the nine event kinds."""
    missing = sorted(set(EVENT_KINDS) - fired_kinds(timeline))
    return [f"scenario: event kinds never fired: {missing}"] if missing else []


def serve_mismatches(served_csv, replay_csv):
    """Rows of a served result CSV that differ from the `torsim query` replay.

    Returns (rows compared, list of problems); a missing, retried or
    wrong answer is one problem each.
    """
    served = list(csv.reader(io.StringIO(served_csv)))
    replay = list(csv.reader(io.StringIO(replay_csv)))
    if not replay or replay[0] != ["seq", "id", "kind", "status", "data"]:
        return 0, ["serve: replay CSV has no header"]
    problems = []
    if not served or served[0] != replay[0]:
        problems.append("serve: served CSV header differs")
    rows = len(replay) - 1
    for i in range(1, len(replay)):
        got = served[i] if i < len(served) else None
        if got != replay[i]:
            status = got[3] if got and len(got) > 3 else "missing"
            problems.append(f"serve: request {replay[i][1]} answered "
                            f"'{status}', differs from replay")
    if len(served) > len(replay):
        problems.append(f"serve: {len(served) - len(replay)} extra rows")
    return rows, problems
