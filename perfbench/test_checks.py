"""Tests of the benchmark's own output checks and input generators.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Every check accepts a correct output and rejects a deliberately
corrupted one.
"""
import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import unittest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def read(*parts):
    with open(os.path.join(*parts), "rb") as f:
        return f.read()


REFERENCE = read(run.HERE, "reference", "report_default.md").decode()


def corrupt(text, old, new):
    assert old in text, old
    return text.replace(old, new, 1)


class ReportCheckTest(unittest.TestCase):
    def test_reference_report_passes(self):
        self.assertEqual(checks.check_report(REFERENCE), [])

    def test_count_outside_tolerance_is_rejected(self):
        text = corrupt(REFERENCE, "| open ports | 21692 |", "| open ports | 12692 |")
        self.assertIn("open ports", " ".join(checks.check_report(text)))

    def test_topic_share_outside_tolerance_is_rejected(self):
        text = corrupt(REFERENCE, "| Adult | 18.5 |", "| Adult | 28.5 |")
        self.assertIn("Adult", " ".join(checks.check_report(text)))

    def test_unresolved_share_mismatch_is_rejected(self):
        text = corrupt(REFERENCE, "measured 0.80, paper", "measured 0.60, paper")
        self.assertIn("unresolved", " ".join(checks.check_report(text)))

    def test_truncated_report_is_rejected(self):
        problems = checks.check_report(REFERENCE[: len(REFERENCE) // 2])
        self.assertIn("missing section", " ".join(problems))

    def test_changed_byte_fails_the_reference_comparison(self):
        # Still inside the paper tolerance, so only the byte check sees it.
        text = corrupt(REFERENCE, "| connected | 6548 |", "| connected | 6549 |")
        self.assertEqual(checks.check_report(text), [])
        self.assertEqual(checks.check_identical(text.encode(), REFERENCE.encode(), "report"),
                         ["report: line 24 differs"])

    def test_report_value_reads_measured_counts(self):
        self.assertEqual(checks.report_value(REFERENCE, "classified"), 1839)
        self.assertEqual(checks.report_value(REFERENCE, "unique descriptor ids"), 29443)
        self.assertIsNone(checks.report_value(REFERENCE, "no such row"))


class ScenarioCheckTest(unittest.TestCase):
    GOLDEN = read(run.ROOT, "scenarios", "golden", "flash-crowd.timeline.csv")

    def test_identical_timeline_passes(self):
        self.assertEqual(checks.check_identical(self.GOLDEN, self.GOLDEN, "timeline"), [])

    def test_changed_timeline_is_rejected(self):
        changed = self.GOLDEN.replace(b",120,120,120,98,", b",120,120,119,98,", 1)
        self.assertNotEqual(changed, self.GOLDEN)
        self.assertEqual(checks.check_identical(changed, self.GOLDEN, "timeline"),
                         ["timeline: line 2 differs"])

    def test_truncated_timeline_is_rejected(self):
        cut = b"\n".join(self.GOLDEN.splitlines()[:-1]) + b"\n"
        self.assertIn("lines, expected", checks.check_identical(cut, self.GOLDEN, "timeline")[0])

    def test_timeline_missing_an_event_kind_is_rejected(self):
        rows = "".join(f"{h},2013-02-01 00:00:00,{kind}\n"
                       for h, kind in enumerate(checks.EVENT_KINDS))
        timeline = "hour,time,events\n" + rows
        self.assertEqual(checks.check_every_kind_fired(timeline), [])
        without_takedown = timeline.replace(",takedown\n", ",\n")
        self.assertIn("takedown", checks.check_every_kind_fired(without_takedown)[0])

    def test_month_pack_has_every_event_kind_once(self):
        kinds = re.findall(r"^at \+\d+h (\S+)$", inputs.month_pack(7), re.M)
        self.assertEqual(sorted(kinds), sorted(checks.EVENT_KINDS))

    def test_month_pack_depends_on_the_seed_only(self):
        self.assertEqual(inputs.month_pack(7), inputs.month_pack(7))
        self.assertNotEqual(inputs.month_pack(7), inputs.month_pack(8))

    def test_event_sizes_do_not_depend_on_the_seed(self):
        def sizes(text):
            return re.findall(r"^  (hours|down|up|relays|bandwidth|count|clients|fetches"
                              r"|services|faults) (\S+)$", text, re.M)
        self.assertEqual(sizes(inputs.month_pack(7)), sizes(inputs.month_pack(8)))

    def test_setup_pack_builds_the_month_world(self):
        def header(text):
            return [line for line in text.splitlines()
                    if line.split(" ")[0] in ("seed", "start", "relays", "services")]
        self.assertEqual(header(inputs.setup_pack(7)), header(inputs.month_pack(7)))


class ServeCheckTest(unittest.TestCase):
    REPLAY = ('seq,id,kind,status,data\n'
              '0,1,stats,ok,hours 6|relays 2913\n'
              '1,2,harvest,ok,"service 4 onion abc, online 1"\n')

    def test_identical_answers_pass(self):
        self.assertEqual(checks.serve_mismatches(self.REPLAY, self.REPLAY), (2, []))

    def test_wrong_answer_is_rejected(self):
        served = self.REPLAY.replace("relays 2913", "relays 2914")
        rows, problems = checks.serve_mismatches(served, self.REPLAY)
        self.assertEqual((rows, len(problems)), (2, 1))

    def test_retry_after_answer_is_rejected(self):
        served = self.REPLAY.replace("0,1,stats,ok,hours 6|relays 2913", "0,1,stats,retry-after,")
        self.assertIn("retry-after", checks.serve_mismatches(served, self.REPLAY)[1][0])

    def test_missing_answer_is_rejected(self):
        served = "\n".join(self.REPLAY.splitlines()[:2]) + "\n"
        self.assertIn("missing", checks.serve_mismatches(served, self.REPLAY)[1][0])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_what_run_prints(self):
        spec = json.loads(read(run.ROOT, "BENCHMARK.json"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_UNITS)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
