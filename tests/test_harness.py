"""The bench harness: declarative gates, the one schema check, and the
paired A/B timer (driven by a fake clock, so no test here sleeps or
depends on machine speed)."""

import json
from pathlib import Path

import pytest

from repro.perf.harness import (CYCLES, Gate, build_report, check_report,
                                failed_gates, paired, write_report)

pytestmark = pytest.mark.perf

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = sorted(ROOT.glob("BENCH_*.json"))


class FakeClock:
    """Advances only when a timed side runs: each call of a side adds
    that side's cost to the clock, and the call order is recorded."""

    def __init__(self):
        self.now = 0.0
        self.calls: list[str] = []

    def __call__(self) -> float:
        return self.now

    def side(self, name: str, costs):
        costs = iter(costs)

        def run():
            self.calls.append(name)
            self.now += next(costs)
            return name
        return run


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_report_passes_the_schema_check(path):
    report = json.loads(path.read_text())
    assert check_report(report) == []
    for gate in report["acceptance"]["gates"]:
        assert set(gate) == {"name", "value", "bound", "kind",
                             "interval", "passed"}


def test_committed_reports_cover_the_gated_suites():
    assert {path.name for path in COMMITTED} >= {
        "BENCH_perf.json", "BENCH_resilient.json", "BENCH_blocking.json"}


class TestPairedTimer:
    def test_known_ratio_gives_that_median(self):
        clock = FakeClock()
        timing = paired(clock.side("a", [0.1] * CYCLES),
                        clock.side("b", [0.25] * CYCLES), clock=clock)
        assert len(timing.ratios) == CYCLES
        assert timing.median == pytest.approx(2.5)
        assert all(r == pytest.approx(2.5) for r in timing.ratios)
        assert timing.interval == pytest.approx((2.5, 2.5))
        assert (timing.a_result, timing.b_result) == ("a", "b")

    def test_interval_contains_ratio_and_is_seeded(self):
        a_costs = [0.10, 0.11, 0.09, 0.10, 0.12, 0.10, 0.08]
        b_costs = [0.20, 0.25, 0.18, 0.21, 0.30, 0.19, 0.17]

        def run():
            clock = FakeClock()
            return paired(clock.side("a", a_costs),
                          clock.side("b", b_costs), cycles=7,
                          clock=clock)

        first, again = run(), run()
        low, high = first.interval
        assert low <= first.median <= high
        assert low < high
        assert first.interval == again.interval
        assert first.ratios == pytest.approx(
            tuple(b / a for a, b in zip(a_costs, b_costs)))

    def test_first_side_alternates(self):
        clock = FakeClock()
        setups = []
        paired(clock.side("a", [1.0] * 4), clock.side("b", [1.0] * 4),
               cycles=4, clock=clock,
               setup_a=lambda: setups.append("setup_a"),
               setup_b=lambda: setups.append("setup_b"))
        assert clock.calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
        assert setups == ["setup_a", "setup_b", "setup_b", "setup_a",
                          "setup_a", "setup_b", "setup_b", "setup_a"]

    def test_setup_is_not_timed(self):
        clock = FakeClock()

        def slow_setup():
            clock.now += 100.0

        timing = paired(clock.side("a", [1.0] * 2),
                        clock.side("b", [2.0] * 2), cycles=2,
                        clock=clock, setup_b=slow_setup)
        assert timing.b_seconds == (2.0, 2.0)
        assert timing.median == pytest.approx(2.0)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            paired(lambda: None, lambda: None, cycles=0)


class TestGate:
    def test_floor_judged_on_lower_bound(self):
        # The point value clears the floor, the interval does not.
        gate = Gate("speedup", 2.3, 2.0, "floor", (1.9, 2.6))
        assert gate.judged == 1.9
        assert not gate.passed
        assert Gate("speedup", 2.3, 2.0, "floor", (2.0, 2.6)).passed
        assert Gate("speedup", 2.3, 2.0).passed

    def test_ceiling_judged_on_upper_bound(self):
        gate = Gate("overhead", 0.01, 0.02, "ceiling", (-0.03, 0.05))
        assert gate.judged == 0.05
        assert not gate.passed
        assert Gate("overhead", 0.01, 0.02, "ceiling",
                    (-0.03, 0.015)).passed
        # A ceiling is exclusive, a floor inclusive.
        assert not Gate("naive", 0.99, 0.99, "ceiling").passed
        assert Gate("pc", 0.95, 0.95, "floor").passed

    def test_paired_gate_shifts_ratio_to_overhead(self):
        clock = FakeClock()
        timing = paired(clock.side("a", [1.0] * 3),
                        clock.side("b", [1.05] * 3), cycles=3,
                        clock=clock)
        gate = timing.gate("overhead", 0.02, "ceiling", shift=-1.0)
        assert gate.value == pytest.approx(0.05)
        assert not gate.passed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("x", 1.0, 1.0, "between")


class TestReport:
    def _report(self, gates, smoke=False):
        return build_report("demo", smoke=smoke, config={"n": 1},
                            gates=gates, summary=["demo line"],
                            section={"k": 1})

    def test_built_report_is_valid_and_summarizes_gates(self):
        report = self._report([Gate("a", 1.0, 0.5),
                               Gate("b", 1.0, 0.5, "ceiling")])
        assert check_report(report) == []
        assert report["acceptance"]["passed"] is False
        assert failed_gates(report) == ["b"]
        assert report["summary"][0] == "demo line"
        assert report["summary"][-1] == "  acceptance: FAIL"
        assert report["section"] == {"k": 1}

    def test_smoke_is_reported_but_not_enforced(self):
        report = self._report([Gate("a", 0.0, 0.5)], smoke=True)
        assert report["acceptance"]["enforced"] is False
        assert report["acceptance"]["passed"] is False
        assert report["summary"][-1].endswith("(not enforced: smoke)")

    def test_check_flags_unknown_gate_keys_and_stale_verdicts(self):
        report = self._report([Gate("a", 1.0, 0.5)])
        report["acceptance"]["gates"][0]["floor"] = 0.5
        assert any("keys" in p for p in check_report(report))
        report = self._report([Gate("a", 1.0, 0.5)])
        report["acceptance"]["gates"][0]["value"] = 0.1
        assert any("disagrees" in p for p in check_report(report))
        report = self._report([Gate("a", 1.0, 0.5)])
        report["acceptance"]["bert_speedup"] = 3.7
        assert any("acceptance keys" in p for p in check_report(report))

    def test_write_checks_then_writes(self, tmp_path):
        report = self._report([Gate("a", 1.0, 0.5)])
        path = write_report(report, tmp_path / "BENCH_demo.json")
        assert json.loads(path.read_text()) == report
        report["schema"] = 2
        with pytest.raises(ValueError, match="schema"):
            write_report(report, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()
