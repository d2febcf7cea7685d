"""The DistilBERT-to-RoBERTa confidence cascade.

Two contracts anchor :mod:`repro.matching.cascade`:

1. the cascade is invisible outside the ambiguity band: pairs whose
   primary probability falls outside ``(lo, hi)`` return the primary's
   outcome bit-identically, and the degenerate band ``[0.5, 0.5]``
   never invokes the secondary at all;
2. band calibration picks the narrowest band that keeps secondary F1
   and rejects inputs no valid band can come from.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import load_benchmark, split_dataset
from repro.matching import (CascadeBand, CascadeEngine, EntityMatcher,
                            FineTuneConfig, build_cascade, calibrate_band)
from repro.obs import MetricsRegistry
from repro.resilience import MatchOutcome
from repro.serve import (CascadeBackend, MatchService, ServeConfig,
                         VirtualClock)
from repro.utils import child_rng

pytestmark = pytest.mark.cascade


# -- fixtures ---------------------------------------------------------------

@pytest.fixture(scope="module")
def cascade_splits():
    data = load_benchmark("dblp-acm", seed=7, scale=0.04)
    return split_dataset(data, child_rng(7, "split", "dblp-acm"))


def _fit(arch, tiny_settings, tiny_zoo_dir, splits):
    matcher = EntityMatcher(
        arch, seed=0, zoo_settings=tiny_settings, zoo_dir=tiny_zoo_dir,
        finetune_config=FineTuneConfig(epochs=2, batch_size=8,
                                       max_length_cap=32))
    matcher.fit(splits.train)
    return matcher


@pytest.fixture(scope="module")
def fitted_distil(tiny_settings, tiny_zoo_dir, cascade_splits):
    return _fit("distilbert", tiny_settings, tiny_zoo_dir, cascade_splits)


@pytest.fixture(scope="module")
def fitted_roberta(tiny_settings, tiny_zoo_dir, cascade_splits):
    return _fit("roberta", tiny_settings, tiny_zoo_dir, cascade_splits)


def _record_pairs(splits, n):
    pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    return [pairs[i % len(pairs)] for i in range(n)]


# -- contract 1: cascade invariance -----------------------------------------

class _StubEngine:
    """Engine-protocol stub returning canned probabilities by pair."""

    def __init__(self, probabilities):
        self.probabilities = dict(probabilities)
        self.calls = 0
        self.seen = []

    def score_pairs(self, pairs, threshold=0.5, fallback=True, cb=None,
                    batch_size=64, keys=None, forward_hook=None,
                    stages=None):
        self.calls += 1
        keys = list(keys) if keys is not None else list(range(len(pairs)))
        self.seen.append(list(pairs))
        return [MatchOutcome(index=key,
                             probability=self.probabilities[pair],
                             matched=self.probabilities[pair] >= threshold)
                for key, pair in zip(keys, pairs)]


def _band(lo, hi):
    return CascadeBand(lo=lo, hi=hi, escalation_rate=0.0, f1=0.0,
                       secondary_f1=0.0)


class TestCascadeInvariance:

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
           st.floats(0.01, 0.45))
    @settings(max_examples=40, deadline=None)
    def test_outside_band_bit_identical_to_primary(self, probs, width):
        pairs = [f"pair-{i}" for i in range(len(probs))]
        primary = _StubEngine(dict(zip(pairs, probs)))
        secondary = _StubEngine({pair: 1.0 - prob
                                 for pair, prob in zip(pairs, probs)})
        lo, hi = 0.5 - width, 0.5 + width
        cascade = CascadeEngine(primary, secondary, _band(lo, hi),
                                registry=MetricsRegistry())
        outcomes = cascade.score_pairs(pairs)
        reference = primary.score_pairs(pairs)
        for pair, prob, outcome, base in zip(pairs, probs, outcomes,
                                             reference):
            if lo < prob < hi:
                assert outcome.probability == 1.0 - prob
            else:
                # Bit-identical to primary-only matching.
                assert outcome.probability == base.probability
                assert outcome.matched == base.matched
                assert outcome.index == base.index

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_degenerate_band_never_escalates(self, probs):
        pairs = [f"pair-{i}" for i in range(len(probs))]
        primary = _StubEngine(dict(zip(pairs, probs)))
        secondary = _StubEngine(dict(zip(pairs, probs)))
        cascade = CascadeEngine(primary, secondary, (0.5, 0.5),
                                registry=MetricsRegistry())
        cascade.score_pairs(pairs)
        assert secondary.calls == 0
        assert cascade.last_escalation_rate() == 0.0

    def test_degraded_outcomes_never_escalate(self):
        class _DegradedEngine(_StubEngine):
            def score_pairs(self, pairs, **kwargs):
                outcomes = super().score_pairs(pairs, **kwargs)
                return [MatchOutcome(index=o.index, probability=0.5,
                                     matched=False, degraded=True)
                        for o in outcomes]

        pairs = ["a", "b"]
        primary = _DegradedEngine({p: 0.5 for p in pairs})
        secondary = _StubEngine({p: 1.0 for p in pairs})
        cascade = CascadeEngine(primary, secondary, (0.0, 1.0),
                                registry=MetricsRegistry())
        outcomes = cascade.score_pairs(pairs)
        assert secondary.calls == 0
        assert all(o.degraded for o in outcomes)

    def test_rejects_invalid_band(self):
        with pytest.raises(ValueError):
            CascadeEngine(_StubEngine({}), _StubEngine({}), (0.7, 0.3),
                          registry=MetricsRegistry())

    def test_escalation_counters(self):
        pairs = ["low", "mid", "high"]
        primary = _StubEngine({"low": 0.1, "mid": 0.5, "high": 0.9})
        secondary = _StubEngine({"low": 0.0, "mid": 0.8, "high": 1.0})
        registry = MetricsRegistry()
        cascade = CascadeEngine(primary, secondary, (0.3, 0.7),
                                registry=registry)
        outcomes = cascade.score_pairs(pairs)
        assert registry.counter("cascade.pairs").snapshot()["value"] == 3
        assert registry.counter(
            "cascade.escalated.pairs").snapshot()["value"] == 1
        assert cascade.last_escalation_rate() == pytest.approx(1 / 3)
        assert [o.probability for o in outcomes] == [0.1, 0.8, 0.9]
        # Escalated outcomes keep their original keys.
        assert [o.index for o in outcomes] == [0, 1, 2]


# -- contract 2: band calibration ------------------------------------------

class TestBandCalibration:

    def test_identical_models_degenerate_to_no_escalation(self):
        probs = [0.1, 0.4, 0.6, 0.9]
        labels = [0, 0, 1, 1]
        band = calibrate_band(probs, probs, labels)
        assert band.lo == band.hi == 0.5
        assert band.escalation_rate == 0.0
        assert band.f1 == band.secondary_f1

    def test_band_widens_until_f1_recovers(self):
        # The primary is wrong near the threshold, the secondary is
        # right: only a band wide enough to cover 0.45/0.55 recovers.
        primary = [0.05, 0.45, 0.55, 0.95]
        secondary = [0.05, 0.95, 0.05, 0.95]
        labels = [0, 1, 0, 1]
        band = calibrate_band(primary, secondary, labels)
        assert band.lo < 0.45 < band.hi
        assert band.f1 == band.secondary_f1 == 1.0
        assert 0.0 < band.escalation_rate <= 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            calibrate_band([0.5], [0.5, 0.6], [1])

    @pytest.mark.parametrize("steps", [0, -3])
    def test_no_candidate_band_rejected(self, steps):
        with pytest.raises(ValueError, match="steps"):
            calibrate_band([0.4, 0.6], [0.4, 0.6], [0, 1], steps=steps)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            calibrate_band([0.4, 0.6], [0.4, 0.6], [0, 1],
                           threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.8, 1.0])
    def test_off_centre_band_stays_in_unit_interval(self, threshold):
        # The primary is wrong on every pair, so the sweep runs to its
        # widest band; that band must still be one the engine accepts.
        primary = [0.9, 0.1, 0.95, 0.05]
        secondary = [0.0, 1.0, 0.0, 1.0]
        band = calibrate_band(primary, secondary, [0, 1, 0, 1],
                              threshold=threshold)
        assert 0.0 <= band.lo <= threshold <= band.hi <= 1.0
        CascadeEngine(_StubEngine({}), _StubEngine({}), band,
                      registry=MetricsRegistry())


class TestCascadeIntegration:

    @pytest.fixture(scope="class")
    def cascade(self, fitted_distil, fitted_roberta, cascade_splits):
        return build_cascade(fitted_distil, fitted_roberta,
                             cascade_splits.validation, batch_size=16)

    def test_band_is_calibrated(self, cascade):
        band = cascade.calibration
        assert 0.0 <= band.lo <= band.hi <= 1.0
        assert band.f1 >= band.secondary_f1 - 0.005

    def test_outside_band_matches_primary_engine(self, cascade,
                                                 fitted_distil,
                                                 cascade_splits):
        pairs = _record_pairs(cascade_splits, 24)
        outcomes = cascade.score_pairs(pairs, fallback=False,
                                       batch_size=8)
        reference = fitted_distil.engine().score_pairs(
            pairs, fallback=False, batch_size=8)
        lo, hi = cascade.band
        for outcome, base in zip(outcomes, reference):
            if not lo < base.probability < hi:
                assert outcome.probability == base.probability  # bitwise

    def test_cascade_backend_matches_engine(self, cascade, cascade_splits):
        pairs = _record_pairs(cascade_splits, 16)
        direct = cascade.score_pairs(pairs, fallback=False, batch_size=8)

        service = MatchService(
            CascadeBackend(cascade, batch_size=8),
            ServeConfig(max_batch_size=len(pairs), max_wait_ms=5.0,
                        max_queue=len(pairs)),
            clock=VirtualClock(), registry=MetricsRegistry())
        tickets = service.submit_many(pairs)
        service.start()
        service.close(drain=True)
        for ticket, expected in zip(tickets, direct):
            outcome = ticket.result(timeout=60.0)
            assert outcome.probability == expected.probability  # bitwise
            assert outcome.matched == expected.matched
