"""int8 quantization and the confidence cascade.

Three contracts anchor the quant/cascade layer:

1. quantize -> dequantize error is bounded by half a grid step per
   output channel, and the quantized kernels accumulate in ``ACC_DTYPE``
   (never NEP-50-promoted float64);
2. calibrated int8 inference preserves match *decisions* on held-out
   pairs — the acceptance gate is agreement, not speed;
3. the cascade is invisible outside the ambiguity band: pairs whose
   primary probability falls outside ``(lo, hi)`` return the primary's
   outcome bit-identically, and the degenerate band ``[0.5, 0.5]``
   never invokes the secondary at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import load_benchmark, split_dataset
from repro.matching import (CascadeBand, CascadeEngine, EntityMatcher,
                            FineTuneConfig, build_cascade, calibrate_band)
from repro.nn import (ACC_DTYPE, CheckpointError, QuantizedLinear,
                      QuantizedWeights, dequantize, quantize_per_channel)
from repro.nn.fused import count_kernels, qlinear
from repro.nn.quant import QMAX
from repro.obs import MetricsRegistry
from repro.resilience import MatchOutcome
from repro.serve import (CascadeBackend, MatchService, ServeConfig,
                         VirtualClock)
from repro.utils import child_rng

pytestmark = pytest.mark.quant


# -- fixtures ---------------------------------------------------------------

@pytest.fixture(scope="module")
def quant_splits():
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
def fitted_distil(tiny_settings, tiny_zoo_dir, quant_splits):
    return _fit("distilbert", tiny_settings, tiny_zoo_dir, quant_splits)


@pytest.fixture(scope="module")
def fitted_roberta(tiny_settings, tiny_zoo_dir, quant_splits):
    return _fit("roberta", tiny_settings, tiny_zoo_dir, quant_splits)


def _record_pairs(splits, n):
    pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    return [pairs[i % len(pairs)] for i in range(n)]


# -- contract 1: quantization math ------------------------------------------

class TestQuantizeRoundTrip:

    @given(st.integers(1, 6), st.integers(1, 8),
           st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_error_bounded_by_half_step(self, rows, cols,
                                                   seed, spread):
        rng = np.random.default_rng(seed)
        weight = rng.normal(scale=spread,
                            size=(rows, cols)).astype(ACC_DTYPE)
        grid, scale = quantize_per_channel(weight)
        assert grid.dtype == np.int8
        assert np.all(np.abs(grid.astype(np.int32)) <= QMAX)
        back = dequantize(grid, scale)
        # Half a grid step per channel, plus float32 rounding slack.
        bound = scale[:, None] * (0.5 + 1e-4)
        assert np.all(np.abs(back - weight) <= bound)

    def test_zero_rows_round_trip_exactly(self):
        weight = np.zeros((3, 4), dtype=ACC_DTYPE)
        weight[1] = 0.25
        grid, scale = quantize_per_channel(weight)
        back = dequantize(grid, scale)
        assert np.all(back[0] == 0.0) and np.all(back[2] == 0.0)
        assert np.allclose(back[1], 0.25, atol=float(scale[1]))

    def test_rejects_non_matrix_weights(self):
        with pytest.raises(ValueError):
            quantize_per_channel(np.zeros(4, dtype=ACC_DTYPE))

    def test_rejects_non_int8_payload(self):
        with pytest.raises(ValueError):
            QuantizedLinear(q=np.zeros((2, 2), dtype=np.int32),
                            scale=np.ones(2, dtype=ACC_DTYPE), bias=None,
                            act_range=np.ones(2, dtype=ACC_DTYPE))

    def test_qlinear_accumulates_in_acc_dtype(self, rng):
        x = rng.normal(size=(4, 8)).astype(ACC_DTYPE)
        weight = rng.normal(size=(5, 8)).astype(ACC_DTYPE)
        bias = rng.normal(size=5).astype(ACC_DTYPE)
        grid, scale = quantize_per_channel(weight)
        quantized = QuantizedLinear(
            q=grid, scale=scale, bias=bias,
            act_range=np.abs(x).max(axis=0).astype(ACC_DTYPE))
        out = qlinear(x, quantized)
        assert out.dtype == ACC_DTYPE
        assert quantized.q32.dtype == ACC_DTYPE
        reference = x @ weight.T + bias
        # Worst case: half a step of weight error against each input
        # plus half a step of activation error against each weight.
        atol = x.shape[-1] * (
            float(np.abs(x).max()) * float(scale.max()) / 2.0
            + (float(np.abs(weight).max()) + float(scale.max()))
            * quantized.act_scale / 2.0) * 1.5 + 1e-6
        assert np.max(np.abs(out - reference)) <= atol


class TestQuantizedWeightsArtifact:

    def _weights(self, rng):
        layers = {}
        for name, (out, inp) in (("backbone.layer0", (6, 4)),
                                 ("head", (2, 6))):
            weight = rng.normal(size=(out, inp)).astype(ACC_DTYPE)
            grid, scale = quantize_per_channel(weight)
            layers[name] = QuantizedLinear(
                q=grid, scale=scale,
                bias=rng.normal(size=out).astype(ACC_DTYPE),
                act_range=np.abs(rng.normal(
                    size=inp)).astype(ACC_DTYPE))
        return QuantizedWeights(layers, metadata={"arch": "test"})

    def test_save_load_round_trip(self, rng, tmp_path):
        weights = self._weights(rng)
        path = tmp_path / "w-int8.npz"
        weights.save(path)
        loaded = QuantizedWeights.load(path)
        assert sorted(loaded.layers) == sorted(weights.layers)
        assert loaded.metadata["arch"] == "test"
        for name, original in weights.layers.items():
            restored = loaded.layers[name]
            assert restored.q.dtype == np.int8
            assert np.array_equal(restored.q, original.q)
            assert np.array_equal(restored.scale, original.scale)
            assert np.array_equal(restored.bias, original.bias)
            assert restored.act_scale == original.act_scale

    def test_load_rejects_foreign_checkpoint(self, rng, tmp_path):
        from repro.nn import save_checkpoint
        path = tmp_path / "other.npz"
        save_checkpoint(path, {"x": np.zeros(2, dtype=np.int8)},
                        metadata={"kind": "something-else"})
        with pytest.raises(CheckpointError):
            QuantizedWeights.load(path)

    def test_overlay_rejects_mismatched_module(self, rng):
        weights = self._weights(rng)

        class _FakeParam:
            def __init__(self, shape):
                self.data = np.zeros(shape, dtype=ACC_DTYPE)

        class _FakeModule:
            def named_parameters(self):
                # head is missing, layer0 has the wrong shape.
                return {"backbone.layer0.weight": _FakeParam((3, 3))}.items()

        with pytest.raises(CheckpointError) as excinfo:
            weights.overlay_for(_FakeModule())
        assert "backbone.layer0" in str(excinfo.value)
        assert "head" in str(excinfo.value)


# -- contract 2: calibrated inference consistency ---------------------------

class TestCalibratedInference:

    @pytest.fixture(scope="class")
    def calibrated_distil(self, fitted_distil, quant_splits):
        pairs = [(p.record_a, p.record_b)
                 for p in quant_splits.train.pairs]
        fitted_distil.quantize(pairs[:32], batch_size=16)
        return fitted_distil, pairs[32:64]

    def test_calibration_covers_layers(self, calibrated_distil):
        matcher, _ = calibrated_distil
        weights = matcher.quantized_weights
        assert len(weights.layers) > 0
        for quantized in weights.layers.values():
            assert quantized.q.dtype == np.int8
        classifier = matcher._require_fitted().classifier
        assert weights.nbytes < sum(
            p.data.nbytes
            for n, p in classifier.named_parameters()
            if n.endswith(".weight"))

    def test_decision_consistency_gate(self, calibrated_distil):
        matcher, holdout = calibrated_distil
        report = matcher.quantization_consistency(holdout, batch_size=16)
        assert report.pairs == len(holdout)
        assert report.consistency >= 0.95
        assert report.max_probability_delta < 0.05

    def test_quantized_kernels_fully_cover_forward(self,
                                                   calibrated_distil,
                                                   quant_splits):
        matcher, _ = calibrated_distil
        engine = matcher.engine(quantized=True)
        with count_kernels() as counts:
            engine.score_pairs(_record_pairs(quant_splits, 4),
                               fallback=False, batch_size=4)
        assert counts.get("qlinear", 0) > 0
        assert counts.get("qattention_core", 0) > 0
        # Every linear the forward runs must be calibrated, the FFN
        # expand/project pairs included: a partial overlay would
        # silently mix float and int8 layers.
        assert counts.get("linear", 0) == 0

    def test_quantized_matching_requires_artifact(self, fitted_roberta):
        with pytest.raises(RuntimeError):
            fitted_roberta.engine(quantized=True)

    def test_artifact_reload_reproduces_decisions(self, calibrated_distil,
                                                  quant_splits, tmp_path):
        matcher, _ = calibrated_distil
        pairs = _record_pairs(quant_splits, 8)
        before = matcher.match_many(pairs, fast=True, quantized=True,
                                    batch_size=4)
        path = tmp_path / "distil-int8.npz"
        matcher.quantized_weights.save(path)
        matcher.load_quantized(path)
        after = matcher.match_many(pairs, fast=True, quantized=True,
                                   batch_size=4)
        for x, y in zip(before, after):
            assert x.probability == y.probability  # bitwise
            assert x.matched == y.matched


# -- contract 3: cascade invariance -----------------------------------------

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


class TestCascadeIntegration:

    @pytest.fixture(scope="class")
    def cascade(self, fitted_distil, fitted_roberta, quant_splits):
        return build_cascade(fitted_distil, fitted_roberta,
                             quant_splits.validation, batch_size=16)

    def test_band_is_calibrated(self, cascade):
        band = cascade.calibration
        assert 0.0 <= band.lo <= band.hi <= 1.0
        assert band.f1 >= band.secondary_f1 - 0.005

    def test_outside_band_matches_primary_engine(self, cascade,
                                                 fitted_distil,
                                                 quant_splits):
        pairs = _record_pairs(quant_splits, 24)
        outcomes = cascade.score_pairs(pairs, fallback=False,
                                       batch_size=8)
        reference = fitted_distil.engine().score_pairs(
            pairs, fallback=False, batch_size=8)
        lo, hi = cascade.band
        for outcome, base in zip(outcomes, reference):
            if not lo < base.probability < hi:
                assert outcome.probability == base.probability  # bitwise

    def test_cascade_backend_matches_engine(self, cascade, quant_splits):
        pairs = _record_pairs(quant_splits, 16)
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
