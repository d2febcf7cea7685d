"""Tests for repro.analysis: linter rules, tape sanitizer, coverage audit.

Two of these are tier-1 gates on the repo itself, not just on the
analysis code: ``test_src_lints_clean`` fails the suite on any new
violation anywhere under ``src/repro``, and ``test_coverage_is_complete``
fails it when a Tensor op or Module subclass lands without test evidence.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import (AnomalyError, audit_coverage, available_rules,
                            detect_anomalies, format_json, format_text,
                            is_sanitizing, lint_paths, lint_source,
                            module_classes, tensor_ops)
from repro.cli import main
from repro.nn import Tensor
from repro.nn.observe import attached
from repro.obs import trace

pytestmark = pytest.mark.analysis

SRC = Path(repro.__file__).parent
TESTS = Path(__file__).parent


class TestSelfLint:
    def test_src_lints_clean(self):
        violations = lint_paths([SRC])
        assert not violations, "\n" + format_text(violations)

    def test_rule_catalog(self):
        rules = available_rules()
        assert len(rules) == 20
        ids = [r.id for r in rules]
        assert len(set(ids)) == len(ids)
        assert all(r.id.startswith("RA") and r.name and r.hint
                   for r in rules)


def _only(source, rule_id, package=None):
    return [v for v in lint_source(source, package=package)
            if v.rule == rule_id]


class TestLintRules:
    def test_ra101_numpy_on_tensor_data(self):
        source = ("import numpy as np\n"
                  "def f(t):\n"
                  "    return np.tanh(t.data)\n")
        hits = _only(source, "RA101", package="repro.matching.api")
        assert len(hits) == 1 and hits[0].line == 3
        # The same call inside repro.nn is the implementation, not a leak.
        assert not _only(source, "RA101", package="repro.nn.tensor")

    def test_ra102_hard_coded_dtype(self):
        source = ("import numpy as np\n"
                  "a = np.zeros(3, dtype=np.float32)\n"
                  'b = np.ones(3, dtype="float64")\n')
        hits = _only(source, "RA102", package="repro.models.foo")
        assert [v.line for v in hits] == [2, 3]
        assert not _only(source, "RA102", package="repro.nn.init")

    def test_ra103_loop_closure_late_binding(self):
        bad = ("def build(items):\n"
               "    fns = []\n"
               "    for item in items:\n"
               "        def _backward(grad):\n"
               "            return grad * item\n"
               "        fns.append(_backward)\n"
               "    return fns\n")
        assert len(_only(bad, "RA103")) == 1
        good = bad.replace("def _backward(grad):",
                           "def _backward(grad, item=item):")
        assert not _only(good, "RA103")

    def test_ra104_inference_missing_no_grad(self):
        bad = ("from repro.nn import Tensor\n"
               "def predict_proba(model, x):\n"
               "    return model(Tensor(x)).data\n")
        assert len(_only(bad, "RA104", package="repro.matching.api")) == 1
        good = ("from repro.nn import Tensor, no_grad\n"
                "@no_grad()\n"
                "def predict_proba(model, x):\n"
                "    return model(Tensor(x)).data\n")
        assert not _only(good, "RA104", package="repro.matching.api")

    def test_ra104_delegation_counts(self):
        source = ("from repro.nn import Tensor, no_grad\n"
                  "def _infer(model, x):\n"
                  "    with no_grad():\n"
                  "        return model(Tensor(x))\n"
                  "def predict(model, x):\n"
                  "    return _infer(model, x).data\n")
        assert not _only(source, "RA104", package="repro.matching.api")

    def test_ra104_needs_nn_import(self):
        # Pure-numpy learners (magellan baselines) never record a tape.
        source = ("import numpy as np\n"
                  "def predict_proba(w, x):\n"
                  "    return x @ w\n")
        assert not _only(source, "RA104", package="repro.baselines.x")

    def test_ra105_unregistered_parameter(self):
        bad = ("from repro.nn import Module, Tensor\n"
               "class Layer(Module):\n"
               "    def __init__(self):\n"
               "        super().__init__()\n"
               "        self.scale = Tensor([1.0], requires_grad=True)\n")
        assert len(_only(bad, "RA105")) == 1
        good = bad.replace("Tensor([1.0], requires_grad=True)",
                           "Parameter([1.0])")
        assert not _only(good, "RA105")

    def test_ra106_mutable_default(self):
        source = "def f(x, acc=[], opts={}):\n    return x\n"
        assert len(_only(source, "RA106")) == 2

    def test_ra107_export_drift_both_directions(self):
        source = ('__all__ = ["gone"]\n'
                  "def present():\n"
                  '    """doc"""\n')
        hits = _only(source, "RA107")
        messages = " / ".join(v.message for v in hits)
        assert "gone" in messages and "present" in messages

    def test_ra110_forward_outside_no_grad(self):
        bad = ("from repro.nn import Tensor\n"
               "def match_all(pairs, classifier):\n"
               "    return [classifier(p) for p in pairs]\n"
               "def eval_loop(batches, model):\n"
               "    return [model.forward(b) for b in batches]\n")
        hits = _only(bad, "RA110", package="repro.matching.api")
        assert [v.line for v in hits] == [3, 5]
        good = bad.replace("from repro.nn import Tensor",
                           "from repro.nn import Tensor, no_grad")
        good = good.replace("return [classifier(p) for p in pairs]",
                            "with no_grad():\n"
                            "        return [classifier(p) for p in pairs]")
        good = good.replace("return [model.forward(b) for b in batches]",
                            "with no_grad():\n"
                            "        return [model.forward(b) "
                            "for b in batches]")
        assert not _only(good, "RA110", package="repro.matching.api")

    def test_ra110_delegation_and_inference_mode(self):
        source = ("from repro.nn import no_grad\n"
                  "def _match_fast(pairs, model):\n"
                  "    with no_grad():\n"
                  "        return [model(p) for p in pairs]\n"
                  "def match_many(pairs, model):\n"
                  "    return _match_fast(pairs, model)\n")
        assert not _only(source, "RA110", package="repro.matching.api")

    def test_ra110_needs_nn_import(self):
        source = ("import numpy as np\n"
                  "def match_all(pairs, classifier):\n"
                  "    return [classifier(p) for p in pairs]\n")
        assert not _only(source, "RA110", package="repro.baselines.x")

    def test_ra111_blocking_sleep_in_serve(self):
        bad = ("import time\n"
               "def wait_for_batch(cond):\n"
               "    time.sleep(0.005)\n"
               "    cond.wait(timeout=0.005)\n")
        hits = _only(bad, "RA111", package="repro.serve.service")
        assert [v.line for v in hits] == [3]

    def test_ra111_timed_threading_wait(self):
        source = ("def park(lock, event):\n"
                  "    event.wait(timeout=1.0)\n"
                  "    lock.acquire(timeout=1.0)\n")
        hits = _only(source, "RA111", package="repro.serve.service")
        assert [v.line for v in hits] == [2, 3]

    def test_ra111_clock_condition_waits_allowed(self):
        source = ("def park(cond, clock):\n"
                  "    cond.wait_for(lambda: True, timeout=1.0)\n"
                  "    clock.sleep(0.1)\n")
        assert not _only(source, "RA111", package="repro.serve.service")

    def test_ra111_only_applies_to_serve(self):
        source = "import time\ndef f():\n    time.sleep(1)\n"
        assert not _only(source, "RA111", package="repro.matching.api")
        assert not _only(source, "RA111", package="repro.serve.clock")
        assert _only(source, "RA111", package="repro.serve.sim")

    def test_ra112_bare_span_flagged(self):
        bad = ("def score(tracer, stages, pairs):\n"
               "    span = tracer.span('forward')\n"
               "    record = stages.stage('tokenize', pairs=len(pairs))\n"
               "    return pairs\n")
        hits = _only(bad, "RA112", package="repro.serve.backends")
        assert [v.line for v in hits] == [2, 3]
        assert _only(bad, "RA112", package="repro.matching.engine")

    def test_ra112_with_and_enter_context_allowed(self):
        good = ("from contextlib import ExitStack\n"
                "def score(tracer, stages, pairs):\n"
                "    with tracer.span('forward'):\n"
                "        pass\n"
                "    with ExitStack() as scope:\n"
                "        record = scope.enter_context(\n"
                "            stages.stage('tokenize', pairs=len(pairs)))\n"
                "    return record\n")
        assert not _only(good, "RA112", package="repro.serve.backends")

    def test_ra112_trace_start_without_with(self):
        bad = ("def admit(tracer, now):\n"
               "    tracer.start('request', start=now)\n")
        assert len(_only(bad, "RA112",
                         package="repro.serve.service")) == 1
        # Non-tracing receivers may call .start() bare (threads, the
        # service itself), and the cross-thread lifecycle API is exempt.
        fine = ("def boot(thread, tracer, request):\n"
                "    thread.start()\n"
                "    tracer.begin_request(request_id=request)\n")
        assert not _only(fine, "RA112", package="repro.serve.service")

    def test_ra112_only_applies_to_serve_and_matching(self):
        source = "def f(tracer):\n    return tracer.span('x')\n"
        assert not _only(source, "RA112", package="repro.obs.tracing")
        assert _only(source, "RA112", package="repro.serve.service")
        assert _only(source, "RA112", package="repro.matching.api")

    def test_ra118_tight_retry_loop_flagged(self):
        bad = ("def naive(service, a, b):\n"
               "    while True:\n"
               "        try:\n"
               "            return service.submit(a, b)\n"
               "        except ServiceOverloaded:\n"
               "            continue\n")
        hits = _only(bad, "RA118", package="tools.client")
        assert len(hits) == 1
        assert "backoff" in hits[0].message

    def test_ra118_backoff_between_attempts_allowed(self):
        good = ("def patient(service, clock, a, b):\n"
                "    while True:\n"
                "        try:\n"
                "            return service.submit(a, b)\n"
                "        except ServiceOverloaded as exc:\n"
                "            clock.sleep(exc.retry_after)\n")
        assert not _only(good, "RA118", package="tools.client")
        timer = ("def scheduled(service, policy, a, b):\n"
                 "    for attempt in range(1, 4):\n"
                 "        try:\n"
                 "            return service.submit(a, b)\n"
                 "        except ServeError:\n"
                 "            wait(policy.backoff(0, attempt))\n")
        assert not _only(timer, "RA118", package="tools.client")

    def test_ra118_reraising_handler_allowed(self):
        bail = ("def bail(service, a, b):\n"
                "    for _ in range(3):\n"
                "        try:\n"
                "            return service.submit(a, b)\n"
                "        except ServiceClosed:\n"
                "            raise\n")
        assert not _only(bail, "RA118", package="tools.client")

    def test_ra118_needs_submit_and_serve_error(self):
        no_submit = ("def poll(fetch):\n"
                     "    while True:\n"
                     "        try:\n"
                     "            return fetch()\n"
                     "        except RequestTimeout:\n"
                     "            continue\n")
        assert not _only(no_submit, "RA118", package="tools.client")
        foreign = ("def other(service, a, b):\n"
                   "    while True:\n"
                   "        try:\n"
                   "            return service.submit(a, b)\n"
                   "        except KeyError:\n"
                   "            continue\n")
        assert not _only(foreign, "RA118", package="tools.client")

    def test_ra119_raw_payload_arithmetic_flagged(self):
        bad = ("import numpy as np\n"
               "from repro.nn import ACC_DTYPE\n"
               "def qforward(x, quantized, w_int8, scale):\n"
               "    out = x @ quantized.q.T\n"
               "    y = w_int8 * scale\n"
               "    return out, y, np.matmul(x, quantized.q)\n")
        hits = _only(bad, "RA119", package="tools.quantized")
        assert len(hits) == 3
        assert all("float64" in hit.message for hit in hits)

    def test_ra119_cast_payload_allowed(self):
        good = ("import numpy as np\n"
                "from repro.nn import ACC_DTYPE\n"
                "def qforward(x, quantized, w_int8):\n"
                "    a = x @ quantized.q.astype(ACC_DTYPE).T\n"
                "    b = quantized.q32 @ x\n"
                "    c = x @ w_int8.astype(ACC_DTYPE)\n"
                "    shape = quantized.q.shape\n"
                "    return a, b, c, shape\n")
        assert not _only(good, "RA119", package="tools.quantized")

    def test_ra119_bare_q_is_the_attention_query(self):
        # A float array named `q` (the attention query) is not a quant
        # payload; only the .q attribute / q8-int8 names match.
        fine = ("import numpy as np\n"
                "from repro.nn import ACC_DTYPE\n"
                "def attention(q, k, v, scale):\n"
                "    return (q @ np.swapaxes(k, -1, -2)) * scale\n")
        assert not _only(fine, "RA119", package="tools.quantized")

    def test_ra119_only_applies_to_nn_importers(self):
        source = ("def f(x, quantized):\n"
                  "    return x @ quantized.q.T\n")
        assert not _only(source, "RA119", package="tools.quantized")

    def test_ra120_itertools_product_over_records_flagged(self):
        bad = ("import itertools\n"
               "def pair_all(records_a, records_b):\n"
               "    return list(itertools.product(records_a, "
               "records_b))\n")
        hits = _only(bad, "RA120", package="repro.evaluation.pairing")
        assert len(hits) == 1
        assert "cross product" in hits[0].message

    def test_ra120_nested_comprehension_flagged(self):
        bad = ("def pair_all(records):\n"
               "    return [(a, b) for a in records for b in records]\n")
        hits = _only(bad, "RA120", package="repro.evaluation.pairing")
        assert len(hits) == 1

    def test_ra120_blocking_module_exempt(self):
        source = ("import itertools\n"
                  "def pair_all(records_a, records_b):\n"
                  "    return list(itertools.product(records_a, "
                  "records_b))\n")
        assert not _only(source, "RA120", package="repro.data.blocking")

    def test_ra120_non_record_product_allowed(self):
        fine = ("import itertools\n"
                "def grid(widths, heights):\n"
                "    return list(itertools.product(widths, heights))\n"
                "def single(records, flags):\n"
                "    return [(r, f) for r in records for f in flags]\n")
        assert not _only(fine, "RA120", package="repro.evaluation.grid")

    def test_ra108_legacy_global_rng(self):
        source = ("import numpy as np\n"
                  "a = np.random.rand(3)\n"
                  "rng = np.random.default_rng(0)\n")
        hits = _only(source, "RA108")
        assert len(hits) == 1 and hits[0].line == 2

    def test_formatters(self):
        hits = lint_source("def f(x, acc=[]):\n    return acc\n",
                           path="snippet.py")
        text = format_text(hits)
        assert "snippet.py:1" in text and "RA106" in text
        payload = json.loads(format_json(hits))
        assert payload["count"] == 1
        assert payload["violations"][0]["rule"] == "RA106"
        assert json.loads(format_json([])) == {"violations": [],
                                               "count": 0}


def _nan_op(t):
    """An op that injects a NaN through the public tape API."""
    mask = np.zeros(t.shape, dtype=bool)
    mask.flat[0] = True
    return t.masked_fill(mask, float("nan"))


class TestSanitizer:
    def test_forward_nan_names_op(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with detect_anomalies():
            with pytest.raises(AnomalyError) as err:
                _nan_op(x)
        assert err.value.op == "masked_fill"
        assert err.value.phase == "forward"
        assert "masked_fill" in str(err.value)

    def test_backward_inf_names_op(self):
        x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        with detect_anomalies():
            y = (x ** 0.5).sum()
            with pytest.raises(AnomalyError) as err:
                with np.errstate(divide="ignore"):
                    y.backward()
        assert err.value.op == "pow"
        assert err.value.phase == "backward"

    def test_span_path_in_message(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with trace("unit-test-span"), detect_anomalies():
            with pytest.raises(AnomalyError) as err:
                _nan_op(x)
        assert "unit-test-span" in str(err.value)
        assert err.value.span_path == "unit-test-span"

    def test_dead_parameter_detected(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        with detect_anomalies(parameters=[used, unused]):
            with pytest.raises(AnomalyError) as err:
                (used * 2.0).sum().backward()
        assert "never received a gradient" in str(err.value)

    def test_dead_reachable_leaf_detected(self):
        # A hand-rolled op whose backward forgets its parent entirely.
        t = Tensor(np.ones(3), requires_grad=True)
        out = t._make(t.data * 1.0, (t,))

        def _backward(grad):
            pass

        out._backward = _backward
        with detect_anomalies():
            with pytest.raises(AnomalyError) as err:
                out.sum().backward()
        assert "received no gradient" in str(err.value)

    def test_gradient_shape_mismatch_detected(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        out = t._make(t.data.sum(axis=0), (t,))

        def _backward(grad, a=t):
            a._accumulate(grad)   # forgets to broadcast back to (2, 3)

        out._backward = _backward
        with detect_anomalies(check_dead_leaves=False):
            with pytest.raises(AnomalyError) as err:
                out.sum().backward()
        assert "shape" in str(err.value)

    def test_silent_promotion_detected(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)

        def promoting_op(tensor):
            return tensor._make(tensor.data.astype(np.float64), (tensor,))

        with detect_anomalies():
            with pytest.raises(AnomalyError) as err:
                promoting_op(t)
        assert err.value.op == "promoting_op"
        assert "promoted" in str(err.value)

    def test_clean_training_step_passes(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))
        with detect_anomalies(parameters=[w]):
            loss = ((x @ w).tanh() ** 2).sum()
            loss.backward()
        assert np.isfinite(w.grad).all()

    def test_hooks_restored_even_on_error(self):
        orig_make, orig_backward = Tensor._make, Tensor.backward
        assert not is_sanitizing()
        with pytest.raises(AnomalyError):
            with detect_anomalies():
                assert is_sanitizing()
                assert Tensor._make is orig_make
                _nan_op(Tensor(np.ones(2), requires_grad=True))
        assert Tensor._make is orig_make
        assert Tensor.backward is orig_backward
        assert not is_sanitizing()
        assert attached() == ()

    def test_nesting_forbidden(self):
        with detect_anomalies():
            with pytest.raises(RuntimeError, match="nested"):
                with detect_anomalies():
                    pass

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            detect_anomalies(check_promotion="loudly")


class TestAuditor:
    def test_ops_enumerated(self):
        ops = tensor_ops()
        assert {"matmul", "softmax", "layer_norm", "getitem", "sum",
                "sqrt", "mean", "embedding"} <= set(ops)
        assert "backward" not in ops and "zero_grad" not in ops

    def test_module_classes_transitive(self):
        modules = module_classes()
        assert "BertModel" in modules
        assert "RobertaModel" in modules     # inherits Module via BertModel
        assert not any(name.startswith("_") for name in modules)

    def test_coverage_is_complete(self):
        report = audit_coverage(tests_root=TESTS)
        assert report.is_complete(), "\n" + report.as_text()

    def test_report_formats(self):
        report = audit_coverage(tests_root=TESTS)
        payload = json.loads(report.as_json())
        assert payload["uncovered_ops"] == []
        assert payload["uncovered_modules"] == []
        assert payload["ops"]["matmul"]["covered"] is True
        assert "coverage complete" in report.as_text()

    def test_gaps_detected_against_empty_suite(self, tmp_path):
        (tmp_path / "test_nothing.py").write_text("def test_noop():\n"
                                                  "    assert True\n")
        report = audit_coverage(tests_root=tmp_path)
        assert report.uncovered_ops and report.uncovered_modules
        assert not report.is_complete()


class TestCli:
    def test_lint_clean_exit_zero(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violation_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x, acc=[]):\n    return acc\n")
        assert main(["lint", str(bad)]) == 1
        assert "RA106" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x, acc=[]):\n    return acc\n")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_lint_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n"
                       "def f(x, acc=[]):\n"
                       "    return np.random.rand(3)\n")
        assert main(["lint", str(bad), "--rules", "RA108"]) == 1
        out = capsys.readouterr().out
        assert "RA108" in out and "RA106" not in out

    def test_lint_unknown_rule_exit_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--rules", "RA999"]) == 2

    def test_audit_strict_exit_zero(self, capsys):
        assert main(["audit", "--strict", "--tests", str(TESTS)]) == 0
        assert "0 uncovered" in capsys.readouterr().out

    def test_audit_json(self, capsys):
        assert main(["audit", "--format", "json",
                     "--tests", str(TESTS)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["uncovered_ops"] == []

    def test_audit_strict_fails_on_gap(self, tmp_path, capsys):
        (tmp_path / "test_nothing.py").write_text("def test_noop():\n"
                                                  "    assert True\n")
        assert main(["audit", "--strict", "--tests", str(tmp_path)]) == 1
