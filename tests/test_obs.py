"""Observability layer: registry math, spans, events, profiler, wiring."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis import AnomalyError, detect_anomalies, is_sanitizing
from repro.cli import main
from repro.matching import FineTuneConfig, FineTuneResult, fine_tune
from repro.nn import Tensor
from repro.nn.fused import count_kernels
from repro.nn.observe import attached
from repro.obs import (JsonlSink, LoggingCallback,
                       MemorySink, MetricsRegistry, NullSink,
                       TelemetryCallback, TelemetryRun, Tracer,
                       aggregate_spans, default_tracer, load_report,
                       profile, read_events, render_report, trace,
                       validate_event)

pytestmark = pytest.mark.obs


class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("steps").inc()
        registry.counter("steps").inc(2)
        registry.gauge("loss").set(0.25)
        snap = registry.snapshot()
        assert snap["steps"] == {"kind": "counter", "value": 3.0}
        assert snap["loss"]["value"] == 0.25

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_quantiles_exact(self):
        h = MetricsRegistry().histogram("latency")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.min == 1.0 and h.max == 100.0
        assert abs(h.mean - 50.5) < 1e-9
        assert abs(h.p50 - 50.5) < 1e-9
        assert abs(h.quantile(0.95) - 95.05) < 1e-9
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_histogram_decimation_bounded_and_close(self):
        h = MetricsRegistry().histogram("big", max_samples=128)
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000
        assert len(h._samples) <= 128
        assert h.max == 9999.0
        # Decimated quantiles stay within a few percent of truth.
        assert abs(h.p50 - 5000.0) < 500.0
        assert abs(h.p95 - 9500.0) < 500.0

    def test_empty_histogram_snapshot(self):
        h = MetricsRegistry().histogram("empty")
        assert h.snapshot() == {"kind": "histogram", "count": 0}


class TestTracing:
    def test_span_nesting_and_exclusive_time(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            time.sleep(0.005)
            with tracer.span("inner") as inner:
                time.sleep(0.01)
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.duration >= inner.duration
        assert abs(outer.exclusive - (outer.duration - inner.duration)) \
            < 1e-9
        assert inner.exclusive == inner.duration

    def test_walk_paths(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        walked = list(tracer.completed[0].walk())
        assert [(s.name, d, p) for s, d, p in walked] == \
            [("a", 0, "a"), ("b", 1, "a/b")]

    def test_mark_and_since(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        mark = tracer.mark()
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.since(mark)] == ["second"]

    def test_aggregate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("epoch"):
                with tracer.span("eval"):
                    pass
        stats = aggregate_spans(tracer.completed)
        assert stats["epoch"]["count"] == 3
        assert stats["eval"]["count"] == 3
        assert stats["epoch"]["total"] >= stats["epoch"]["exclusive"]

    def test_default_trace_helper(self):
        mark = default_tracer().mark()
        with trace("helper-span"):
            pass
        assert default_tracer().since(mark)[-1].name == "helper-span"

    def test_threads_nest_separately(self):
        # Two threads hold spans open at once: each builds its own tree
        # and sees only its own open spans, whichever exits first.
        tracer = Tracer()
        both_open = threading.Barrier(2, timeout=5.0)
        a_closed = threading.Event()
        paths = {}

        def run(name):
            with tracer.span(name):
                with tracer.span(f"{name}.inner"):
                    both_open.wait()
                    paths[name] = tracer.active_path()
                if name == "b":
                    a_closed.wait(5.0)
            if name == "a":
                a_closed.set()

        threads = [threading.Thread(target=run, args=(name,))
                   for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert paths == {"a": "a/a.inner", "b": "b/b.inner"}
        roots = {root.name: root for root in tracer.completed}
        assert sorted(roots) == ["a", "b"]
        for name, root in roots.items():
            assert root.parent_id is None
            assert root.stage_names() == [f"{name}.inner"]
            assert root.children[0].parent_id == root.span_id
        assert roots["a"].trace_id != roots["b"].trace_id
        assert tracer.active_path() == ""

    def test_lifecycle_leaves_thread_stack_alone(self):
        tracer = Tracer()
        with tracer.span("outer"):
            root = tracer.begin_request()
            tracer.attach(root, "stage", start=0.0, end=0.0)
            tracer.finish(root)
            assert tracer.active_path() == "outer"
        assert [s.name for s in tracer.completed] \
            == ["serve.request", "outer"]
        assert tracer.completed[1].children == []

    def test_concurrent_spans_and_requests(self):
        # More threads than cores on a short switch interval: every root
        # is counted once, span ids stay unique, trees stay per thread.
        tracer = Tracer(max_traces=64)
        mark = tracer.mark()
        workers, rounds = 8, 50

        def run(i):
            for _ in range(rounds):
                with tracer.span(f"thread-{i}"):
                    with tracer.span("inner"):
                        pass
                root = tracer.begin_request()
                tracer.attach(root, "stage", start=0.0, end=0.0)
                tracer.finish(root)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tracer.mark() - mark == workers * rounds * 2
        retained = tracer.since(mark)
        assert len(retained) == 64
        ids = [span.span_id for root in retained
               for span, _, _ in root.walk()]
        assert len(ids) == len(set(ids))
        for root in retained:
            expected = "stage" if root.name == "serve.request" else "inner"
            assert root.stage_names() == [expected]

    def test_since_counts_past_a_ring(self):
        tracer = Tracer(max_traces=2)
        mark = tracer.mark()
        for name in "abc":
            tracer.finish(tracer.begin_request(name))
        assert [s.name for s in tracer.since(mark)] == ["b", "c"]
        mark = tracer.mark()
        tracer.finish(tracer.begin_request("d"))
        assert [s.name for s in tracer.since(mark)] == ["d"]


class TestEvents:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run = TelemetryRun(JsonlSink(path), run_id="test-run")
        run.emit("run_begin", command="test")
        with run.span("phase"):
            pass
        run.registry.counter("train.steps").inc(5)
        run.emit("step", step=0, loss=0.5, lr=1e-3)
        run.close()

        events = read_events(path)
        for event in events:
            validate_event(event)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_begin"
        assert kinds[-1] == "run_end"
        assert "span" in kinds and "metric" in kinds and "step" in kinds
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert all(e["run_id"] == "test-run" for e in events)

    def test_close_is_idempotent(self, tmp_path):
        run = TelemetryRun(JsonlSink(tmp_path / "r.jsonl"), run_id="r")
        run.close()
        run.close()
        assert len(read_events(tmp_path / "r.jsonl")) == 1  # run_end only

    def test_validate_rejects_bad_events(self):
        good = {"run_id": "r", "ts": 1.0, "seq": 0, "kind": "step",
                "payload": {"step": 0, "loss": 0.1}}
        validate_event(good)
        with pytest.raises(ValueError):
            validate_event({**good, "kind": "nope"})
        with pytest.raises(ValueError):
            validate_event({**good, "payload": {"step": 0}})  # no loss
        with pytest.raises(ValueError):
            validate_event({k: v for k, v in good.items() if k != "ts"})
        with pytest.raises(ValueError):
            validate_event("not a dict")

    def test_emit_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            TelemetryRun(NullSink()).emit("bogus")

    def test_null_sink_drops_everything(self):
        run = TelemetryRun(NullSink(), run_id="quiet")
        run.emit("run_begin")
        run.close()  # no error, nothing persisted


class TestProfiler:
    def test_matmul_flops_exact(self):
        with profile() as prof:
            a = Tensor(np.ones((4, 5)), requires_grad=True)
            b = Tensor(np.ones((5, 3)))
            c = a @ b
        assert prof.ops["matmul"].calls == 1
        assert prof.ops["matmul"].flops == 2 * 4 * 5 * 3
        assert prof.ops["matmul"].bytes == c.data.nbytes

    def test_backward_estimate_is_twice_forward(self):
        with profile() as prof:
            a = Tensor(np.ones((4, 5)), requires_grad=True)
            loss = (a @ Tensor(np.ones((5, 3)))).sum()
            forward = prof.total_flops
            loss.backward()
        assert prof.ops["backward"].calls == 1
        assert prof.ops["backward"].flops == pytest.approx(2 * forward)

    def test_op_kinds_normalized(self):
        with profile() as prof:
            a = Tensor(np.ones(8), requires_grad=True)
            _ = (1.0 + a) * 2.0 - a
            _ = a.softmax()
        assert "add" in prof.ops and "mul" in prof.ops
        assert "softmax" in prof.ops
        assert not any(k.startswith("__") for k in prof.ops)

    def test_methods_kept_and_slot_empty_after_exit(self):
        original_make = Tensor._make
        original_backward = Tensor.backward
        with profile() as prof:
            assert Tensor._make is original_make
            assert Tensor.backward is original_backward
            assert attached() == (prof,)
        assert Tensor._make is original_make
        assert Tensor.backward is original_backward
        assert attached() == ()

    def test_slot_empty_after_error(self):
        original_make = Tensor._make
        with pytest.raises(RuntimeError, match="boom"):
            with profile():
                raise RuntimeError("boom")
        assert Tensor._make is original_make
        assert attached() == ()

    def test_nesting_rejected(self):
        with profile():
            with pytest.raises(RuntimeError, match="nested"):
                with profile():
                    pass

    def test_table_renders(self):
        with profile() as prof:
            _ = Tensor(np.ones((2, 2))) @ Tensor(np.ones((2, 2)))
        table = prof.table()
        assert "matmul" in table and "MFLOPs" in table


@pytest.mark.analysis
class TestObserverSlot:
    """The profiler, the tape sanitizer and the kernel counter share one
    per-thread observer slot."""

    def test_count_kernels_nest(self):
        with count_kernels() as outer:
            Tensor(np.ones(4)).softmax()
            with count_kernels() as inner:
                Tensor(np.ones(4)).gelu()
            Tensor(np.ones(4)).softmax()
        assert inner == {"gelu": 1}
        assert outer == {"softmax": 2, "gelu": 1}
        assert attached() == ()

    def test_stacked_observers_each_see_every_event(self):
        with profile() as prof, detect_anomalies(), \
                count_kernels() as kernels:
            x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
            y = (x ** 0.5 + x.softmax()).sum()
            with pytest.raises(AnomalyError) as err, \
                    np.errstate(divide="ignore"):
                y.backward()
        # The sanitizer saw the op and checked its backward closure.
        assert err.value.op == "pow" and err.value.phase == "backward"
        assert {kind: stats.calls for kind, stats in prof.ops.items()} == {
            "pow": 1, "softmax": 1, "add": 1, "sum": 1, "backward": 1}
        assert kernels == {"softmax": 1}
        assert attached() == ()

    def test_out_of_order_exit_across_threads(self):
        sanitizing, profiling, sanitizer_done = (
            threading.Event() for _ in range(3))
        seen: dict[str, object] = {}
        errors: list[BaseException] = []

        def sanitized_thread():
            try:
                with detect_anomalies() as sanitizer:
                    Tensor(np.ones(3)).tanh()
                    sanitizing.set()
                    profiling.wait(10)
                    seen["sanitizer_ops"] = sorted(
                        kind for _, kind in sanitizer._provenance.values())
                # Exit first, while the other thread's profile is open.
                seen["sanitizer_slot"] = attached()
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)
            finally:
                sanitizer_done.set()

        def profiled_thread():
            try:
                sanitizing.wait(10)
                with profile() as prof:
                    # A NaN op here is not the sanitizer's business.
                    with np.errstate(invalid="ignore"):
                        Tensor(np.array([np.inf])) * 0.0
                    profiling.set()
                    sanitizer_done.wait(10)
                    Tensor(np.ones(3)) + 1.0
                seen["profile_ops"] = {kind: stats.calls
                                       for kind, stats in prof.ops.items()}
                seen["profile_slot"] = attached()
            except Exception as exc:
                errors.append(exc)
            finally:
                profiling.set()

        threads = [threading.Thread(target=sanitized_thread),
                   threading.Thread(target=profiled_thread)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert seen["profile_ops"] == {"mul": 1, "add": 1}
        assert seen["sanitizer_ops"] == ["tanh"]
        assert seen["sanitizer_slot"] == seen["profile_slot"] == ()
        # Nothing is left installed: a NaN op raises nothing here.
        with np.errstate(invalid="ignore"):
            nan = Tensor(np.array([np.inf])) * 0.0
        assert np.isnan(nan.data).all()
        assert attached() == ()
        assert not is_sanitizing()


class TestCallbacks:
    def test_logging_callback_finetune_format(self):
        lines = []
        cb = LoggingCallback(lines.append)
        cb.on_eval({"phase": "finetune", "epoch": 0, "f1": 0.412,
                    "zero_shot": True})
        cb.on_epoch_end({"phase": "finetune", "epoch": 1,
                         "train_loss": 0.512, "f1": 0.871,
                         "seconds": 2.34})
        assert lines == ["epoch 0 (zero-shot) F1 41.2",
                         "epoch 1 loss 0.512 F1 87.1 (2.3s)"]

    def test_logging_callback_pretrain_format(self):
        lines = []
        cb = LoggingCallback(lines.append, every=2)
        cb.on_train_begin({"phase": "pretrain", "steps": 4})
        for step in range(4):
            cb.on_step({"phase": "pretrain", "step": step,
                        "loss": float(step)})
        assert lines == ["step 2/4 loss 0.500", "step 4/4 loss 2.500"]


def _tiny_splits(scale=0.04):
    from repro.data import load_benchmark, split_dataset
    from repro.utils import child_rng
    data = load_benchmark("dblp-acm", seed=7, scale=scale)
    return split_dataset(data, child_rng(7, "split", "dblp-acm"))


class TestFineTuneIntegration:
    def test_event_sequence(self, tiny_bert):
        splits = _tiny_splits()
        sink = MemorySink()
        run = TelemetryRun(sink, run_id="itest")
        config = FineTuneConfig(epochs=2, batch_size=8)
        result = fine_tune(tiny_bert, splits.train, splits.test,
                           config=config, seed=0,
                           callbacks=[TelemetryCallback(run)])
        run.close()

        events = sink.events
        for event in events:
            validate_event(event)
        kinds = [e["kind"] for e in events]
        # Expected shape: train_begin, zero-shot eval, then per epoch
        # N steps + eval + epoch_end, then train_end (+ spans/metrics
        # from close()).
        assert kinds[0] == "train_begin"
        begin = events[0]["payload"]
        assert begin["phase"] == "finetune"
        steps_per_epoch = begin["steps_per_epoch"]

        assert kinds[1] == "eval"
        assert events[1]["payload"]["epoch"] == 0
        assert events[1]["payload"]["zero_shot"] is True

        evals = [e["payload"] for e in events if e["kind"] == "eval"]
        assert [p["epoch"] for p in evals] == [0, 1, 2]
        epoch_ends = [e["payload"] for e in events
                      if e["kind"] == "epoch_end"]
        assert [p["epoch"] for p in epoch_ends] == [1, 2]
        steps = [e["payload"] for e in events if e["kind"] == "step"]
        assert len(steps) == 2 * steps_per_epoch
        assert all({"loss", "lr", "grad_norm",
                    "examples_per_sec"} <= p.keys() for p in steps)
        assert kinds.index("train_end") > kinds.index("epoch_end")
        # close() drained spans: epoch and eval spans must be present.
        span_names = {e["payload"]["name"] for e in events
                      if e["kind"] == "span"}
        assert {"epoch", "eval", "setup"} <= span_names
        # Registry metrics fed by TelemetryCallback arrived too.
        metric_names = {e["payload"]["name"] for e in events
                        if e["kind"] == "metric"}
        assert "train.steps" in metric_names
        # And the result still matches the events.
        assert result.final_f1 == pytest.approx(evals[-1]["f1"])

    def test_legacy_log_shim_unchanged_lines(self, tiny_bert):
        splits = _tiny_splits()
        lines = []
        fine_tune(tiny_bert, splits.train, splits.test,
                  config=FineTuneConfig(epochs=1, batch_size=8),
                  seed=0, callbacks=LoggingCallback(lines.append))
        assert lines[0].startswith("epoch 0 (zero-shot) F1 ")
        assert lines[1].startswith("epoch 1 loss ")
        assert lines[1].endswith("s)")

    def test_report_renders_from_run(self, tiny_bert, tmp_path):
        splits = _tiny_splits()
        path = tmp_path / "ft.jsonl"
        run = TelemetryRun(JsonlSink(path), run_id="report-test")
        run.emit("run_begin", command="test")
        with profile() as prof:
            fine_tune(tiny_bert, splits.train, splits.test,
                      config=FineTuneConfig(epochs=1, batch_size=8),
                      seed=0, callbacks=[TelemetryCallback(run)])
        run.emit("profile", ops=prof.as_dict())
        run.close()
        report = load_report(path)
        assert "slowest spans" in report
        assert "op profile" in report and "matmul" in report
        assert "F1 by epoch" in report
        assert "throughput" in report


class TestFineTuneResultGuards:
    def test_empty_history_raises_value_error(self):
        result = FineTuneResult(classifier=None)
        with pytest.raises(ValueError, match="history is empty"):
            result.best_f1
        with pytest.raises(ValueError, match="history is empty"):
            result.final_f1
        assert result.f1_curve() == []


class TestPretrainEvents:
    def test_pretrain_emits_steps(self, tiny_settings):
        from repro.models import default_config
        from repro.pretraining import PretrainRecipe, pretrain
        from repro.pretraining.model_zoo import _train_tokenizer
        from repro.utils import child_rng
        tokenizer = _train_tokenizer("bert", tiny_settings, seed=0)
        config = default_config(
            "bert", vocab_size=len(tokenizer.vocab),
            d_model=tiny_settings.d_model,
            num_layers=tiny_settings.num_layers,
            num_heads=tiny_settings.num_heads,
            max_position=tiny_settings.max_position)
        recipe = PretrainRecipe(steps=4, batch_size=4, seq_len=24,
                                num_examples=40, num_documents=20,
                                use_nsp=True)
        sink = MemorySink()
        run = TelemetryRun(sink, run_id="pretrain-test")
        pretrain(config, tokenizer, recipe, child_rng(0, "pt"),
                 callbacks=[TelemetryCallback(run)])
        run.close()
        kinds = [e["kind"] for e in sink.events]
        assert kinds[0] == "train_begin"
        assert sink.events[0]["payload"]["phase"] == "pretrain"
        assert kinds.count("step") == 4
        assert "train_end" in kinds
        for event in sink.events:
            validate_event(event)


class TestTelemetrySmoke:
    """The CI smoke check: `repro match --telemetry` end to end."""

    def test_cli_match_telemetry_smoke(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        rc = main(["match", "bert", "itunes-amazon",
                   "--scale", "0.1", "--epochs", "1", "--smoke",
                   "--zoo-dir", str(tmp_path / "zoo"),
                   "--telemetry", str(jsonl)])
        assert rc == 0
        assert "telemetry written to" in capsys.readouterr().out
        events = read_events(jsonl)
        for event in events:
            validate_event(event)
        kinds = {e["kind"] for e in events}
        assert {"run_begin", "train_begin", "step", "eval", "epoch_end",
                "train_end", "span", "run_end"} <= kinds
        # And the CLI report subcommand renders it.
        assert main(["telemetry", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "slowest spans" in out

    def test_report_of_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["telemetry", str(path)]) == 0
        assert "no events" in capsys.readouterr().out


class TestBenchSidecar:
    def test_emit_writes_telemetry_sidecar(self, tmp_path, monkeypatch,
                                           capsys):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "bench_shared", "benchmarks/_shared.py")
        shared = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(shared)
        monkeypatch.setattr(shared, "OUT_DIR", tmp_path)
        with trace("bench-phase"):
            pass
        shared.emit("smoke", "hello")
        assert (tmp_path / "smoke.txt").read_text() == "hello\n"
        events = read_events(tmp_path / "smoke.telemetry.jsonl")
        for event in events:
            validate_event(event)
        assert events[0]["kind"] == "run_begin"
        names = {e["payload"].get("name") for e in events
                 if e["kind"] == "span"}
        assert "bench-phase" in names


# -- repro.obs v2: request tracing, exposition, SLOs, dashboard -----------

import io
import json
import urllib.error
import urllib.request

from repro.obs import (LATENCY_BUCKETS, SLO, Alert, BatchStages,
                       BurnWindow, CardinalityError, FAST_BURN,
                       Histogram, MetricsHTTPServer,
                       SLOMonitor, SpanExporter, TraceSampler,
                       default_serve_slos, parse_prometheus,
                       read_events_tolerant, render_prometheus)
from repro.serve import VirtualClock


class TestTraceContextUnits:
    def test_sampler_stride_and_bounds(self):
        sampler = TraceSampler(0.25)
        assert [sampler.sampled(i) for i in range(5)] \
            == [True, False, False, False, True]
        assert all(TraceSampler(1.0).sampled(i) for i in range(10))
        assert not any(TraceSampler(0.0).sampled(i) for i in range(10))
        with pytest.raises(ValueError):
            TraceSampler(1.5)
        with pytest.raises(ValueError):
            TraceSampler(float("nan"))

    def test_lifecycle_builds_tree_on_bound_clock(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        root = tracer.begin_request(request_id=7)
        child = tracer.child(root, "queue_wait")
        clock.advance(0.125)
        tracer.end(child, waited=0.125)
        tracer.attach(root, "forward", start=0.125, end=0.125, rows=1)
        tracer.finish(root, outcome="ok")

        assert child.duration == 0.125 == root.duration
        assert [s.name for s, _, _ in root.walk()] \
            == ["serve.request", "queue_wait", "forward"]
        assert all(s.parent_id == root.span_id
                   for s in root.children)
        payload = child.as_dict()
        assert payload["parent_span_id"] == root.span_id
        assert payload["seconds"] == 0.125
        assert tracer.snapshot() == [root]

    def test_span_context_manager_closes_on_error(self):
        tracer = Tracer(clock=VirtualClock())
        with pytest.raises(RuntimeError):
            with tracer.span("serve.request"):
                raise RuntimeError("boom")
        (root,) = tracer.snapshot()
        assert root.end is not None

    def test_batch_stages_record_shared_clock(self):
        clock = VirtualClock()
        stages = BatchStages(clock.now)
        with stages.stage("tokenize", pairs=4):
            clock.advance(0.25)
        (record,) = stages.records
        assert (record.name, record.start, record.end) \
            == ("tokenize", 0.0, 0.25)
        assert record.attrs == {"pairs": 4}


class TestTolerantEventRead:
    def _write(self, path):
        sink = JsonlSink(path)
        run = TelemetryRun(sink, run_id="r")
        run.emit("run_begin", command="test")
        run.close()

    def test_truncated_tail_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"run_id": "r", "ts": 1.0, "se')  # torn write
        events, skipped = read_events_tolerant(path)
        assert skipped == 1
        assert all(isinstance(e, dict) for e in events)
        with pytest.raises(json.JSONDecodeError):
            read_events(path)

    def test_non_dict_lines_are_skipped(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('42\n"string"\n')
        assert read_events_tolerant(path) == ([], 2)

    def test_cli_report_warns_but_renders(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        self._write(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"broken')
        assert main(["telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning: skipped 1 corrupt/truncated line(s)" in out
        assert "telemetry report" in out


class TestCardinalityGuard:
    def test_label_explosion_raises(self):
        registry = MetricsRegistry(max_series_per_metric=3)
        for i in range(3):
            registry.counter("hits", labels={"route": str(i)}).inc()
        with pytest.raises(CardinalityError):
            registry.counter("hits", labels={"route": "boom"})
        # Existing series stay reachable after the guard trips.
        registry.counter("hits", labels={"route": "1"}).inc()
        assert registry.counter("hits",
                                labels={"route": "1"}).value == 2.0

    def test_same_labels_reuse_one_series(self):
        registry = MetricsRegistry(max_series_per_metric=2)
        first = registry.counter("c", labels={"a": "x", "b": "y"})
        second = registry.counter("c", labels={"b": "y", "a": "x"})
        assert first is second


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(7)
        registry.gauge("serve.queue.depth", labels={"svc": "m"}).set(3)
        latency = registry.histogram("serve.latency_seconds",
                                     buckets=LATENCY_BUCKETS)
        latency.observe(0.004, exemplar="trace-00000001")
        latency.observe(0.3)
        registry.histogram("serve.batch.wait").observe(0.5)
        return registry

    def test_render_covers_all_kinds(self):
        text = render_prometheus(self._registry())
        assert "# TYPE serve_requests counter" in text
        assert "serve_requests 7" in text
        assert 'serve_queue_depth{svc="m"} 3' in text
        assert "# TYPE serve_latency_seconds histogram" in text
        assert 'serve_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "serve_latency_seconds_count 2" in text
        # Bucketless histograms render as summary quantiles.
        assert "# TYPE serve_batch_wait summary" in text
        assert 'serve_batch_wait{quantile="0.99"}' in text

    def test_exemplar_links_bucket_to_trace(self):
        text = render_prometheus(self._registry())
        line = next(l for l in text.splitlines()
                    if l.startswith('serve_latency_seconds_bucket'
                                    '{le="0.005"}'))
        assert '# {trace_id="trace-00000001"} 0.004' in line

    def test_parse_round_trips_render(self):
        series = parse_prometheus(render_prometheus(self._registry()))
        assert series["serve_requests"] == 7.0
        assert series['serve_queue_depth{svc="m"}'] == 3.0
        assert series['serve_latency_seconds_bucket{le="+Inf"}'] == 2.0
        assert series["serve_latency_seconds_sum"] \
            == pytest.approx(0.304)

    def test_http_endpoint_serves_metrics_and_health(self):
        registry = self._registry()
        with MetricsHTTPServer(registry,
                               health=lambda: {"queue_depth": 0}) as srv:
            with urllib.request.urlopen(f"{srv.url}/metrics") as resp:
                assert resp.status == 200
                body = resp.read().decode("utf-8")
            assert body == render_prometheus(registry)
            with urllib.request.urlopen(f"{srv.url}/healthz") as resp:
                health = json.loads(resp.read())
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(f"{srv.url}/nope")
            assert exc_info.value.code == 404

    def test_failing_health_probe_reports_failing(self):
        def probe():
            raise RuntimeError("backend gone")

        with MetricsHTTPServer(MetricsRegistry(), health=probe) as srv:
            with urllib.request.urlopen(f"{srv.url}/healthz") as resp:
                assert json.loads(resp.read())["status"] == "failing"


class TestSpanExporter:
    def _trace(self, tracer, clock):
        root = tracer.begin_request(request_id=1)
        span = tracer.child(root, "queue_wait")
        clock.advance(0.01)
        tracer.end(span)
        tracer.finish(root, outcome="ok")
        return root

    def test_export_emits_schema_valid_span_events(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        self._trace(tracer, clock)
        sink = MemorySink()
        exporter = SpanExporter(sink)
        assert exporter.drain(tracer) == 1  # one trace...
        assert len(sink.events) == 2        # ...two spans
        for event in sink.events:
            validate_event(event)
            assert event["kind"] == "span"
        root_event, child_event = sink.events
        assert child_event["payload"]["parent_span_id"] \
            == root_event["payload"]["span_id"]
        assert child_event["payload"]["depth"] == 1

    def test_drain_deduplicates_by_trace_id(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        self._trace(tracer, clock)
        exporter = SpanExporter(MemorySink())
        assert exporter.drain(tracer) == 1
        assert exporter.drain(tracer) == 0
        self._trace(tracer, clock)
        assert exporter.drain(tracer) == 1


class TestSLOBurnRate:
    """Multi-window multi-burn-rate alerting, deterministic on the
    virtual clock (ticks every 300 s, the fast window's short arm)."""

    @staticmethod
    def _monitor():
        clock = VirtualClock()
        registry = MetricsRegistry()
        registry.counter("serve.requests")
        registry.counter("serve.timeouts")
        registry.histogram("serve.latency_seconds",
                           buckets=LATENCY_BUCKETS)
        monitor = SLOMonitor(default_serve_slos(), registry=registry,
                             clock=clock)
        monitor.record()
        return clock, registry, monitor

    @staticmethod
    def _tick(clock, registry, monitor, requests=100, errors=0,
              latency=0.01):
        clock.advance(300.0)
        registry.counter("serve.requests").inc(requests)
        if errors:
            registry.counter("serve.timeouts").inc(errors)
        for _ in range(requests):
            registry.histogram("serve.latency_seconds",
                               buckets=LATENCY_BUCKETS).observe(latency)
        monitor.record()
        monitor.evaluate()

    def _alert(self, monitor, slo, window) -> Alert:
        return monitor.alerts[(slo, window)]

    def test_fast_burn_fires_and_clears_deterministically(self):
        clock, registry, monitor = self._monitor()
        for _ in range(12):  # one healthy hour
            self._tick(clock, registry, monitor)
        alert = self._alert(monitor, "serve-availability", "fast_burn")
        assert not alert.firing

        for _ in range(4):  # 20 min at 50% errors
            self._tick(clock, registry, monitor, errors=50)
        assert alert.firing
        assert alert.burn_short == pytest.approx(50.0)  # 0.5 / 0.01
        assert alert.transitions[-1] == ("fired", clock.now())

        fired_at = clock.now()
        self._tick(clock, registry, monitor)  # healthy again
        assert not alert.firing
        assert alert.transitions[-2:] == [("fired", fired_at),
                                          ("cleared", clock.now())]

    def test_short_burst_does_not_page(self):
        clock, registry, monitor = self._monitor()
        for _ in range(12):
            self._tick(clock, registry, monitor)
        # One bad tick: the short window burns hot, but over the full
        # hour the healthy history dilutes it below the 14.4 factor.
        self._tick(clock, registry, monitor, errors=50)
        alert = self._alert(monitor, "serve-availability", "fast_burn")
        assert alert.burn_short >= 14.4
        assert alert.burn_long < 14.4
        assert not alert.firing

    def test_slow_burn_catches_simmering_error_rate(self):
        clock, registry, monitor = self._monitor()
        fast = self._alert(monitor, "serve-availability", "fast_burn")
        slow = self._alert(monitor, "serve-availability", "slow_burn")
        # 10% errors: burn 10 — under the fast factor (14.4), over the
        # slow factor (6.0).
        for _ in range(24):  # two hours
            self._tick(clock, registry, monitor, errors=10)
        assert slow.firing and not fast.firing

    def test_latency_slo_uses_exact_bucket_counts(self):
        clock, registry, monitor = self._monitor()
        for _ in range(12):
            self._tick(clock, registry, monitor)
        alert = self._alert(monitor, "serve-latency", "fast_burn")
        assert not alert.firing
        # Budget is 0.05, so the hour-long arm needs ~72% bad to hit
        # the 14.4 factor: 10 of the window's 12 ticks all-slow.
        for _ in range(10):
            self._tick(clock, registry, monitor, latency=0.9)
        assert alert.firing
        assert alert.burn_short == pytest.approx(20.0)  # 1.0 / 0.05

    def test_budget_remaining_can_overdraw(self):
        clock, registry, monitor = self._monitor()
        self._tick(clock, registry, monitor)
        assert monitor.error_budget_remaining("serve-availability") \
            == pytest.approx(1.0)
        self._tick(clock, registry, monitor, errors=100)
        assert monitor.error_budget_remaining("serve-availability") < 0
        with pytest.raises(KeyError):
            monitor.error_budget_remaining("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            SLO("x", 1.5, lambda r: (0, 0))
        with pytest.raises(ValueError):
            BurnWindow("w", long_seconds=60.0, short_seconds=60.0,
                       factor=2.0)
        with pytest.raises(ValueError):
            BurnWindow("w", long_seconds=60.0, short_seconds=30.0,
                       factor=0.0)
        with pytest.raises(ValueError):
            SLOMonitor([], registry=MetricsRegistry())


class TestDashboard:
    def test_demo_state_is_deterministic(self):
        from repro.obs.top import demo_state
        first, second = demo_state(), demo_state()
        assert first["counters"] == second["counters"]
        assert first["latency"] == second["latency"]
        assert first["counters"]["completed"] == 120.0
        assert first["counters"]["degraded"] == 2.0
        assert [t["trace_id"] for t in first["slowest"]] \
            == [t["trace_id"] for t in second["slowest"]]

    def test_render_dashboard_sections(self):
        from repro.obs.top import demo_state, render_dashboard
        text = render_dashboard(demo_state())
        assert "repro obs top — source: demo (virtual)" in text
        assert "completed     120" in text
        assert "error budget:" in text
        assert "serve-availability" in text
        assert "slowest recent traces:" in text
        assert "queue_wait" in text

    def test_gather_url_matches_local_counters(self):
        from repro.obs.top import gather_local, gather_url
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(9)
        registry.counter("serve.completed").inc(8)
        registry.gauge("serve.queue.depth").set(1)
        hist = registry.histogram("serve.latency_seconds",
                                  buckets=LATENCY_BUCKETS)
        for value in (0.004, 0.02, 0.02, 0.3):
            hist.observe(value)
        with MetricsHTTPServer(registry) as srv:
            scraped = gather_url(srv.url)
        local = gather_local(registry)
        assert scraped["counters"] == local["counters"]
        assert scraped["queue_depth"] == 1.0
        assert scraped["latency"]["count"] == 4.0
        # Scraped quantiles are bucket-reconstructed: same bucket as
        # the in-process exact values.
        assert scraped["latency"]["p50"] <= 0.025
        assert scraped["latency"]["p99"] >= 0.25

    def test_run_top_snapshot_prints_once(self):
        from repro.obs.top import run_top
        frames = []

        def gather():
            return {"source": "t", "queue_depth": 0,
                    "counters": dict.fromkeys(
                        ("requests", "completed", "rejected",
                         "timeouts", "degraded"), 0),
                    "latency": {"count": 0, "p50": 0.0, "p95": 0.0,
                                "p99": 0.0},
                    "batch": {"count": 0, "mean": 0.0, "max": 0.0},
                    "slo": [], "slowest": []}

        stream = io.StringIO()
        assert run_top(gather, stream=stream, live=False) == 0
        assert stream.getvalue().count("repro obs top") == 1

    def test_run_top_live_iterations_clear_screen(self):
        from repro.obs.top import run_top
        stream = io.StringIO()
        naps = []
        state = {"source": "t", "queue_depth": 0,
                 "counters": dict.fromkeys(
                     ("requests", "completed", "rejected", "timeouts",
                      "degraded"), 0),
                 "latency": {"count": 0, "p50": 0.0, "p95": 0.0,
                             "p99": 0.0},
                 "batch": {"count": 0, "mean": 0.0, "max": 0.0},
                 "slo": [], "slowest": []}
        assert run_top(lambda: state, stream=stream, live=True,
                       iterations=3, interval=0.5,
                       sleep=naps.append) == 0
        assert stream.getvalue().count("\x1b[2J") == 3
        assert naps == [0.5, 0.5]

    def test_cli_obs_top_demo_snapshot(self, capsys):
        assert main(["obs", "top", "--demo", "--snapshot"]) == 0
        out = capsys.readouterr().out
        assert "repro obs top — source: demo (virtual)" in out

    def test_cli_obs_top_requires_a_source(self, capsys):
        assert main(["obs", "top"]) == 2
        assert "--url" in capsys.readouterr().err
