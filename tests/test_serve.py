"""Serving layer: micro-batching service, virtual clock, load sim.

Four contracts anchor ``repro.serve``:

1. **decision equivalence** — the service's probabilities and decisions
   are bit-identical to serial ``match_many`` for every architecture
   (and the DeepMatcher baseline behind the same backend interface);
2. **no lost or duplicated requests** — concurrent producers each get
   exactly their own outcome back, with correct request-id mapping and
   the queue gauge back at zero when the dust settles;
3. **typed failure** — deadline expiry raises :class:`RequestTimeout`,
   a full queue raises :class:`ServiceOverloaded` with a retry-after
   hint, and an injected batch-forward fault degrades *only* the
   poisoned requests;
4. **determinism** — every queueing test runs on the
   :class:`VirtualClock`; zero real ``time.sleep`` calls appear in this
   file, and a workload replays to identical latencies every run.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import DeepMatcher, DeepMatcherConfig
from repro.data import load_benchmark, split_dataset
from repro.matching import CascadeEngine, EntityMatcher, FineTuneConfig
from repro.obs import MetricsRegistry, default_registry
from repro.perf import LRUCache, is_left_padded, plan_buckets
from repro.resilience import ChaosConfig, ChaosMonkey
from repro.serve import (CallableBackend, CascadeBackend,
                         DeepMatcherBackend, HedgeConfig, MatcherBackend,
                         MatchService, ReplicaSet, RequestTimeout,
                         ResilientClient, ResilientConfig, ServeConfig,
                         ServiceClosed, ServiceOverloaded, SystemClock,
                         VirtualClock, generate_workload, run_simulation)
from repro.utils import child_rng

pytestmark = pytest.mark.serve

ARCH_FIXTURES = ["tiny_bert", "tiny_roberta", "tiny_distilbert",
                 "tiny_xlnet"]


@pytest.fixture(scope="module")
def tiny_splits():
    data = load_benchmark("dblp-acm", seed=7, scale=0.04)
    return split_dataset(data, child_rng(7, "split", "dblp-acm"))


@pytest.fixture(scope="module")
def fitted_matchers(tiny_settings, tiny_zoo_dir, tiny_splits):
    """Lazily fit one matcher per architecture (cached per module)."""
    cache: dict[str, EntityMatcher] = {}

    def fit(arch: str) -> EntityMatcher:
        if arch not in cache:
            matcher = EntityMatcher(
                arch, seed=0, zoo_settings=tiny_settings,
                zoo_dir=tiny_zoo_dir,
                finetune_config=FineTuneConfig(epochs=1, batch_size=8,
                                               max_length_cap=32))
            matcher.fit(tiny_splits.train)
            cache[arch] = matcher
        return cache[arch]

    return fit


def _record_pairs(splits, n):
    pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    return [pairs[i % len(pairs)] for i in range(n)]


def _drain_all(service, clock):
    """Let workers settle, then play remaining flush timers to the end."""
    clock.settle(lambda: service.settled, timeout=60.0)
    while service.queue_depth or service.inflight:
        deadline = clock.next_deadline()
        if deadline is None:
            break
        clock.advance(max(deadline - clock.now(), 0.0))
        clock.settle(lambda: service.settled, timeout=60.0)


def _digit_score(entity_a, entity_b):
    """Deterministic identity-revealing score for queueing tests."""
    return float(entity_a["i"]) / 10_000.0


def _pair(i):
    return ({"i": str(i)}, {"i": str(i)})


def _report_digest(report) -> str:
    """sha256 over a report's tallies and exact float reprs."""
    return hashlib.sha256(repr((
        report.completed, report.rejected, report.timeouts,
        report.errors, report.degraded, report.latencies,
        report.duration)).encode()).hexdigest()


class TestDecisionEquivalence:
    """Contract 1: service == serial ``match_many``, bit for bit."""

    @pytest.mark.parametrize("fixture", ARCH_FIXTURES)
    def test_bit_identical_to_match_many(self, fixture, fitted_matchers,
                                         tiny_splits):
        arch = fixture.removeprefix("tiny_")
        matcher = fitted_matchers(arch)
        pairs = _record_pairs(tiny_splits, 200)
        serial = matcher.match_many(pairs, fast=True, batch_size=32)

        service = MatchService(
            MatcherBackend(matcher, batch_size=32),
            ServeConfig(max_batch_size=len(pairs), max_wait_ms=5.0,
                        max_queue=len(pairs)),
            clock=VirtualClock(), registry=MetricsRegistry())
        # All pairs queued before start() -> a single drain covers them
        # all, so the engine sees the same chunk match_many would.
        tickets = service.submit_many(pairs)
        service.start()
        service.close(drain=True)

        assert len(tickets) == len(serial) == 200
        for ticket, expected in zip(tickets, serial):
            outcome = ticket.result(timeout=60.0)
            assert outcome.index == expected.index == ticket.request_id
            assert outcome.probability == expected.probability  # bitwise
            assert outcome.matched == expected.matched
            assert not outcome.degraded and not expected.degraded

    def test_equivalence_survives_micro_batching(self, fitted_matchers,
                                                 tiny_splits):
        """Small drains (many batches) must still score identically."""
        matcher = fitted_matchers("bert")
        pairs = _record_pairs(tiny_splits, 48)
        serial = matcher.match_many(pairs, fast=True, batch_size=8)

        clock = VirtualClock()
        service = MatchService(
            MatcherBackend(matcher, batch_size=8),
            ServeConfig(max_batch_size=8, max_wait_ms=5.0,
                        max_queue=len(pairs)),
            clock=clock, registry=MetricsRegistry())
        service.start()
        tickets = [service.submit(a, b) for a, b in pairs]
        _drain_all(service, clock)
        service.close(drain=True)

        for ticket, expected in zip(tickets, serial):
            outcome = ticket.result(timeout=60.0)
            assert outcome.probability == expected.probability
            assert outcome.matched == expected.matched

    def test_deepmatcher_backend_equivalence(self, tiny_splits):
        dm = DeepMatcher(DeepMatcherConfig(epochs=1, batch_size=16,
                                           variants=("attention",),
                                           use_pretrained_embeddings=False))
        dm.fit(tiny_splits.train, tiny_splits.validation)
        dataset = tiny_splits.test
        expected_probs = dm.predict_proba(dataset)
        expected_decisions = dm.predict(dataset)

        pairs = [(p.record_a, p.record_b) for p in dataset.pairs]
        service = MatchService(
            DeepMatcherBackend(dm, schema=dataset.schema,
                               text_attributes=dataset.text_attributes),
            ServeConfig(max_batch_size=len(pairs), max_wait_ms=5.0,
                        max_queue=len(pairs), threshold=dm.threshold),
            clock=VirtualClock(), registry=MetricsRegistry())
        tickets = service.submit_many(pairs)
        service.start()
        service.close(drain=True)

        for index, ticket in enumerate(tickets):
            outcome = ticket.result(timeout=60.0)
            assert outcome.probability == float(expected_probs[index])
            assert outcome.matched == bool(expected_decisions[index])


def _counter(name):
    return default_registry().counter(name).value


@pytest.fixture(params=["matcher", "cascade"])
def memo_backend(request, fitted_matchers):
    """``(make_backend, bulk)`` for one engine-backed backend kind.

    ``make_backend()`` builds a backend with a fresh memo; ``bulk(pairs)``
    is the direct one-call scoring the backend must reproduce.  The
    cascade's band ``(0, 1)`` escalates every pair, so a memo hit must
    skip both forwards.
    """
    if request.param == "matcher":
        matcher = fitted_matchers("bert")
        return (lambda: MatcherBackend(matcher, batch_size=8),
                lambda pairs: matcher.match_many(pairs, fast=True,
                                                 batch_size=8))
    cascade = CascadeEngine(fitted_matchers("distilbert").engine(),
                            fitted_matchers("roberta").engine(),
                            band=(0.0, 1.0))
    return (lambda: CascadeBackend(cascade, batch_size=8),
            lambda pairs: cascade.score_pairs(pairs, batch_size=8))


class TestOutcomeMemo:
    """The engine backends answer a pair they already scored from
    memory, and score every first-seen pair exactly as before."""

    def test_repeat_in_later_chunk_skips_forward(self, memo_backend,
                                                 tiny_splits):
        make_backend, _ = memo_backend
        backend = make_backend()
        pairs = _record_pairs(tiny_splits, 6)
        hook_keys = []
        first = backend.score(pairs, list(range(6)), 0.5, True,
                              forward_hook=hook_keys.extend)
        forwarded = len(hook_keys)
        scored = _counter("perf.match.pairs")
        hits = _counter("perf.outcome_cache.hits")
        for threshold in (0.0, 0.5, 1.01):
            keys = [100 + i for i in range(6)]
            again = backend.score(pairs[::-1], keys, threshold, True,
                                  forward_hook=hook_keys.extend)
            for key, outcome, original in zip(keys, again, first[::-1]):
                assert outcome.index == key
                assert outcome.probability == original.probability
                assert outcome.matched == (outcome.probability
                                           >= threshold)
                assert not outcome.degraded
        assert len(hook_keys) == forwarded  # no forward ran
        assert _counter("perf.match.pairs") == scored
        assert _counter("perf.outcome_cache.hits") == hits + 18

    def test_degraded_outcome_is_not_memoized(self, memo_backend,
                                              tiny_splits):
        make_backend, bulk = memo_backend
        backend = make_backend()
        pairs = _record_pairs(tiny_splits, 4)

        def poison(batch_keys):
            if 2 in batch_keys:
                raise RuntimeError("chaos: poisoned forward")

        first = backend.score(pairs, [0, 1, 2, 3], 0.5, True,
                              forward_hook=poison)
        assert [o.degraded for o in first] == [False, False, True, False]
        hook_keys = []
        again = backend.score(pairs, [10, 11, 12, 13], 0.5, True,
                              forward_hook=hook_keys.extend)
        assert set(hook_keys) == {12}  # only the degraded pair re-runs
        assert not again[2].degraded
        assert again[2].probability == bulk([pairs[2]])[0].probability
        for position in (0, 1, 3):
            assert again[position].probability \
                == first[position].probability

    def test_in_chunk_duplicates_match_bulk_bit_for_bit(self, memo_backend,
                                                        tiny_splits):
        make_backend, bulk = memo_backend
        backend = make_backend()
        distinct = _record_pairs(tiny_splits, 3)
        pairs = [distinct[i] for i in (0, 1, 0, 2, 1, 0)]
        misses = _counter("perf.outcome_cache.misses")
        hook_keys = []
        outcomes = backend.score(pairs, list(range(6)), 0.5, True,
                                 forward_hook=hook_keys.extend)
        assert set(hook_keys) == set(range(6))  # every duplicate forwarded
        assert _counter("perf.outcome_cache.misses") == misses + 6
        for outcome, expected in zip(outcomes, bulk(pairs)):
            assert outcome.index == expected.index
            assert outcome.probability == expected.probability  # bitwise
            assert outcome.matched == expected.matched

    def test_lru_bound_evicts(self, memo_backend):
        make_backend, _ = memo_backend
        backend = make_backend()
        size = backend.memo.maxsize
        pairs = [({"title": f"paper {i}"}, {"title": f"paper {i} x"})
                 for i in range(size + 3)]
        evictions = _counter("perf.outcome_cache.evictions")
        backend.score(pairs, list(range(len(pairs))), 0.5, False)
        assert _counter("perf.outcome_cache.evictions") == evictions + 3
        assert len(backend.memo) == size
        hook_keys = []
        backend.score([pairs[0], pairs[-1]], [0, 1], 0.5, False,
                      forward_hook=hook_keys.extend)
        assert set(hook_keys) == {0}  # the oldest entry was evicted

    def test_two_workers_serve_hot_pairs_consistently(self, memo_backend,
                                                      tiny_splits):
        make_backend, bulk = memo_backend
        hot = _record_pairs(tiny_splits, 5)
        pairs = [hot[i % len(hot)] for i in range(120)]
        service = MatchService(
            make_backend(),
            ServeConfig(max_batch_size=4, max_wait_ms=5.0,
                        max_queue=len(pairs), num_workers=2),
            clock=VirtualClock(), registry=MetricsRegistry())
        tickets = service.submit_many(pairs)
        service.start()
        service.close(drain=True)

        expected = bulk(hot)
        for i, ticket in enumerate(tickets):
            outcome = ticket.result(timeout=60.0)
            reference = expected[i % len(hot)]
            assert outcome.index == ticket.request_id
            assert not outcome.degraded
            # Two workers may both score a pair first, in batches of
            # other compositions: float32 rounding, same decision.
            assert abs(outcome.probability - reference.probability) < 1e-6
            assert outcome.matched == reference.matched

    def test_memo_stage_replaces_tokenize_and_forward(self, memo_backend,
                                                      tiny_splits):
        make_backend, _ = memo_backend
        backend = make_backend()
        pair = _record_pairs(tiny_splits, 1)[0]
        stages = []
        for _ in range(2):  # the second service shares the warm memo
            service = MatchService(backend, clock=VirtualClock(),
                                   registry=MetricsRegistry())
            service.submit(*pair)
            service.start()
            service.close(drain=True)
            root, = service.tracer.snapshot()
            stages.append({span.name: span.attrs
                           for span, depth, _ in root.walk() if depth})
        first, repeat = stages
        assert first["memo"]["hits"] == 0
        assert {"tokenize", "forward"} <= set(first)
        assert repeat["memo"] == {"pairs": 1, "hits": 1}
        assert not {"tokenize", "forward", "escalate"} & set(repeat)

    def test_unhashable_entity_is_scored_not_memoized(self, fitted_matchers,
                                                      tiny_splits):
        backend = MatcherBackend(fitted_matchers("bert"), batch_size=8)
        entity_a, entity_b = _record_pairs(tiny_splits, 1)[0]
        pair = (dict(entity_a.values, tags=["x"]), entity_b)
        for _ in range(2):
            hook_keys = []
            outcome, = backend.score([pair], [7], 0.5, True,
                                     forward_hook=hook_keys.extend)
            assert hook_keys == [7]
        assert len(backend.memo) == 0


class TestCallableBackend:
    def test_scores_each_pair_once(self):
        """One call per pair, and the decision comes from the same
        probability the outcome reports — even for a scoring function
        that answers differently on every call."""
        answers = iter([0.9, 0.1] * 8)
        calls = []

        def flaky(entity_a, entity_b):
            calls.append(entity_a["i"])
            return next(answers)

        outcomes = CallableBackend(flaky).score(
            [_pair(i) for i in range(4)], [0, 1, 2, 3], 0.5, True)
        assert calls == ["0", "1", "2", "3"]
        assert [o.probability for o in outcomes] == [0.9, 0.1, 0.9, 0.1]
        assert [o.matched for o in outcomes] == [True, False, True, False]


class TestCoalescingIsPermutationInverse:
    """Hypothesis: bucketing scatters, order restoration gathers."""

    @given(lengths=st.lists(st.integers(min_value=1, max_value=64),
                            min_size=1, max_size=80),
           batch_size=st.integers(min_value=1, max_value=16))
    @settings(deadline=None, max_examples=60)
    def test_bucket_plan_partitions_and_inverts(self, lengths, batch_size):
        buckets = plan_buckets(np.asarray(lengths), batch_size)
        flat = np.concatenate(buckets)
        # every request appears exactly once...
        assert sorted(flat.tolist()) == list(range(len(lengths)))
        # ...and scattering results back by index restores submission
        # order: gather(scatter(x)) == x for any payload.
        payload = np.arange(len(lengths)) * 7 + 1
        restored = np.empty_like(payload)
        restored[flat] = payload[flat]
        assert np.array_equal(restored, payload)
        # buckets are length-sorted: no batch mixes a longer sequence
        # before a shorter one across bucket boundaries.
        bucket_maxes = [max(lengths[i] for i in bucket.tolist())
                        for bucket in buckets]
        bucket_mins = [min(lengths[i] for i in bucket.tolist())
                       for bucket in buckets]
        for left_max, right_min in zip(bucket_maxes, bucket_mins[1:]):
            assert left_max <= right_min

    @given(lengths=st.lists(st.integers(min_value=1, max_value=15),
                            min_size=1, max_size=12),
           width=st.integers(min_value=16, max_value=24))
    @settings(deadline=None, max_examples=40)
    def test_left_padded_batches_are_never_trimmed(self, lengths, width):
        """The XLNet rule: left padding puts real tokens at the *end*,
        so trimming trailing columns would cut content, not padding."""
        left = np.ones((len(lengths), width), dtype=bool)
        right = np.ones((len(lengths), width), dtype=bool)
        for row, length in enumerate(lengths):
            left[row, width - length:] = False   # XLNet style
            right[row, :length] = False          # BERT style
        if any(length < width for length in lengths):
            assert is_left_padded(left)
        assert not is_left_padded(right)

    @given(order=st.permutations(list(range(12))))
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    def test_service_outcomes_invariant_to_submission_order(self, order):
        """Whatever order producers submit in, each ticket gets its own
        pair's score back — coalescing never crosses wires."""
        clock = VirtualClock()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=5, max_wait_ms=2.0, max_queue=64),
            clock=clock, registry=MetricsRegistry())
        service.start()
        tickets = {i: service.submit(*_pair(i)) for i in order}
        _drain_all(service, clock)
        service.close(drain=True)
        for i, ticket in tickets.items():
            assert ticket.result(timeout=10.0).probability \
                == i / 10_000.0


class TestConcurrentProducers:
    """Contract 2: nothing lost, nothing duplicated, gauge returns."""

    def test_stress_no_lost_or_duplicated_requests(self):
        num_producers, per_producer = 8, 40
        clock = VirtualClock()
        registry = MetricsRegistry()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=16, max_wait_ms=5.0,
                        max_queue=num_producers * per_producer),
            clock=clock, registry=registry)
        service.start()

        results: dict[int, object] = {}
        lock = threading.Lock()

        def producer(worker_id: int) -> None:
            rng = child_rng(13, "serve-stress", worker_id)
            payload = list(range(worker_id * 1000,
                                 worker_id * 1000 + per_producer))
            rng.shuffle(payload)
            for value in payload:
                ticket = service.submit(*_pair(value))
                with lock:
                    results[value] = ticket

        threads = [threading.Thread(target=producer, args=(worker_id,))
                   for worker_id in range(num_producers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        _drain_all(service, clock)
        service.close(drain=True)

        total = num_producers * per_producer
        assert len(results) == total  # no lost submissions
        request_ids = {t.request_id for t in results.values()}
        assert len(request_ids) == total  # no duplicated ids
        assert request_ids == set(range(total))  # dense, in-order issue
        for value, ticket in results.items():
            outcome = ticket.result(timeout=10.0)
            assert outcome.index == ticket.request_id
            assert outcome.probability == value / 10_000.0  # right pair
        assert registry.counter("serve.completed").value == total
        assert registry.counter("serve.requests").value == total
        assert registry.gauge("serve.queue.depth").value == 0
        assert service.queue_depth == 0 and service.inflight == 0

    def test_request_ids_issued_in_submission_order(self):
        service = MatchService(CallableBackend(_digit_score),
                               clock=VirtualClock(),
                               registry=MetricsRegistry())
        tickets = [service.submit(*_pair(i)) for i in range(5)]
        assert [t.request_id for t in tickets] == [0, 1, 2, 3, 4]
        service.start()
        service.close(drain=True)
        assert all(t.done() for t in tickets)


class TestMicroBatcherPolicy:
    """Flush on max_batch_size OR oldest-waited-max_wait_ms."""

    def test_full_batch_drains_without_timer(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=4, max_wait_ms=1000.0),
            clock=clock, registry=registry)
        service.start()
        tickets = [service.submit(*_pair(i)) for i in range(4)]
        # A full batch needs no time to pass: workers drain immediately.
        clock.settle(lambda: all(t.done() for t in tickets), timeout=10.0)
        service.close(drain=True)
        assert clock.now() == 0.0  # zero virtual time elapsed
        histogram = registry.histogram("serve.batch.size")
        assert histogram.count == 1 and histogram.max == 4

    def test_partial_batch_flushes_at_max_wait(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=32, max_wait_ms=5.0),
            clock=clock, registry=registry)
        service.start()
        ticket = service.submit(*_pair(1))
        clock.settle(lambda: service.settled, timeout=10.0)
        assert not ticket.done()  # parked behind the flush timer
        clock.advance(0.004)
        clock.settle(lambda: service.settled, timeout=10.0)
        assert not ticket.done()  # 4 ms < 5 ms: still waiting
        clock.advance(0.001)
        clock.settle(lambda: ticket.done(), timeout=10.0)
        service.close(drain=True)
        assert ticket.latency == pytest.approx(0.005)
        assert registry.histogram("serve.batch.wait_seconds").max \
            == pytest.approx(0.005)

    def test_close_without_drain_fails_pending_typed(self):
        service = MatchService(CallableBackend(_digit_score),
                               ServeConfig(max_batch_size=32,
                                           max_wait_ms=1000.0),
                               clock=VirtualClock(),
                               registry=MetricsRegistry())
        service.start()
        ticket = service.submit(*_pair(1))
        service.close(drain=False)
        with pytest.raises(ServiceClosed):
            ticket.result(timeout=10.0)

    def test_submit_after_close_raises(self):
        service = MatchService(CallableBackend(_digit_score),
                               clock=VirtualClock(),
                               registry=MetricsRegistry())
        service.start()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(*_pair(1))
        with pytest.raises(ServiceClosed):
            service.start()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServeConfig(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServeConfig(num_workers=0)
        with pytest.raises(ValueError):
            ServeConfig(forward_batch_size=0)
        assert ServeConfig(max_batch_size=8).forward_batch_size == 8


class TestTimeoutsAndBackpressure:
    """Contract 3a/3b: typed deadline expiry and bounded admission."""

    def test_deadline_expiry_is_typed_not_silent(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=32, max_wait_ms=500.0),
            clock=clock, registry=registry)
        service.start()
        doomed = service.submit(*_pair(1), timeout_ms=200.0)
        survivor = service.submit(*_pair(2), timeout_ms=2000.0)
        _drain_all(service, clock)
        service.close(drain=True)

        error = doomed.exception(timeout=10.0)
        assert isinstance(error, RequestTimeout)
        assert error.request_id == doomed.request_id
        assert error.waited >= 0.2
        with pytest.raises(RequestTimeout):
            doomed.result(timeout=10.0)
        assert survivor.result(timeout=10.0).probability \
            == 2 / 10_000.0  # the batch neighbor is unaffected
        assert registry.counter("serve.timeouts").value == 1
        assert registry.counter("serve.completed").value == 1

    def test_default_timeout_applies_when_unspecified(self):
        clock = VirtualClock()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=32, max_wait_ms=500.0,
                        default_timeout_ms=100.0),
            clock=clock, registry=MetricsRegistry())
        service.start()
        ticket = service.submit(*_pair(1))
        _drain_all(service, clock)
        service.close(drain=True)
        assert isinstance(ticket.exception(timeout=10.0), RequestTimeout)

    def test_full_queue_rejects_with_retry_after(self):
        registry = MetricsRegistry()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=4, max_wait_ms=10.0, max_queue=8),
            clock=VirtualClock(), registry=registry)
        # Not started: the queue can only fill up.
        for i in range(8):
            service.submit(*_pair(i))
        with pytest.raises(ServiceOverloaded) as excinfo:
            service.submit(*_pair(99))
        assert excinfo.value.depth == 8
        # 8 pending / batches of 4 -> 2 drains at 10 ms flush horizon.
        assert excinfo.value.retry_after == pytest.approx(0.020)
        assert registry.counter("serve.rejected").value == 1
        service.start()
        service.close(drain=True)

    def test_submit_many_is_all_or_nothing(self):
        registry = MetricsRegistry()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=4, max_wait_ms=10.0, max_queue=8),
            clock=VirtualClock(), registry=registry)
        service.submit_many([_pair(i) for i in range(6)])
        with pytest.raises(ServiceOverloaded):
            service.submit_many([_pair(i) for i in range(6, 10)])
        assert service.queue_depth == 6  # no partial admission
        assert registry.counter("serve.rejected").value == 4
        service.start()
        service.close(drain=True)

    def test_open_loop_sim_counts_rejections(self):
        """An overdriven service sheds load instead of buffering."""
        clock = VirtualClock()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=2, max_wait_ms=50.0, max_queue=4),
            clock=clock, registry=MetricsRegistry())
        workload = generate_workload([_pair(i) for i in range(16)],
                                     num_requests=16, rate=10_000.0,
                                     seed=3, pattern="burst",
                                     burst_size=16)
        report = run_simulation(service, workload)
        assert report.offered == 16
        assert report.rejected > 0
        assert report.completed + report.rejected == 16


class TestChaosDegradation:
    """Contract 3c: a poisoned forward degrades only its own requests."""

    def test_poisoned_rows_degrade_neighbors_survive(self):
        chaos = ChaosMonkey(ChaosConfig(poison_forward_rows={1, 3}))
        registry = MetricsRegistry()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=8, max_wait_ms=5.0),
            clock=VirtualClock(), registry=registry, chaos=chaos)
        tickets = [service.submit(*_pair(i)) for i in range(6)]
        service.start()
        service.close(drain=True)

        for i, ticket in enumerate(tickets):
            outcome = ticket.result(timeout=10.0)
            if i in (1, 3):
                assert outcome.degraded
                assert outcome.error and "chaos" in outcome.error
            else:
                assert not outcome.degraded
                assert outcome.probability == i / 10_000.0
        assert registry.counter("serve.degraded").value == 2
        assert registry.counter("serve.completed").value == 6

    def test_matcher_backend_degrades_to_similarity_fallback(
            self, fitted_matchers, tiny_splits):
        matcher = fitted_matchers("bert")
        pairs = _record_pairs(tiny_splits, 4)
        serial = matcher.match_many(pairs, fast=True)
        chaos = ChaosMonkey(ChaosConfig(poison_forward_rows={2}))
        registry = MetricsRegistry()
        service = MatchService(
            MatcherBackend(matcher, batch_size=8),
            ServeConfig(max_batch_size=len(pairs), max_wait_ms=5.0),
            clock=VirtualClock(), registry=registry, chaos=chaos)
        tickets = service.submit_many(pairs)
        service.start()
        service.close(drain=True)

        for i, (ticket, expected) in enumerate(zip(tickets, serial)):
            outcome = ticket.result(timeout=60.0)
            if i == 2:
                assert outcome.degraded  # similarity fallback kicked in
            else:
                assert not outcome.degraded
                assert outcome.probability == expected.probability
        assert registry.counter("serve.degraded").value == 1

    def test_wholesale_backend_failure_fails_tickets_typed(self):
        def explode(entity_a, entity_b):
            raise MemoryError("backend is gone")

        class BrokenBackend:
            def score(self, pairs, keys, threshold, fallback,
                      forward_hook=None, cb=None, stages=None):
                raise MemoryError("backend is gone")

        service = MatchService(BrokenBackend(), clock=VirtualClock(),
                               registry=MetricsRegistry())
        ticket = service.submit(*_pair(1))
        service.start()
        service.close(drain=True)
        error = ticket.exception(timeout=10.0)
        assert error is not None and "wholesale" in str(error)
        assert "MemoryError" in str(error)


class TestVirtualClock:
    """The clock itself: deterministic timers, no real time."""

    def test_timers_fire_in_deadline_then_registration_order(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(2.0, lambda: fired.append("late"))
        clock.call_at(1.0, lambda: fired.append("early-first"))
        clock.call_at(1.0, lambda: fired.append("early-second"))
        handle = clock.call_at(1.5, lambda: fired.append("cancelled"))
        clock.cancel(handle)
        clock.advance(3.0)
        assert fired == ["early-first", "early-second", "late"]
        assert clock.now() == 3.0
        assert clock.pending_timers() == 0
        assert clock.next_deadline() is None

    def test_advance_never_moves_backwards(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_sleep_wakes_on_advance(self):
        clock = VirtualClock()
        woke = threading.Event()

        def sleeper():
            clock.sleep(1.0)
            woke.set()

        thread = threading.Thread(target=sleeper)
        thread.start()
        clock.settle(lambda: clock.pending_timers() == 1, timeout=10.0)
        clock.advance(1.0)
        assert woke.wait(timeout=10.0)
        thread.join()

    def test_condition_timeout_runs_on_virtual_time(self):
        clock = VirtualClock()
        cond = clock.condition()
        outcome = []

        def waiter():
            with cond:
                outcome.append(cond.wait_for(lambda: False, timeout=2.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        clock.settle(lambda: clock.pending_timers() == 1, timeout=10.0)
        clock.advance(1.9)
        assert not outcome  # virtual deadline not reached yet
        clock.advance(0.2)
        thread.join(timeout=10.0)
        assert outcome == [False]

    def test_system_clock_condition_times_out(self):
        cond = SystemClock().condition()
        with cond:
            assert cond.wait_for(lambda: False, timeout=0.001) is False


class TestSimulationDeterminism:
    """Contract 4: same seed, same schedule, same exact latencies."""

    @pytest.mark.parametrize("pattern",
                             ["poisson", "burst", "adversarial"])
    def test_workload_generation_is_seeded(self, pattern):
        pairs = [_pair(i) for i in range(10)]
        first = generate_workload(pairs, num_requests=40, rate=100.0,
                                  seed=11, pattern=pattern)
        second = generate_workload(pairs, num_requests=40, rate=100.0,
                                   seed=11, pattern=pattern)
        assert [a.at for a in first.arrivals] \
            == [a.at for a in second.arrivals]
        assert [a.entity_a for a in first.arrivals] \
            == [a.entity_a for a in second.arrivals]
        other = generate_workload(pairs, num_requests=40, rate=100.0,
                                  seed=12, pattern=pattern)
        if pattern != "burst":  # burst times are seed-independent
            assert [a.at for a in first.arrivals] \
                != [a.at for a in other.arrivals]

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            generate_workload([_pair(0)], num_requests=1, rate=100.0,
                              pattern="thundering-herd")
        with pytest.raises(ValueError):
            generate_workload([_pair(0)], num_requests=1, rate=0.0)
        with pytest.raises(ValueError):
            generate_workload([_pair(0)], num_requests=0, rate=1.0)
        with pytest.raises(ValueError):
            generate_workload([], num_requests=1, rate=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"pattern": "burst", "burst_size": 0},
        {"pattern": "burst", "burst_size": -2},
        {"rate": float("nan")},
        {"rate": float("inf")},
    ])
    def test_workload_rejects_bad_schedule_input(self, kwargs):
        arguments = {"num_requests": 5, "rate": 10.0, **kwargs}
        with pytest.raises(ValueError):
            generate_workload([_pair(0)], **arguments)

    def test_first_arrival_is_at_time_zero(self):
        workload = generate_workload([_pair(0)], num_requests=5,
                                     rate=50.0, seed=0)
        assert workload.arrivals[0].at == 0.0
        assert workload.duration == workload.arrivals[-1].at

    #: sha256 of :func:`_report_digest` per replayed pattern.  Pinned,
    #: so a driver change that moves any virtual-clock float by one ulp
    #: fails here even though it replays identically run to run.
    REPLAY_DIGESTS = {
        "poisson": "279bf399f460279c5bc8d5fd6496594b"
                   "da27db0be1e37efd17effe4f57e05809",
        "burst": "9b858eadf8d6030c7dcba2e8a954d3a1"
                 "307aa67a7cbb724d944d48680a7893b3",
        "adversarial": "50a668dcb3b2d4da94ab0fc470e5826d"
                       "4fa2a607dc456a4381677777f298ff76",
    }

    @staticmethod
    def _replay(pattern):
        clock = VirtualClock()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=8, max_wait_ms=20.0, max_queue=64),
            clock=clock, registry=MetricsRegistry())
        workload = generate_workload(
            [_pair(i) for i in range(12)], num_requests=50,
            rate=200.0, seed=21, pattern=pattern)
        return run_simulation(service, workload)

    @pytest.mark.parametrize("pattern",
                             ["poisson", "burst", "adversarial"])
    def test_replay_is_bit_deterministic(self, pattern):
        first, second = self._replay(pattern), self._replay(pattern)
        assert first.completed == second.completed == 50
        assert first.rejected == second.rejected == 0
        assert first.latencies == second.latencies  # exact floats
        assert first.duration == second.duration
        assert all(first.outcomes[k].probability
                   == second.outcomes[k].probability
                   for k in first.outcomes)

    @pytest.mark.parametrize("pattern",
                             ["poisson", "burst", "adversarial"])
    def test_replay_matches_pinned_digest(self, pattern):
        report = self._replay(pattern)
        assert _report_digest(report) == self.REPLAY_DIGESTS[pattern]
        # The driver advanced exactly to each arrival: no lateness.
        assert report.lateness == [0.0] * report.offered

    def test_sim_report_quantiles(self):
        from repro.serve import SimReport
        report = SimReport(offered=4, completed=4, duration=2.0,
                           latencies=[0.4, 0.1, 0.3, 0.2])
        assert report.latency_quantile(0.0) == 0.1
        assert report.latency_quantile(1.0) == 0.4
        assert report.latency_quantile(0.5) == pytest.approx(0.25)
        assert report.throughput == 2.0
        with pytest.raises(ValueError):
            report.latency_quantile(1.5)

    def test_no_real_sleeps_in_this_test_file(self):
        import ast
        tree = ast.parse(Path(__file__).read_text())
        sleeps = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sleep"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"]
        imports = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"]
        assert sleeps == [] and imports == []


class TestRealClockDriver:
    """On the real clock the driver keeps the offered rate above
    capacity: it sleeps to absolute due times, so a worker holding the
    GIL shows up as queueing, not as a slower generator."""

    PER_PAIR_SECONDS = 0.0004  # capacity ~2,500 pairs/s
    RATE = 3000.0

    @classmethod
    def _busy_backend(cls, clock):
        def score(entity_a, entity_b):
            end = clock.now() + cls.PER_PAIR_SECONDS
            while clock.now() < end:
                pass
            return _digit_score(entity_a, entity_b)
        return CallableBackend(score)

    @classmethod
    def _service(cls, clock, registry):
        return MatchService(
            cls._busy_backend(clock),
            ServeConfig(max_batch_size=32, max_wait_ms=5.0,
                        max_queue=4096),
            clock=clock, registry=registry)

    @classmethod
    def _resilient(cls, clock, registry):
        replicas = ReplicaSet(
            lambda index: cls._service(clock, registry),
            num_replicas=1, clock=clock, registry=registry)
        return ResilientClient(
            replicas,
            ResilientConfig(hedge=HedgeConfig(enabled=False),
                            attempt_timeout_ms=120_000.0),
            registry=registry)

    @pytest.mark.parametrize("tier", ["service", "resilient"])
    def test_offered_rate_holds_above_capacity(self, tier):
        clock = SystemClock()
        make = self._service if tier == "service" else self._resilient
        target = make(clock, MetricsRegistry())
        workload = generate_workload([_pair(i) for i in range(50)],
                                     num_requests=1500, rate=self.RATE,
                                     seed=0)
        report = run_simulation(target, workload)

        # Submit times are due times plus lateness.
        span = ((workload.arrivals[-1].at + report.lateness[-1])
                - (workload.arrivals[0].at + report.lateness[0]))
        assert abs(span - workload.duration) <= 0.05 * workload.duration
        assert len(report.lateness) == report.offered == 1500
        assert (report.completed + report.rejected + report.timeouts
                + report.errors) == report.offered
        assert report.completed > 0
        # Above capacity the backlog grows: latency from due time
        # climbs well past the 5 ms flush window.
        assert report.rejected or report.latency_quantile(0.99) > 0.05

    def test_dead_worker_pool_does_not_hold_the_driver(self):
        """A killed single-worker pool never drains its queue; the
        driver leaves it to ``close`` to fail typed instead of waiting
        out the 60 s safety valve."""
        clock = SystemClock()
        service = MatchService(
            CallableBackend(_digit_score),
            ServeConfig(max_batch_size=8, max_wait_ms=2.0, max_queue=200),
            clock=clock, registry=MetricsRegistry(),
            chaos=ChaosMonkey(ChaosConfig(
                kill_worker_batches=frozenset({2}))))
        workload = generate_workload([_pair(i) for i in range(20)],
                                     num_requests=100, rate=2000.0,
                                     seed=0)
        report = run_simulation(service, workload)
        assert report.errors > 0
        assert report.completed + report.errors == 100
        assert report.duration < 10.0


class TestThreadSafetyRegressions:
    """Satellite 4: the races the serving layer exposed, pinned down."""

    def test_lru_cache_concurrent_mixed_workload(self):
        cache = LRUCache(maxsize=64)
        errors = []

        def hammer(worker_id: int) -> None:
            rng = child_rng(5, "lru-hammer", worker_id)
            try:
                for _ in range(2000):
                    key = int(rng.integers(0, 200))
                    if rng.random() < 0.5:
                        cache.put(key, key * 2)
                    else:
                        value = cache.get(key)
                        if value is not None and value != key * 2:
                            errors.append((key, value))
            except Exception as exc:  # noqa: BLE001 — fail the test
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
        assert cache.hits + cache.misses > 0

    def test_lru_eviction_accounting_under_contention(self):
        cache = LRUCache(maxsize=16)
        evictions = []
        lock = threading.Lock()

        def writer(worker_id: int) -> None:
            count = 0
            for i in range(500):
                if cache.put((worker_id, i), i):
                    count += 1
            with lock:
                evictions.append(count)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # inserts - evictions == live entries, exactly: no double counts
        assert 4 * 500 - sum(evictions) == len(cache)
        assert cache.evictions == sum(evictions)

    def test_metrics_registry_concurrent_get_or_create(self):
        registry = MetricsRegistry()
        instances = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def grab() -> None:
            barrier.wait()
            counter = registry.counter("serve.race")
            with lock:
                instances.append(counter)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(instance) for instance in instances}) == 1
        with pytest.raises(TypeError):
            registry.gauge("serve.race")  # kind mismatch stays typed

    def test_counter_and_histogram_exact_under_threads(self):
        registry = MetricsRegistry()
        counter = registry.counter("serve.exact")
        histogram = registry.histogram("serve.lat")

        def bump() -> None:
            for _ in range(5000):
                counter.inc()
                histogram.observe(1.0)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * 5000  # no lost increments
        assert histogram.count == 8 * 5000
        assert histogram.total == pytest.approx(8 * 5000)


class TestBenchReport:
    """The serve benchmark writes through the one schema check."""

    def test_validate_flags_gaps(self):
        from repro.perf.harness import check_report
        assert check_report({}) != []
        assert any("summary" in problem
                   for problem in check_report({"benchmark": "serve"}))

    def test_bench_script_smoke(self, tiny_zoo_dir, tmp_path):
        """The path ``benchmarks/bench_serve.py`` takes: run the serve
        benchmark, then write its report through the schema check."""
        import json
        from repro.perf.harness import check_report, write_report
        from repro.serve.bench import run_serve_benchmark
        out = write_report(run_serve_benchmark(zoo_dir=tiny_zoo_dir,
                                               smoke=True),
                           tmp_path / "BENCH_serve.json")
        report = json.loads(out.read_text())
        assert check_report(report) == []
        assert report["smoke"] is True
        assert set(report["levels"]) == {"0.5x", "1x", "2x"}


class TestRequestTracing:
    """Tentpole: every sampled request yields a complete causal span
    tree, exactly reproducible under the virtual clock."""

    @staticmethod
    def _service(clock, config=None, chaos=None):
        return MatchService(
            CallableBackend(_digit_score),
            config or ServeConfig(max_batch_size=8, max_wait_ms=5.0),
            clock=clock, registry=MetricsRegistry(), chaos=chaos)

    def test_span_tree_structure_and_ids(self):
        clock = VirtualClock()
        service = self._service(clock)
        tickets = [service.submit(*_pair(i)) for i in range(3)]
        service.start()
        service.close(drain=True)

        roots = service.tracer.snapshot()
        assert len(roots) == 3
        seen_span_ids = set()
        for root, ticket in zip(roots, tickets):
            assert root.name == "serve.request"
            assert ticket.trace_id == root.trace_id
            assert root.attrs["outcome"] == "ok"
            names = root.stage_names()
            assert names[:2] == ["enqueue", "queue_wait"]
            assert names[-1] == "postprocess"
            assert {"batch_assembly", "forward"} <= set(names)
            for span, depth, _ in root.walk():
                assert span.trace_id == root.trace_id
                assert span.end is not None
                assert span.span_id not in seen_span_ids
                seen_span_ids.add(span.span_id)
                if depth:
                    assert span.parent_id == root.span_id

    def test_queue_wait_duration_is_exact(self):
        clock = VirtualClock()
        service = self._service(
            clock, ServeConfig(max_batch_size=8, max_wait_ms=50.0))
        service.start()
        ticket = service.submit(*_pair(1))
        _drain_all(service, clock)  # flush timer fires at exactly 50 ms
        service.close(drain=True)

        assert ticket.result(timeout=10.0).probability == 1 / 10_000.0
        (root,) = service.tracer.snapshot()
        wait = root.find("queue_wait")
        assert wait.duration == 0.05  # exact under the virtual clock
        assert wait.attrs["waited"] == 0.05
        assert root.duration == 0.05

    def test_child_durations_sum_to_request_latency(self):
        clock = VirtualClock()
        service = self._service(
            clock, ServeConfig(max_batch_size=4, max_wait_ms=10.0,
                               max_queue=64))
        workload = generate_workload(
            [_pair(i) for i in range(10)], num_requests=25, rate=300.0,
            seed=5, pattern="poisson")
        report = run_simulation(service, workload)

        roots = service.tracer.snapshot()
        assert report.completed == len(roots) == 25
        for root in roots:
            total = sum(child.duration for child in root.children)
            assert abs(total - root.duration) < 1e-12

    def test_degraded_request_span_carries_reason(self):
        clock = VirtualClock()
        service = self._service(
            clock, chaos=ChaosMonkey(
                ChaosConfig(poison_forward_rows={1})))
        tickets = [service.submit(*_pair(i)) for i in range(3)]
        service.start()
        service.close(drain=True)

        assert tickets[1].result(timeout=10.0).degraded
        by_request = {root.attrs["request_id"]: root
                      for root in service.tracer.snapshot()}
        assert by_request[1].attrs["outcome"] == "degraded"
        assert "chaos" in by_request[1].attrs["reason"]
        assert by_request[0].attrs["outcome"] == "ok"
        assert "reason" not in by_request[0].attrs

    def test_sampling_is_deterministic_head_stride(self):
        clock = VirtualClock()
        service = self._service(
            clock, ServeConfig(max_batch_size=8, max_wait_ms=5.0,
                               trace_sample_rate=0.5))
        tickets = [service.submit(*_pair(i)) for i in range(6)]
        service.start()
        service.close(drain=True)

        # Stride 2 keyed on the request sequence number: 0, 2, 4.
        assert [t.trace_id is not None for t in tickets] \
            == [True, False, True, False, True, False]
        assert len(service.tracer.snapshot()) == 3

    def test_sampling_off_disables_tracing(self):
        clock = VirtualClock()
        service = self._service(
            clock, ServeConfig(max_batch_size=8, max_wait_ms=5.0,
                               trace_sample_rate=0.0))
        ticket = service.submit(*_pair(1))
        service.start()
        service.close(drain=True)
        assert ticket.result(timeout=10.0) is not None
        assert ticket.trace_id is None
        assert service.tracer.snapshot() == []

    def test_timeout_span_finishes_with_reason(self):
        clock = VirtualClock()
        service = self._service(
            clock, ServeConfig(max_batch_size=8, max_wait_ms=200.0))
        service.start()
        ticket = service.submit(*_pair(1), timeout_ms=20.0)
        _drain_all(service, clock)
        service.close(drain=True)

        with pytest.raises(RequestTimeout):
            ticket.result(timeout=10.0)
        (root,) = service.tracer.snapshot()
        assert root.attrs["outcome"] == "timeout"
        assert "deadline" in root.attrs["reason"]
        assert root.find("queue_wait").end is not None
