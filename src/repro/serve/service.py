"""In-process entity-matching service with dynamic micro-batching.

:class:`MatchService` turns the single-caller ``match_many`` batch API
into a request-level serving path: producers submit individual pairs
(or small batches) from any thread and get a :class:`MatchTicket`
(future) back; worker threads coalesce pending requests into
length-bucketed model batches under a ``max_batch_size`` /
``max_wait_ms`` policy and complete the tickets.

The contract, end to end:

* **Equivalence** — scoring runs on the shared
  :class:`repro.matching.MatchEngine`, so a drained chunk produces the
  same floats ``match_many`` would for the same pairs (with
  ``max_batch_size >= len(pairs)`` and a quiet queue, bit-identical).
* **Admission control** — the queue is bounded (``max_queue``); a full
  queue rejects with :class:`ServiceOverloaded`, carrying a
  ``retry_after`` hint, instead of buffering without bound.
* **Deadlines** — a request whose ``timeout_ms`` elapses while queued
  completes with a typed :class:`RequestTimeout`, never a silent drop.
* **Degradation** — a poisoned batch forward degrades only the
  affected requests to the classical-similarity fallback
  (``MatchOutcome.degraded``); batch neighbors are retried and served
  normally (the engine's isolation semantics).
* **Observability** — queue depth gauge, batch-size / batch-wait /
  request-latency histograms, and request/completion/rejection/timeout/
  degradation counters under ``serve.*`` in :mod:`repro.obs`.

All timing goes through :class:`repro.serve.clock.Clock`; with a
:class:`~repro.serve.clock.VirtualClock` the whole service runs in
simulated time for deterministic tests (see :mod:`repro.serve.sim`).
"""

from __future__ import annotations

import inspect
import itertools
import math
import threading
from collections import deque
from dataclasses import dataclass

from ..obs import CallbackList, default_registry
from ..obs.tracing import BatchStages, Tracer
from ..obs.registry import LATENCY_BUCKETS
from ..resilience.chaos import WorkerKilled
from ..utils.concurrency import access, guarded_by
from .clock import Clock, SystemClock

__all__ = ["ServeConfig", "ServeError", "ServiceClosed",
           "ServiceOverloaded", "RequestTimeout", "RequestCancelled",
           "MatchTicket", "MatchService"]

#: Completed request traces a service's own tracer retains (a ring).
_MAX_TRACES = 512


@dataclass
class ServeConfig:
    """Micro-batching and admission-control policy.

    ``max_batch_size`` requests are coalesced per drain; a partial
    batch is flushed once the oldest pending request has waited
    ``max_wait_ms``.  ``forward_batch_size`` bounds the model batches
    *within* a drain (length-bucketed; defaults to ``max_batch_size``).
    ``max_queue`` bounds the pending queue — beyond it submissions are
    rejected with :class:`ServiceOverloaded`.  ``default_timeout_ms``
    applies to requests submitted without an explicit deadline
    (``None`` = no deadline).  ``trace_sample_rate`` is the fraction of
    requests that get a full span tree (deterministic 1-in-N head
    sampling on the request sequence number; 0 disables tracing).
    """

    max_batch_size: int = 32
    max_wait_ms: float = 5.0
    forward_batch_size: int | None = None
    max_queue: int = 256
    default_timeout_ms: float | None = None
    threshold: float = 0.5
    fallback: bool = True
    num_workers: int = 1
    trace_sample_rate: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(f"trace_sample_rate must be in [0, 1], got "
                             f"{self.trace_sample_rate}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got "
                             f"{self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got "
                             f"{self.max_wait_ms}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got "
                             f"{self.max_queue}")
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got "
                             f"{self.num_workers}")
        if self.forward_batch_size is None:
            self.forward_batch_size = self.max_batch_size
        if self.forward_batch_size < 1:
            raise ValueError(f"forward_batch_size must be >= 1, got "
                             f"{self.forward_batch_size}")


class ServeError(RuntimeError):
    """Base class for serving-layer failures."""


class ServiceClosed(ServeError):
    """The service is shut down (or was closed before processing)."""


class ServiceOverloaded(ServeError):
    """Admission control: the bounded queue is full.

    ``retry_after`` is a backoff hint in seconds — the estimated time
    for the batcher to drain the current backlog (queue depth over
    batch capacity, one ``max_wait_ms`` flush horizon per drain).
    """

    def __init__(self, depth: int, retry_after: float):
        super().__init__(
            f"queue full ({depth} pending); retry after "
            f"~{retry_after * 1000:.0f} ms")
        self.depth = depth
        self.retry_after = retry_after


class RequestTimeout(ServeError):
    """A request's deadline expired before it reached the model."""

    def __init__(self, request_id: int, waited: float):
        super().__init__(
            f"request {request_id} timed out after queueing "
            f"{waited * 1000:.1f} ms")
        self.request_id = request_id
        self.waited = waited


class RequestCancelled(ServeError):
    """A still-queued request was withdrawn via
    :meth:`MatchService.cancel` (e.g. a hedged duplicate whose twin
    finished first)."""

    def __init__(self, request_id: int):
        super().__init__(f"request {request_id} cancelled while queued")
        self.request_id = request_id


class MatchTicket:
    """Per-request future returned by :meth:`MatchService.submit`.

    ``result()`` blocks until the batcher completes the request and
    returns its :class:`repro.resilience.MatchOutcome` (with ``index``
    set to this ticket's ``request_id``) — or raises the typed error
    (:class:`RequestTimeout`, :class:`ServiceClosed`) the request
    failed with.  The optional ``timeout`` is *real* seconds (a safety
    valve for callers), not clock time.
    """

    def __init__(self, request_id: int, submitted_at: float):
        self.request_id = request_id
        self.submitted_at = submitted_at
        self.completed_at: float | None = None
        self.trace_id: str | None = None
        # Written under _cb_lock; read lock-free (a bool flip is a
        # valid snapshot).  The wait Event is allocated lazily by the
        # first blocking waiter: most tickets — resilient-tier
        # attempts, post-drain inspection — are consumed via callbacks
        # or after completion and never pay for a Condition.
        self._done = False
        self._event: threading.Event | None = None  # guard: _cb_lock
        self._outcome = None
        self._error: Exception | None = None
        self._cb_lock = threading.Lock()
        self._callbacks: list = []  # guard: _cb_lock

    def done(self) -> bool:
        return self._done

    def _wait(self, timeout: float | None) -> bool:
        if self._done:
            return True
        with self._cb_lock:
            if self._done:
                return True
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        return event.wait(timeout)

    def add_done_callback(self, fn) -> None:
        """Invoke ``fn(ticket)`` when the ticket completes or fails.

        Runs on the completing thread (a service worker, or
        :meth:`MatchService.cancel`'s caller); if the ticket is already
        done it runs immediately on the registering thread.  The
        resilient tier is built on this hook — retries, hedging and
        breaker accounting all react to completions without polling.
        """
        with self._cb_lock:
            if not self._done:
                access(self, "_callbacks")
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout: float | None = None):
        if not self._wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still pending after "
                f"{timeout}s (real time)")
        if self._error is not None:
            raise self._error
        return self._outcome

    def exception(self, timeout: float | None = None) -> Exception | None:
        """The typed failure, if any, without raising it."""
        if not self._wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still pending after "
                f"{timeout}s (real time)")
        return self._error

    @property
    def latency(self) -> float | None:
        """Submit-to-completion clock seconds (None while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def _complete(self, outcome, now: float) -> None:
        self._outcome = outcome
        self.completed_at = now
        self._settle()

    def _fail(self, error: Exception, now: float) -> None:
        self._error = error
        self.completed_at = now
        self._settle()

    def _settle(self) -> None:
        with self._cb_lock:
            self._done = True
            if self._event is not None:
                self._event.set()
            access(self, "_callbacks")
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _Request:
    """Internal queue entry: one pair plus its routing/deadline state.

    ``span`` / ``wait_span`` are None for unsampled requests; for
    sampled ones the queue entry itself carries the request's root span
    across the producer -> worker thread boundary — explicit
    propagation, no thread-locals to leak between requests.
    """

    __slots__ = ("id", "entity_a", "entity_b", "enqueued_at", "deadline",
                 "ticket", "span", "wait_span")

    def __init__(self, request_id: int, entity_a, entity_b,
                 enqueued_at: float, deadline: float | None):
        self.id = request_id
        self.entity_a = entity_a
        self.entity_b = entity_b
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.ticket = MatchTicket(request_id, enqueued_at)
        self.span = None
        self.wait_span = None


class MatchService:
    """Thread-safe micro-batching front end over a scoring backend.

    ``backend`` is any object with the :class:`repro.serve.backends`
    ``score(pairs, keys, threshold, fallback, forward_hook, cb)``
    signature — :class:`~repro.serve.backends.MatcherBackend` for the
    transformer matcher, :class:`~repro.serve.backends
    .DeepMatcherBackend` for the baseline, or a custom scorer.

    Usage::

        with MatchService(MatcherBackend(matcher)) as service:
            ticket = service.submit(record_a, record_b)
            outcome = ticket.result()

    ``chaos`` accepts a :class:`repro.resilience.ChaosMonkey`; its
    ``maybe_fail_forward`` runs before every model forward so tests can
    inject batch failures deterministically.
    """

    def __init__(self, backend, config: ServeConfig | None = None,
                 clock: Clock | None = None, registry=None, chaos=None,
                 callbacks=None):
        self._backend = backend
        self.config = config or ServeConfig()
        self.clock = clock or SystemClock()
        self._chaos = chaos
        self._cb = CallbackList.resolve(callbacks)
        self._cond = self.clock.condition()
        self._pending: deque[_Request] = deque()  # guard: _cond
        self._inflight = 0                        # guard: _cond
        self._sleeping = 0                        # guard: _cond
        #: Wake callbacks of workers parked in a chaos slow-forward
        #: sleep; ``close`` fires them so shutdown cuts injected
        #: latency short instead of joining a worker whose (possibly
        #: virtual) wake timer will never fire.
        self._sleepers: list = []                 # guard: _cond
        #: Flush deadlines of workers parked in the timed coalescing
        #: wait; the ``settled`` probe treats a worker as quiescent
        #: only while its deadline is still in the future.
        self._flush_parked: list[float] = []      # guard: _cond
        self._ids = itertools.count()
        self._closed = False                      # guard: _cond
        self._workers: list[threading.Thread] = []  # guard: _cond
        #: Workers whose loop has exited (chaos kill, crash, or normal
        #: close).  Written under _cond; read lock-free by the hot
        #: routing path — a monotone int flip is a valid snapshot, and
        #: it flips *before* the thread object reports dead.
        self._dead_workers = 0                    # guard: _cond
        self.tracer = Tracer(self.clock, max_traces=_MAX_TRACES,
                             sample_rate=self.config.trace_sample_rate)
        # Stage recording needs backend cooperation; older/custom
        # backends without a ``stages`` parameter still serve fine —
        # their traces just lack tokenize/forward children.
        self._backend_stages = "stages" in inspect.signature(
            backend.score).parameters
        registry = registry if registry is not None else default_registry()
        self._registry = registry
        self._queue_depth = registry.gauge("serve.queue.depth")
        self._requests = registry.counter("serve.requests")
        self._completed = registry.counter("serve.completed")
        self._rejected = registry.counter("serve.rejected")
        self._timeouts = registry.counter("serve.timeouts")
        self._degraded = registry.counter("serve.degraded")
        self._cancelled = registry.counter("serve.cancelled")
        self._batch_size = registry.histogram("serve.batch.size")
        self._batch_wait = registry.histogram("serve.batch.wait_seconds",
                                              buckets=LATENCY_BUCKETS)
        self._latency = registry.histogram("serve.latency_seconds",
                                           buckets=LATENCY_BUCKETS)
        # Every rejection's backoff hint goes here, so dashboards see
        # shed pressure, not just a rejection count.
        self._retry_after_hist = registry.histogram(
            "serve.retry_after_seconds", buckets=LATENCY_BUCKETS)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MatchService":
        """Spawn the worker pool (idempotent)."""
        with self._cond:
            if self._closed:
                raise ServiceClosed("cannot start a closed service")
            if self._workers:
                return self
            access(self, "_workers")
            self._workers = [
                threading.Thread(
                    target=self._worker_loop, daemon=True,
                    name=f"repro-serve-worker-{worker_id}")
                for worker_id in range(self.config.num_workers)]
            workers = list(self._workers)
        # Threads start outside the critical section: a worker's first
        # act is taking the same condition.
        for thread in workers:
            thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Shut down: stop admissions, flush (or fail) the queue, join.

        With ``drain=True`` (default) workers process everything still
        pending before exiting; with ``drain=False`` pending requests
        fail immediately with :class:`ServiceClosed`.
        """
        with self._cond:
            access(self, "_closed")
            self._closed = True
            workers = list(self._workers)
            abandoned: list[_Request] = []
            if not drain or not workers:
                access(self, "_pending")
                abandoned = list(self._pending)
                self._pending.clear()
                self._queue_depth.set(0)
            self._cond.notify_all()
            sleepers = list(self._sleepers)
        # Cut injected slow-forward latency short: a parked worker's
        # wake timer may be virtual (never firing again once drivers
        # stop advancing), and the joins below must not wait on it.
        for wake in sleepers:
            wake()
        now = self.clock.now()
        for request in abandoned:
            request.ticket._fail(
                ServiceClosed(f"service closed before request "
                              f"{request.id} was processed"), now)
            if request.span is not None:
                self.tracer.end(request.wait_span, end=now)
                self.tracer.finish(request.span, end=now,
                                   outcome="closed")
        # Joins happen unlocked (a worker draining the queue needs the
        # condition), but the list write goes back under it.
        for thread in workers:
            thread.join()
        with self._cond:
            access(self, "_workers")
            self._workers = []
            access(self, "_pending")
            leftover = list(self._pending)
            self._pending.clear()
            if leftover:
                self._queue_depth.set(0)
        # A dead worker pool (chaos kills) can leave requests queued
        # even on a drain close; fail them typed rather than letting
        # their tickets hang forever.
        now = self.clock.now()
        for request in leftover:
            request.ticket._fail(
                ServiceClosed(f"service closed with request "
                              f"{request.id} still queued (no live "
                              f"workers to drain it)"), now)
            if request.span is not None:
                self.tracer.end(request.wait_span, end=now)
                self.tracer.finish(request.span, end=now,
                                   outcome="closed")

    def __enter__(self) -> "MatchService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting to be batched.

        A lock-free snapshot (``len`` of the deque is atomic), like
        ``queue.Queue.qsize``: approximate while workers are actively
        draining, exact whenever the settled protocol holds.  The
        resilient router reads this once per replica per request, so
        it must not contend with the worker condition.
        """
        return len(self._pending)

    @property
    def inflight(self) -> int:
        """Batches currently being scored by workers."""
        with self._cond:
            access(self, "_inflight", write=False)
            return self._inflight

    def workers_alive(self) -> int:
        """Worker threads still running (chaos can kill them)."""
        with self._cond:
            access(self, "_workers", write=False)
            workers = list(self._workers)
        return sum(1 for thread in workers if thread.is_alive())

    @property
    def healthy(self) -> bool:
        """Started, accepting, and with a full worker pool.

        The :class:`~repro.serve.ReplicaSet` health probe keys off
        this: a dead worker (chaos ``maybe_kill_worker``, or a real
        crash) leaves queued requests stranded, so a partially dead
        pool already counts as unhealthy.
        """
        # Lock-free flag reads: the router consults this per replica
        # per request, and each flag is written once in a monotone
        # direction (closed False→True, dead-worker count up), so a
        # torn snapshot can only report unhealthy early — never
        # healthy late.
        return (bool(self._workers) and not self._closed
                and self._dead_workers == 0)

    @guarded_by("_cond")
    def _workers_alive_locked(self) -> bool:
        access(self, "_workers", write=False)
        return any(thread.is_alive() for thread in self._workers)

    @property
    def settled(self) -> bool:
        """True when workers have fully reacted to everything visible.

        The quiescence probe behind deterministic simulation
        (:func:`repro.serve.sim.run_simulation`, the one driver for
        this service and for a ``ResilientClient`` over it): virtual
        time may only advance when nothing is mid-scoring and the queue
        is either empty or parked behind an armed flush timer (with
        room to spare — a full batch is about to be drained without any
        timer, so it counts as unsettled until the drain happens).
        Once settled, "queue empty and nothing in flight" is the same
        as "every ticket resolved" — request timeouts only fire when a
        batch forms, so a queued ticket never resolves early — which is
        what lets the driver wait on tickets for either tier.  The
        probe uses only service-local bookkeeping (``_flush_parked``,
        ``_sleeping``) rather than the clock's global timer count, so
        unrelated timers on a shared clock — the resilient tier's
        health probes, hedges and backoffs — cannot make a mid-reaction
        service look quiescent.  A dead worker pool counts as settled:
        nothing will ever react, and only a supervisor respawn (itself
        timer-driven) changes that.
        """
        with self._cond:
            access(self, "_inflight", write=False)
            access(self, "_pending", write=False)
            if self._inflight:
                # A worker mid-scoring is unsettled — unless every
                # inflight worker is parked on a chaos slow-forward
                # timer, in which case only advancing time frees it.
                return self._inflight <= self._sleeping
            if not self._pending:
                return True
            if len(self._pending) >= self.config.max_batch_size \
                    or not self._flush_parked:
                # A live worker is about to drain (full batch needs no
                # timer) or has not parked on its flush timer yet.
                return not self._workers_alive_locked()
            # Parked workers whose flush deadline already passed are
            # runnable (mid-wakeup), not quiescent.
            now = self.clock.now()
            return all(deadline > now for deadline in self._flush_parked)

    @guarded_by("_cond")
    def _retry_after_locked(self) -> float:
        """Backoff hint for a rejection: drain time for the backlog.

        Non-negative and monotone non-decreasing in the queue depth
        (``ceil(depth / batch) * flush-horizon``, floored at one
        horizon) — :class:`repro.serve.RetryPolicy` consumes it as a
        lower bound on its backoff delay.
        """
        drains = math.ceil(len(self._pending)
                           / self.config.max_batch_size)
        hint = max(drains, 1) * self.config.max_wait_ms / 1000.0
        assert hint >= 0.0, f"retry_after hint went negative: {hint}"
        return hint

    @guarded_by("_cond")
    def _reject_locked(self, count: int) -> ServiceOverloaded:
        self._rejected.inc(count)
        hint = self._retry_after_locked()
        self._retry_after_hist.observe(hint)
        return ServiceOverloaded(len(self._pending), hint)

    @guarded_by("_cond")
    def _admit_locked(self, entity_a, entity_b,
                      timeout_ms: float | None) -> _Request:
        now = self.clock.now()
        if timeout_ms is None:
            timeout_ms = self.config.default_timeout_ms
        deadline = None if timeout_ms is None \
            else now + timeout_ms / 1000.0
        request = _Request(next(self._ids), entity_a, entity_b, now,
                           deadline)
        access(self, "_pending")
        self._pending.append(request)
        self._requests.inc()
        if self.tracer.sampled(request.id):
            root = self.tracer.begin_request(start=now,
                                             request_id=request.id)
            request.span = root
            request.ticket.trace_id = root.trace_id
            self.tracer.attach(root, "enqueue", start=now, end=now,
                               queue_depth=len(self._pending))
            request.wait_span = self.tracer.child(root, "queue_wait",
                                                  start=now)
        return request

    def submit(self, entity_a, entity_b,
               timeout_ms: float | None = None) -> MatchTicket:
        """Enqueue one pair; returns its :class:`MatchTicket`.

        Raises :class:`ServiceOverloaded` when the queue is full and
        :class:`ServiceClosed` after :meth:`close`.
        """
        with self._cond:
            access(self, "_closed", write=False)
            if self._closed:
                raise ServiceClosed("service is closed to new requests")
            if len(self._pending) >= self.config.max_queue:
                raise self._reject_locked(1)
            request = self._admit_locked(entity_a, entity_b, timeout_ms)
            self._queue_depth.set(len(self._pending))
            self._cond.notify_all()
            return request.ticket

    def submit_many(self, pairs,
                    timeout_ms: float | None = None) -> list[MatchTicket]:
        """Atomically enqueue a batch of ``(entity_a, entity_b)`` pairs.

        All-or-nothing admission: if the batch does not fit in the
        remaining queue space, the whole batch is rejected with
        :class:`ServiceOverloaded` (partial admission would complete a
        random prefix, which no caller can reason about).
        """
        pairs = list(pairs)
        with self._cond:
            access(self, "_closed", write=False)
            if self._closed:
                raise ServiceClosed("service is closed to new requests")
            if len(self._pending) + len(pairs) > self.config.max_queue:
                raise self._reject_locked(len(pairs))
            tickets = [
                self._admit_locked(entity_a, entity_b, timeout_ms).ticket
                for entity_a, entity_b in pairs]
            self._queue_depth.set(len(self._pending))
            self._cond.notify_all()
            return tickets

    def cancel(self, ticket: MatchTicket) -> bool:
        """Withdraw a still-queued request; True if it was removed.

        The request fails with :class:`RequestCancelled` (its done
        callbacks fire).  Returns False when the ticket is already
        completed or claimed by a worker — an inflight score cannot be
        recalled, only its result ignored.  The resilient tier uses
        this to cancel the losing leg of a hedged request.
        """
        found: _Request | None = None
        with self._cond:
            access(self, "_pending")
            for index, request in enumerate(self._pending):
                if request.ticket is ticket:
                    del self._pending[index]
                    self._queue_depth.set(len(self._pending))
                    found = request
                    break
        if found is None:
            return False
        self._cancelled.inc()
        now = self.clock.now()
        if found.span is not None:
            self.tracer.end(found.wait_span, end=now)
            self.tracer.finish(found.span, end=now, outcome="cancelled")
        found.ticket._fail(RequestCancelled(found.id), now)
        return True

    # -- the micro-batcher ---------------------------------------------------

    def _worker_loop(self) -> None:
        try:
            self._worker_run()
        finally:
            # Any exit — normal close, chaos kill, or a crash — marks
            # the pool degraded before the thread object reports dead,
            # so ``healthy`` needs no per-thread liveness poll.
            with self._cond:
                access(self, "_dead_workers")
                self._dead_workers += 1

    def _worker_run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._process(batch)
            finally:
                with self._cond:
                    access(self, "_inflight")
                    self._inflight -= 1
            if self._chaos is not None:
                try:
                    self._chaos.maybe_kill_worker()
                except WorkerKilled:
                    # Abrupt thread death, after the batch's tickets
                    # completed: the queue keeps accepting but nothing
                    # drains it until a supervisor respawns the pool.
                    return

    def _next_batch(self) -> list[_Request] | None:
        """Block until a batch is due; None when closed and drained.

        Coalescing policy: once the queue is non-empty, wait until
        either ``max_batch_size`` requests are pending or the oldest
        has waited ``max_wait_ms``, then drain up to
        ``max_batch_size`` in FIFO order.
        """
        config = self.config
        max_wait = config.max_wait_ms / 1000.0
        full = lambda: (len(self._pending) >= config.max_batch_size
                        or self._closed)
        with self._cond:
            while True:
                self._cond.wait_for(
                    lambda: self._pending or self._closed)
                if self._pending:
                    flush_at = self._pending[0].enqueued_at + max_wait
                    while not full():
                        remaining = flush_at - self.clock.now()
                        if remaining <= 0:
                            break
                        # The parked-deadline list is what ``settled``
                        # keys on: the entry is only visible while this
                        # worker is actually inside the timed wait (the
                        # lock is held everywhere else in this loop).
                        access(self, "_flush_parked")
                        self._flush_parked.append(flush_at)
                        try:
                            self._cond.wait_for(full, timeout=remaining)
                        finally:
                            access(self, "_flush_parked")
                            self._flush_parked.remove(flush_at)
                    if not self._pending:
                        continue  # another worker drained it
                    count = min(len(self._pending),
                                config.max_batch_size)
                    access(self, "_pending")
                    batch = [self._pending.popleft()
                             for _ in range(count)]
                    self._queue_depth.set(len(self._pending))
                    access(self, "_inflight")
                    self._inflight += 1
                    return batch
                if self._closed:
                    return None

    def _forward_hook(self, keys) -> None:
        if self._chaos is not None:
            self._chaos.maybe_fail_forward(keys)

    def _chaos_sleep(self, seconds: float) -> None:
        """Park this worker for ``seconds`` of injected latency.

        Uses a clock timer rather than ``clock.sleep`` so the
        ``_sleeping`` bookkeeping is decremented *by the timer callback*
        (the driver thread, under a virtual clock) — the instant the
        delay elapses the service reads as unsettled again, and the sim
        driver waits for the woken worker to finish scoring before
        advancing further.  That keeps slow-forward chaos inside the
        deterministic settle protocol.
        """
        woken = threading.Event()
        state = {"woken": False}

        def wake() -> None:
            # Idempotent: both the clock timer and ``close`` may call
            # this; only the first firing flips the bookkeeping.
            with self._cond:
                if state["woken"]:
                    return
                state["woken"] = True
                access(self, "_sleeping")
                self._sleeping -= 1
                access(self, "_sleepers")
                self._sleepers.remove(wake)
            woken.set()

        with self._cond:
            access(self, "_sleeping")
            self._sleeping += 1
            access(self, "_sleepers")
            self._sleepers.append(wake)
            # Registered under the lock so the sleep bookkeeping and
            # the wake timer become visible to ``settled`` atomically —
            # a driver can never observe the sleeper without the timer
            # that frees it.
            handle = self.clock.call_later(seconds, wake)
        woken.wait()
        self.clock.cancel(handle)  # no-op unless close() won the race

    def _process(self, batch: list[_Request]) -> None:
        now = self.clock.now()
        self._batch_size.observe(len(batch))
        self._batch_wait.observe(
            now - batch[0].enqueued_at,
            exemplar=batch[0].ticket.trace_id)
        for request in batch:
            if request.span is not None:
                self.tracer.end(request.wait_span, end=now,
                                waited=now - request.enqueued_at)
        live: list[_Request] = []
        for request in batch:
            if request.deadline is not None and now >= request.deadline:
                self._timeouts.inc()
                request.ticket._fail(
                    RequestTimeout(request.id,
                                   waited=now - request.enqueued_at),
                    now)
                if request.span is not None:
                    self.tracer.finish(
                        request.span, end=now, outcome="timeout",
                        reason=f"deadline expired after "
                               f"{(now - request.enqueued_at) * 1000:.1f}"
                               f" ms queued")
            else:
                live.append(request)
        if not live:
            return
        if self._chaos is not None:
            delay = self._chaos.maybe_delay_forward(
                [request.id for request in live])
            if delay > 0.0:
                self._chaos_sleep(delay)
        stages = (BatchStages(self.clock.now)
                  if self._backend_stages
                  and any(r.span is not None for r in live) else None)
        extra = {"stages": stages} if stages is not None else {}
        assembled = self.clock.now()
        try:
            outcomes = self._backend.score(
                [(r.entity_a, r.entity_b) for r in live],
                keys=[r.id for r in live],
                threshold=self.config.threshold,
                fallback=self.config.fallback,
                forward_hook=self._forward_hook,
                cb=self._cb, **extra)
        except Exception as exc:  # noqa: BLE001 — backends isolate; this
            # is the last-resort boundary keeping tickets from hanging.
            done = self.clock.now()
            for request in live:
                request.ticket._fail(
                    ServeError(f"backend failed wholesale: "
                               f"{type(exc).__name__}: {exc}"), done)
                if request.span is not None:
                    self.tracer.finish(
                        request.span, end=done, outcome="error",
                        reason=f"{type(exc).__name__}: {exc}")
            return
        done = self.clock.now()
        for request, outcome in zip(live, outcomes):
            self._completed.inc()
            if outcome.degraded:
                self._degraded.inc()
            self._latency.observe(done - request.enqueued_at,
                                  exemplar=request.ticket.trace_id)
            request.ticket._complete(outcome, done)
            if request.span is not None:
                self._close_trace(request, outcome, now, assembled, done,
                                  len(batch), stages)

    def _close_trace(self, request: _Request, outcome, drained: float,
                     assembled: float, done: float, batch_size: int,
                     stages: BatchStages | None) -> None:
        """Graft the shared batch stages into one request's span tree.

        The batch work (assembly, tokenize, forward) happened once for
        the whole drain, but causally belongs to every member request —
        each gets its own copies (fresh span ids, shared timestamps).
        """
        root = request.span
        self.tracer.attach(root, "batch_assembly", start=drained,
                           end=assembled, batch_size=batch_size)
        if stages is not None:
            for stage in stages.records:
                self.tracer.attach(root, stage.name, start=stage.start,
                                   end=stage.end, **stage.attrs)
        self.tracer.attach(root, "postprocess", start=done, end=done)
        attrs = {"outcome": "degraded" if outcome.degraded else "ok",
                 "probability": outcome.probability}
        if outcome.degraded and outcome.error:
            attrs["reason"] = outcome.error
        self.tracer.finish(root, end=done, **attrs)
