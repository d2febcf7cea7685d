"""Fault-tolerant serving tier: retries, breakers, hedging, supervision.

:class:`MatchService` is deliberately simple: it batches, it bounds its
queue, and it fails typed.  This module wraps N such services in the
machinery that turns typed failures into availability (DESIGN.md §15):

* :class:`ReplicaSet` — a self-healing supervisor owning N in-process
  replicas.  A recurring health probe (on the shared
  :class:`~repro.serve.Clock`) respawns any replica whose worker pool
  died (chaos ``maybe_kill_worker``, or a real crash) or that was
  closed, failing its stranded queue typed so clients can retry.  Each
  replica carries a :class:`~repro.serve.CircuitBreaker`; routing picks
  the least-loaded healthy replica whose breaker admits traffic.
* :class:`ResilientClient` — the request-level front end.  Every
  logical request becomes a *flight* that may span several attempts:
  failed attempts are retried under a :class:`~repro.serve.RetryPolicy`
  (seeded backoff, retry budget, deadline propagation), stragglers are
  *hedged* (a duplicate is launched once the attempt outlives a latency
  percentile; first result wins, the loser is cancelled), and
  submissions are shed with :class:`~repro.serve.ServiceOverloaded`
  when the fleet-wide queue depth says the system is saturated —
  failing fast beats queueing doomed work.

The client is fully event-driven: no thread per request, no polling.
Completions propagate through :meth:`MatchTicket.add_done_callback`,
and everything time-based — attempt timeouts, hedge triggers, backoff,
health probes, logical deadlines — is a :meth:`Clock.call_later` timer.
On a :class:`~repro.serve.VirtualClock` those timers fire on the driver
thread in deterministic order, so an entire outage-and-recovery
scenario replays bit-identically (:func:`repro.serve.run_simulation`);
on a :class:`~repro.serve.SystemClock` the same code serves real
traffic with one shared timer thread.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from ..obs import default_registry
from ..obs.registry import LATENCY_BUCKETS
from ..utils.concurrency import access, make_lock
from .breaker import BreakerConfig, CircuitBreaker
from .clock import Clock, SystemClock
from .retry import RetryConfig, RetryPolicy
from .service import MatchService, MatchTicket, RequestCancelled, \
    RequestTimeout, ServeError, ServiceClosed, ServiceOverloaded

__all__ = ["HedgeConfig", "ResilientConfig", "Replica", "ReplicaSet",
           "ResilientClient"]


@dataclass
class HedgeConfig:
    """When to duplicate a straggling attempt.

    With ``delay_ms`` unset the hedge trigger adapts: it is the
    ``percentile`` of the client's recent success latencies (needing at
    least ``min_samples`` observations before any hedge fires).  A
    fixed ``delay_ms`` overrides that — the deterministic-test knob.
    ``max_hedges`` bounds duplicates per logical request; hedges do
    not consume the retry budget (they add bounded load by design).
    """

    enabled: bool = True
    delay_ms: float | None = None
    percentile: float = 0.95
    min_samples: int = 20
    min_delay_ms: float = 1.0
    max_hedges: int = 1

    def __post_init__(self):
        if self.delay_ms is not None and self.delay_ms <= 0:
            raise ValueError(f"delay_ms must be > 0 when set, got "
                             f"{self.delay_ms}")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError(f"percentile must be in (0, 1), got "
                             f"{self.percentile}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got "
                             f"{self.min_samples}")
        if self.min_delay_ms < 0:
            raise ValueError(f"min_delay_ms must be >= 0, got "
                             f"{self.min_delay_ms}")
        if self.max_hedges < 0:
            raise ValueError(f"max_hedges must be >= 0, got "
                             f"{self.max_hedges}")


@dataclass
class ResilientConfig:
    """Client-side fault-tolerance policy for :class:`ResilientClient`.

    ``attempt_timeout_ms`` bounds every individual attempt — a request
    stuck behind a slow or dead replica is abandoned (best-effort
    cancelled), charged to that replica's breaker, and retried
    elsewhere.  ``default_timeout_ms`` is the *logical* end-to-end
    deadline applied when ``submit`` gets none (None = unbounded).
    ``shed_queue_factor`` scales the load-shedding threshold: new
    submissions are rejected once the fleet-wide queue depth reaches
    ``factor × total queue capacity``.
    """

    retry: RetryConfig = field(default_factory=RetryConfig)
    hedge: HedgeConfig = field(default_factory=HedgeConfig)
    attempt_timeout_ms: float = 250.0
    default_timeout_ms: float | None = None
    shed_queue_factor: float = 1.0

    def __post_init__(self):
        if self.attempt_timeout_ms <= 0:
            raise ValueError(f"attempt_timeout_ms must be > 0, got "
                             f"{self.attempt_timeout_ms}")
        if self.default_timeout_ms is not None \
                and self.default_timeout_ms <= 0:
            raise ValueError(f"default_timeout_ms must be > 0, got "
                             f"{self.default_timeout_ms}")
        if self.shed_queue_factor <= 0:
            raise ValueError(f"shed_queue_factor must be > 0, got "
                             f"{self.shed_queue_factor}")


class Replica:
    """One supervised :class:`MatchService` slot in a :class:`ReplicaSet`.

    The slot outlives any individual service: chaos (or reality) kills
    the service's workers, the supervisor closes it and spawns a fresh
    one from ``factory`` into the same slot, under the same breaker
    identity (reset, since the new pool shares none of the old one's
    failure history).
    """

    def __init__(self, index: int, factory):
        self.index = index
        self.name = f"replica-{index}"
        self._factory = factory
        self.service: MatchService | None = None
        self.breaker: CircuitBreaker | None = None
        #: How many services have occupied this slot (0 = never spawned).
        self.generation = 0
        #: Supervisor respawns (excludes the initial spawn).
        self.respawns = 0

    def spawn(self) -> MatchService:
        """Build and start a fresh service in this slot."""
        self.service = self._factory(self.index)
        self.service.start()
        self.generation += 1
        return self.service


class ReplicaSet:
    """Self-healing supervisor over N in-process match services.

    ``factory(index)`` must return an *unstarted* :class:`MatchService`
    sharing this set's clock (and usually its registry); the supervisor
    owns start/close.  A recurring probe every ``probe_interval_ms``
    (on the shared clock, so virtual-time tests control it exactly)
    closes and respawns any replica that is no longer
    :attr:`~MatchService.healthy` — its stranded queue fails typed with
    :class:`~repro.serve.ServiceClosed`, which the resilient client
    retries on surviving replicas.

    Usage::

        replicas = ReplicaSet(factory, num_replicas=3, clock=clock)
        client = ResilientClient(replicas)
        with client:
            outcome = client.submit(a, b).result()
    """

    def __init__(self, factory, num_replicas: int = 2,
                 clock: Clock | None = None, registry=None,
                 breaker_config: BreakerConfig | None = None,
                 probe_interval_ms: float = 50.0):
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got "
                             f"{num_replicas}")
        if probe_interval_ms <= 0:
            raise ValueError(f"probe_interval_ms must be > 0, got "
                             f"{probe_interval_ms}")
        self.clock = clock or SystemClock()
        self.registry = registry if registry is not None \
            else default_registry()
        self.breaker_config = breaker_config or BreakerConfig()
        self._probe_interval = probe_interval_ms / 1000.0
        self._lock = make_lock("ReplicaSet._lock")
        self._closed = False        # guard: _lock
        self._probing = False       # guard: _lock
        self._probe_handle = None   # guard: _lock
        self.replicas = [Replica(index, factory)
                         for index in range(num_replicas)]
        for replica in self.replicas:
            replica.breaker = CircuitBreaker(
                replica.name, self.breaker_config, clock=self.clock,
                registry=self.registry)
        self._respawns = self.registry.counter("serve.replicas.respawns")
        self._alive = self.registry.gauge("serve.replicas.alive")

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ReplicaSet":
        """Spawn all replicas and arm the health probe (idempotent)."""
        with self._lock:
            access(self, "_closed", write=False)
            if self._closed:
                raise ServiceClosed("cannot start a closed replica set")
        for replica in self.replicas:
            if replica.service is None:
                replica.spawn()
        self._alive.set(self.healthy_count)
        with self._lock:
            if self._probe_handle is None:
                access(self, "_probe_handle")
                self._probe_handle = self.clock.call_later(
                    self._probe_interval, self._probe_tick)
        return self

    def close(self, drain: bool = True) -> None:
        """Disarm the probe and close every replica's service."""
        with self._lock:
            access(self, "_closed")
            self._closed = True
            handle = self._probe_handle
            access(self, "_probe_handle")
            self._probe_handle = None
        if handle is not None:
            self.clock.cancel(handle)
        for replica in self.replicas:
            if replica.service is not None:
                replica.service.close(drain=drain)
        self._alive.set(0)

    def __enter__(self) -> "ReplicaSet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- health / supervision ------------------------------------------------

    def _probe_tick(self) -> None:
        with self._lock:
            access(self, "_closed", write=False)
            if self._closed:
                return
            access(self, "_probing")
            self._probing = True
        try:
            self.probe()
        finally:
            with self._lock:
                access(self, "_probing")
                self._probing = False
                if not self._closed:
                    access(self, "_probe_handle")
                    self._probe_handle = self.clock.call_later(
                        self._probe_interval, self._probe_tick)

    def probe(self) -> int:
        """One health sweep; returns how many replicas were respawned.

        An unhealthy replica (dead/partially dead worker pool, or
        closed) is closed without drain — stranding its queue would
        stall those requests forever, while failing them typed lets the
        client retry immediately — then respawned fresh, with its
        breaker reset.
        """
        respawned = 0
        for replica in self.replicas:
            service = replica.service
            if service is not None and service.healthy:
                continue
            if service is not None:
                service.close(drain=False)
            replica.spawn()
            replica.respawns += 1
            replica.breaker.reset()
            self._respawns.inc()
            respawned += 1
        self._alive.set(self.healthy_count)
        return respawned

    @property
    def healthy_count(self) -> int:
        """Replicas currently healthy (live full worker pools)."""
        return sum(1 for replica in self.replicas
                   if replica.service is not None
                   and replica.service.healthy)

    # -- routing -------------------------------------------------------------

    def pick(self, exclude=()) -> Replica | None:
        """The replica to route the next attempt to, or None.

        Healthy replicas outside ``exclude`` are tried least-loaded
        first (ties broken by index, so routing is deterministic);
        the first whose breaker admits the request wins.  If none does,
        excluded replicas are considered as a fallback — retrying on
        the same replica beats failing a request outright when it is
        the only one left.
        """
        if len(self.replicas) == 1:
            # Single-replica fleet: the two-pass preference degenerates
            # to "healthy and the breaker admits" (the fallback pass
            # re-admits an excluded sole replica anyway), so skip the
            # ranking machinery on this hot path.
            replica = self.replicas[0]
            service = replica.service
            if service is not None and service.healthy \
                    and replica.breaker.allow():
                return replica
            return None
        exclude = set(exclude)
        # Sorting (depth, index) tuples keeps the ranking in C — the
        # index is unique, so the replica object itself is never
        # compared.  This runs once per request; no lambdas, no extra
        # property round-trips.
        ranked = sorted(
            (replica.service.queue_depth, replica.index, replica)
            for replica in self.replicas
            if replica.service is not None and replica.service.healthy)
        for preferred in (True, False):
            for _depth, index, replica in ranked:
                if (index not in exclude) is preferred \
                        and replica.breaker.allow():
                    return replica
        return None

    @property
    def total_queue_depth(self) -> int:
        """Queued requests across all live replicas."""
        total = 0
        for replica in self.replicas:
            if replica.service is not None:
                total += replica.service.queue_depth
        return total

    def load(self) -> tuple[int, int]:
        """``(queued, capacity)`` across live replicas in one pass —
        the admission check reads both every request, and two property
        walks over the fleet would double the cost."""
        queued = 0
        capacity = 0
        for replica in self.replicas:
            service = replica.service
            if service is not None:
                queued += service.queue_depth
                capacity += service.config.max_queue
        return queued, capacity

    @property
    def capacity(self) -> int:
        """Fleet-wide queue capacity (sum of ``max_queue``)."""
        return sum(replica.service.config.max_queue
                   for replica in self.replicas
                   if replica.service is not None)

    def drain_hint(self) -> float:
        """Backoff hint when shedding: the fastest replica's estimated
        backlog drain time (mirrors the per-service ``retry_after``)."""
        hints = []
        for replica in self.replicas:
            service = replica.service
            if service is None or not service.healthy:
                continue
            config = service.config
            drains = -(-service.queue_depth // config.max_batch_size)
            hints.append(max(drains, 1) * config.max_wait_ms / 1000.0)
        return min(hints) if hints else self._probe_interval

    @property
    def settled(self) -> bool:
        """Quiescence across the fleet, for the virtual-time driver.

        True when no probe is mid-sweep and every replica's service is
        settled (a service with a dead worker pool counts as settled —
        nothing will react until a timer-driven respawn, and timers are
        the driver's job).
        """
        with self._lock:
            access(self, "_probing", write=False)
            if self._probing:
                return False
        return all(replica.service is None or replica.service.settled
                   for replica in self.replicas)


class _Attempt:
    """One submission of a flight to one replica."""

    __slots__ = ("replica", "is_hedge", "ticket", "finished",
                 "abandoned")

    def __init__(self, replica: Replica, is_hedge: bool):
        self.replica = replica
        self.is_hedge = is_hedge
        self.ticket: MatchTicket | None = None
        #: Completion callback ran (success or failure) — the shared
        #: timeout sweep must not fire for this attempt any more.
        self.finished = False
        self.abandoned = False


class _Flight:
    """One logical request and all its attempts.

    All mutable fields are guarded by the owning client's ``_lock``
    (they are plain attributes here because flights are internal and
    never escape the client).
    """

    __slots__ = ("id", "entity_a", "entity_b", "deadline", "ticket",
                 "serial_attempts", "hedges_launched", "outstanding",
                 "done", "last_error", "last_replica", "retry_handle",
                 "hedge_handle", "deadline_handle")

    def __init__(self, flight_id: int, entity_a, entity_b,
                 submitted_at: float, deadline: float | None):
        self.id = flight_id
        self.entity_a = entity_a
        self.entity_b = entity_b
        self.deadline = deadline
        self.ticket = MatchTicket(flight_id, submitted_at)
        self.serial_attempts = 0
        self.hedges_launched = 0
        self.outstanding: list[_Attempt] = []
        self.done = False
        self.last_error: Exception | None = None
        self.last_replica: int | None = None
        self.retry_handle = None
        self.hedge_handle = None
        self.deadline_handle = None


class ResilientClient:
    """Request-level fault tolerance over a :class:`ReplicaSet`.

    :meth:`submit` returns the same :class:`~repro.serve.MatchTicket`
    future a bare service would — callers keep their code — but behind
    it a *flight* rides out replica failures: attempt timeouts, typed
    service errors and outages are retried with seeded backoff on other
    replicas; stragglers are hedged; saturation is shed.  Everything is
    driven by ticket callbacks and clock timers, so the tier adds no
    threads and (chaos off) only microseconds per request.

    All flight state is guarded by ``_lock``; the lock is never held
    across a service call, a breaker call, or a ticket completion, so
    worker callbacks and timer callbacks cannot deadlock against
    submissions.
    """

    def __init__(self, replicas: ReplicaSet,
                 config: ResilientConfig | None = None, registry=None):
        self.replicas = replicas
        self.config = config or ResilientConfig()
        self.clock = replicas.clock
        self.policy = RetryPolicy(self.config.retry)
        registry = registry if registry is not None \
            else replicas.registry
        self._lock = make_lock("ResilientClient._lock")
        self._flights: dict[int, _Flight] = {}  # guard: _lock
        #: Recent success latencies feeding the hedge percentile.
        self._latency_window: deque = deque(maxlen=256)  # guard: _lock
        #: Shared attempt-timeout queue.  Every attempt uses the same
        #: fixed ``attempt_timeout_ms``, so deadlines arrive in FIFO
        #: order and one timer armed for the head entry replaces a
        #: ``call_later``/``cancel`` pair per request (the classic
        #: single-timer timing queue).  Entries are
        #: ``(deadline, flight, attempt)``; resolved attempts stay in
        #: the queue and are dropped lazily by the sweep.
        self._timeout_queue: deque = deque()    # guard: _lock
        self._timeout_handle = None             # guard: _lock
        self._closed = False                    # guard: _lock
        self._ids = itertools.count()
        self._requests = registry.counter("serve.client.requests")
        self._completed = registry.counter("serve.client.completed")
        self._errors = registry.counter("serve.client.errors")
        self._timeouts = registry.counter("serve.client.timeouts")
        self._shed = registry.counter("serve.client.shed")
        self._retries = registry.counter("serve.client.retries")
        self._attempt_timeouts = registry.counter(
            "serve.client.attempt_timeouts")
        self._budget_exhausted = registry.counter(
            "serve.client.budget_exhausted")
        self._hedge_launched = registry.counter("serve.hedge.launched")
        self._hedge_wins = registry.counter("serve.hedge.wins")
        self._hedge_cancelled = registry.counter("serve.hedge.cancelled")
        self._latency = registry.histogram("serve.client.latency_seconds",
                                           buckets=LATENCY_BUCKETS)
        self._backoff = registry.histogram("serve.client.backoff_seconds",
                                           buckets=LATENCY_BUCKETS)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ResilientClient":
        """Start the replica set (idempotent)."""
        self.replicas.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop admissions, close the fleet, fail leftover flights.

        With ``drain=True`` replicas finish their queues first, which
        resolves most flights normally; flights parked in a backoff or
        stranded by the shutdown fail typed with
        :class:`~repro.serve.ServiceClosed`.
        """
        with self._lock:
            access(self, "_closed")
            self._closed = True
        self.replicas.close(drain=drain)
        with self._lock:
            access(self, "_flights")
            leftovers = list(self._flights.values())
            self._flights.clear()
            cancels: list = [self._timeout_handle]
            self._timeout_handle = None
            self._timeout_queue.clear()
            for flight in leftovers:
                flight.done = True
                cancels.extend([flight.retry_handle, flight.hedge_handle,
                                flight.deadline_handle])
                flight.outstanding = []
        for handle in cancels:
            if handle is not None:
                self.clock.cancel(handle)
        now = self.clock.now()
        for flight in leftovers:
            self._errors.inc()
            flight.ticket._fail(
                ServiceClosed(f"client closed with request {flight.id} "
                              f"unresolved"), now)

    def __enter__(self) -> "ResilientClient":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Unresolved flights (for drain loops and tests)."""
        with self._lock:
            access(self, "_flights", write=False)
            return len(self._flights)

    @property
    def healthy(self) -> bool:
        """Open for requests.  Dead replicas do not count against it:
        the supervisor respawns them and flights retry elsewhere, so
        every unresolved flight still resolves."""
        return not self._closed

    @property
    def settled(self) -> bool:
        """Fleet quiescence for the deterministic driver.

        The client itself needs no extra bookkeeping: its state only
        changes on the driver thread (submissions, virtual-timer
        callbacks) or inside worker completions, which the replica
        services already report as unsettled.
        """
        return self.replicas.settled

    def submit(self, entity_a, entity_b,
               timeout_ms: float | None = None) -> MatchTicket:
        """Submit one pair with fault tolerance; returns its ticket.

        Raises :class:`~repro.serve.ServiceOverloaded` immediately when
        the fleet is saturated (load shedding — the ``retry_after``
        hint is the fastest replica's drain estimate) and
        :class:`~repro.serve.ServiceClosed` after :meth:`close`.
        ``timeout_ms`` (or the config default) is the *logical*
        deadline across all attempts.
        """
        # Lock-free read: _closed is monotone (False→True, once), and
        # the check-then-insert was never atomic — a submit racing
        # close() is caught by the replica services' own closed checks
        # either way, so the lock here bought cost, not safety.  (The
        # race detector only sees access()-instrumented reads; skipped
        # deliberately.)
        if self._closed:
            raise ServiceClosed("client is closed to new requests")
        depth, capacity = self.replicas.load()
        if capacity and depth >= self.config.shed_queue_factor * capacity:
            self._shed.inc()
            raise ServiceOverloaded(depth, self.replicas.drain_hint())
        if timeout_ms is None:
            timeout_ms = self.config.default_timeout_ms
        now = self.clock.now()
        deadline = None if timeout_ms is None \
            else now + timeout_ms / 1000.0
        flight = _Flight(next(self._ids), entity_a, entity_b, now,
                         deadline)
        self.policy.budget.note_request()
        self._requests.inc()
        with self._lock:
            access(self, "_flights")
            self._flights[flight.id] = flight
            if deadline is not None:
                flight.deadline_handle = self.clock.call_later(
                    timeout_ms / 1000.0,
                    lambda: self._deadline_fired(flight))
        self._launch(flight)
        return flight.ticket

    # -- attempt machinery ---------------------------------------------------

    def _launch(self, flight: _Flight, is_hedge: bool = False) -> None:
        """Route and submit one attempt (the policy's entry point)."""
        with self._lock:
            if flight.done or self._closed:
                return
            if is_hedge:
                flight.hedges_launched += 1
                self._hedge_launched.inc()
            else:
                flight.serial_attempts += 1
            exclude = {attempt.replica.index
                       for attempt in flight.outstanding}
            if flight.last_replica is not None:
                exclude.add(flight.last_replica)
        replica = self.replicas.pick(exclude)
        if replica is None:
            self._attempt_failed(
                flight,
                ServeError(f"no replica available for request "
                           f"{flight.id} (circuits open or fleet "
                           f"unhealthy)"),
                retry_after=None)
            return
        attempt = _Attempt(replica, is_hedge)
        with self._lock:
            if flight.done:
                stale = True
            else:
                stale = False
                flight.outstanding.append(attempt)
                flight.last_replica = replica.index
                # Enqueued (and, when the queue was idle, armed)
                # *before* the service submit: the worker a submit
                # wakes cannot register its flush timer until after
                # ours, so a timeout deadline that happens to coincide
                # with a flush deadline still fires in a reproducible
                # order.  ``now`` is read under the lock so concurrent
                # launches keep the queue deadline-monotone.
                timeout = self.config.attempt_timeout_ms / 1000.0
                self._timeout_queue.append(
                    (self.clock.now() + timeout, flight, attempt))
                if self._timeout_handle is None:
                    self._timeout_handle = self.clock.call_later(
                        timeout, self._timeout_sweep)
        if stale:
            replica.breaker.release()
            return
        try:
            ticket = replica.service.submit(flight.entity_a,
                                            flight.entity_b)
        except ServeError as exc:
            replica.breaker.record_failure()
            with self._lock:
                attempt.abandoned = True
                if attempt in flight.outstanding:
                    flight.outstanding.remove(attempt)
            self._attempt_failed(flight, exc,
                                 retry_after=getattr(exc, "retry_after",
                                                     None))
            return
        attempt.ticket = ticket
        if not is_hedge:
            self._maybe_arm_hedge(flight)
        ticket.add_done_callback(
            lambda done_ticket: self._attempt_done(flight, attempt,
                                                   done_ticket))

    def _maybe_arm_hedge(self, flight: _Flight) -> None:
        delay = self._hedge_delay()
        if delay is None:
            return
        with self._lock:
            if (flight.done or flight.hedge_handle is not None
                    or flight.hedges_launched
                    >= self.config.hedge.max_hedges):
                return
            flight.hedge_handle = self.clock.call_later(
                delay, lambda: self._hedge_fired(flight))

    def _hedge_delay(self) -> float | None:
        """Seconds before a straggling attempt gets a hedge, or None."""
        config = self.config.hedge
        if not config.enabled or config.max_hedges < 1:
            return None
        if config.delay_ms is not None:
            return max(config.delay_ms, config.min_delay_ms) / 1000.0
        with self._lock:
            access(self, "_latency_window", write=False)
            samples = sorted(self._latency_window)
        if len(samples) < config.min_samples:
            return None
        position = config.percentile * (len(samples) - 1)
        low = int(position)
        high = min(low + 1, len(samples) - 1)
        fraction = position - low
        value = samples[low] * (1 - fraction) + samples[high] * fraction
        # A hedge fires only when an attempt has *strictly* outlived
        # the percentile.  Observed latencies sit exactly on flush-wait
        # boundaries under virtual time, so without this relative bump
        # the hedge timer would land on the same instant as the batch
        # flush that is about to complete the attempt — a structural
        # tie whose firing order would depend on thread timing.
        value *= 1.0 + 1e-6
        return max(value, config.min_delay_ms / 1000.0)

    def _hedge_fired(self, flight: _Flight) -> None:
        with self._lock:
            flight.hedge_handle = None
            if (flight.done or self._closed or not flight.outstanding
                    or flight.hedges_launched
                    >= self.config.hedge.max_hedges):
                return
        self._launch(flight, is_hedge=True)

    def _attempt_done(self, flight: _Flight, attempt: _Attempt,
                      ticket: MatchTicket) -> None:
        """Ticket completion hook — runs on the completing thread."""
        with self._lock:
            attempt.finished = True  # retire its pooled timeout entry
            abandoned = attempt.abandoned or flight.done
        error = ticket.exception()
        if abandoned:
            # The flight moved on (timeout, hedge twin won, deadline).
            # Keep the breaker honest about what the replica did, but a
            # cancellation we issued ourselves is nobody's failure.
            if error is None:
                attempt.replica.breaker.record_success()
            elif not isinstance(error, (RequestCancelled, ServiceClosed)):
                attempt.replica.breaker.record_failure()
            return
        if error is None:
            self._attempt_succeeded(flight, attempt, ticket)
            return
        with self._lock:
            if attempt in flight.outstanding:
                flight.outstanding.remove(attempt)
        attempt.replica.breaker.record_failure()
        self._attempt_failed(flight, error,
                             retry_after=getattr(error, "retry_after",
                                                 None))

    def _attempt_succeeded(self, flight: _Flight, attempt: _Attempt,
                           ticket: MatchTicket) -> None:
        now = self.clock.now()
        latency = now - flight.ticket.submitted_at
        with self._lock:
            if flight.done:
                return
            flight.done = True
            access(self, "_flights")
            self._flights.pop(flight.id, None)
            losers = [other for other in flight.outstanding
                      if other is not attempt]
            flight.outstanding = []
            for loser in losers:
                loser.abandoned = True
            cancels = [flight.retry_handle, flight.hedge_handle,
                       flight.deadline_handle]
            access(self, "_latency_window")
            self._latency_window.append(latency)
        for handle in cancels:
            if handle is not None:
                self.clock.cancel(handle)
        attempt.replica.breaker.record_success()
        if attempt.is_hedge:
            self._hedge_wins.inc()
        for loser in losers:
            if loser.ticket is not None \
                    and loser.replica.service.cancel(loser.ticket):
                self._hedge_cancelled.inc()
        self._completed.inc()
        self._latency.observe(latency)
        flight.ticket._complete(ticket.result(), now)

    def _timeout_sweep(self) -> None:
        """Fire due attempt timeouts from the shared deadline queue.

        The queue is FIFO by deadline (fixed per-attempt timeout), so
        this pops dead heads lazily, times out the live due ones, and
        re-arms one timer for the next head.  A head entry whose
        attempt already resolved leaves the timer armed at a stale
        deadline; the cost is this one spurious sweep, never a missed
        or early timeout.
        """
        due = []
        with self._lock:
            self._timeout_handle = None
            now = self.clock.now()
            queue = self._timeout_queue
            while queue:
                deadline, flight, attempt = queue[0]
                dead = (flight.done or attempt.abandoned
                        or attempt.finished)
                if not dead and deadline > now:
                    break
                queue.popleft()
                if not dead:
                    due.append((flight, attempt))
            if queue:
                self._timeout_handle = self.clock.call_later(
                    max(queue[0][0] - now, 0.0), self._timeout_sweep)
        for flight, attempt in due:
            self._attempt_timed_out(flight, attempt)

    def _attempt_timed_out(self, flight: _Flight,
                           attempt: _Attempt) -> None:
        with self._lock:
            if flight.done or attempt.abandoned or attempt.finished:
                return
            attempt.abandoned = True
            if attempt in flight.outstanding:
                flight.outstanding.remove(attempt)
        self._attempt_timeouts.inc()
        attempt.replica.breaker.record_failure()
        if attempt.ticket is not None:
            attempt.replica.service.cancel(attempt.ticket)
        self._attempt_failed(
            flight,
            RequestTimeout(flight.id,
                           waited=self.config.attempt_timeout_ms
                           / 1000.0),
            retry_after=None)

    def _attempt_failed(self, flight: _Flight, error: Exception,
                        retry_after: float | None) -> None:
        """Decide the flight's fate after one attempt failed."""
        resolve = None
        with self._lock:
            flight.last_error = error
            if flight.done or flight.outstanding:
                return  # a twin attempt still owns the flight
            retry = (not self._closed
                     and self.policy.retryable(error)
                     and flight.serial_attempts
                     < self.config.retry.max_attempts)
            if retry:
                delay = self.policy.backoff(flight.id,
                                            flight.serial_attempts,
                                            retry_after)
                if flight.deadline is not None \
                        and self.clock.now() + delay >= flight.deadline:
                    retry = False  # the backoff lands past the deadline
            if retry and not self.policy.budget.try_spend():
                self._budget_exhausted.inc()
                retry = False
            if retry:
                self._retries.inc()
                self._backoff.observe(delay)
                flight.retry_handle = self.clock.call_later(
                    delay, lambda: self._retry_fired(flight))
                return
            flight.done = True
            access(self, "_flights")
            self._flights.pop(flight.id, None)
            resolve = [flight.hedge_handle, flight.deadline_handle]
        for handle in resolve:
            if handle is not None:
                self.clock.cancel(handle)
        self._errors.inc()
        flight.ticket._fail(error, self.clock.now())

    def _retry_fired(self, flight: _Flight) -> None:
        with self._lock:
            flight.retry_handle = None
            if flight.done or self._closed:
                return
        self._launch(flight)

    def _deadline_fired(self, flight: _Flight) -> None:
        """The logical end-to-end deadline expired: abandon everything."""
        with self._lock:
            flight.deadline_handle = None
            if flight.done:
                return
            flight.done = True
            access(self, "_flights")
            self._flights.pop(flight.id, None)
            losers = flight.outstanding
            flight.outstanding = []
            for loser in losers:
                loser.abandoned = True
            cancels = [flight.retry_handle, flight.hedge_handle]
        for handle in cancels:
            if handle is not None:
                self.clock.cancel(handle)
        for loser in losers:
            if loser.ticket is not None:
                loser.replica.service.cancel(loser.ticket)
        self._timeouts.inc()
        now = self.clock.now()
        flight.ticket._fail(
            RequestTimeout(flight.id,
                           waited=now - flight.ticket.submitted_at),
            now)
