"""Clock abstraction: the only place serving code may touch time.

Everything in :mod:`repro.serve` that waits, sleeps, stamps a deadline
or measures a latency does it through a :class:`Clock`, never through
``time.sleep`` / ``time.monotonic`` directly (lint rule RA111 enforces
this).  Two implementations share the interface:

* :class:`SystemClock` — real wall-clock time, for production serving
  and the ``repro bench serve`` load benchmark;
* :class:`VirtualClock` — a deterministic simulated clock for the test
  harness (:mod:`repro.serve.sim`): time only moves when the driver
  calls :meth:`~VirtualClock.advance`, which fires registered timers in
  strict deadline order.  Queueing, timeout and backpressure behavior
  becomes exactly reproducible — no real sleeps, no wall-clock
  flakiness, and a "ten minute" soak finishes in milliseconds.

The interface has no driver-side "let time pass" method: the load
driver (:func:`repro.serve.sim.run_simulation`) *causes* virtual time
with :meth:`VirtualClock.advance` in settled steps, but on the system
clock it sleeps to each arrival's absolute due time, and those are
different operations.

Worker threads block on :class:`ClockCondition` — a
``threading.Condition`` whose *timeout* is interpreted by the owning
clock.  On the system clock it is a plain timed wait; on the virtual
clock the wait parks on a real (untimed) condition and a virtual timer
wakes it when simulated time passes the deadline.  Notifications
(``notify_all``) are real in both cases, so producer/consumer wakeups
work identically whichever clock is plugged in.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time

from ..utils.concurrency import make_condition

__all__ = ["Clock", "ClockCondition", "SystemClock", "VirtualClock"]


class ClockCondition:
    """A condition variable whose wait timeouts run on a :class:`Clock`.

    Use like ``threading.Condition``::

        with cond:
            cond.wait_for(lambda: queue or closed, timeout=0.005)

    ``notify_all`` must be called with the lock held, as usual.
    """

    def __init__(self, clock: "Clock"):
        self._clock = clock
        # Through the factory: under an active RaceDetector the inner
        # condition is a traced wrapper, so service lock acquisitions
        # feed the lockset algorithm; normally it is a plain
        # threading.Condition.
        self._cond = make_condition("ClockCondition")

    def __enter__(self):
        self._cond.__enter__()
        return self

    def __exit__(self, *exc):
        return self._cond.__exit__(*exc)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def wait_for(self, predicate, timeout: float | None = None) -> bool:
        """Block until ``predicate()`` is true or ``timeout`` clock
        seconds elapse; returns the final predicate value."""
        if timeout is None:
            return self._cond.wait_for(predicate)
        return self._clock._wait_for(self._cond, predicate, timeout)


class Clock:
    """Interface: monotonic time, sleeping, timers, and conditions."""

    def now(self) -> float:
        """Monotonic seconds."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds`` of clock time."""
        raise NotImplementedError

    def call_later(self, delay: float, callback):
        """Schedule ``callback()`` to fire after ``delay`` clock seconds
        without blocking the caller; returns a handle accepted by
        :meth:`cancel`.  The resilient tier runs on these timers
        (backoff, hedges, attempt timeouts, health probes), so both
        clocks must implement them.
        """
        raise NotImplementedError

    def cancel(self, handle) -> None:
        """Deactivate a timer returned by :meth:`call_later`."""
        raise NotImplementedError

    def condition(self) -> ClockCondition:
        """A condition variable whose timeouts run on this clock."""
        return ClockCondition(self)

    def _wait_for(self, cond: threading.Condition, predicate,
                  timeout: float) -> bool:
        raise NotImplementedError


class SystemClock(Clock):
    """Real time: ``time.monotonic`` / ``time.sleep``.

    This class is the single sanctioned blocking-sleep site in the
    serving stack (RA111 exempts it); every other module must take a
    ``Clock`` so the virtual implementation can substitute.

    Timers (:meth:`call_later`) share one lazily started daemon thread
    per clock instance — a heap-ordered timer wheel, not a
    thread-per-timer ``threading.Timer``, so the resilient tier can arm
    one timeout per attempt without spawning a thread per request.
    """

    def __init__(self):
        self._timer_cond = threading.Condition()
        self._timers: list[list] = []   # guard: _timer_cond
        self._sequence = itertools.count()
        self._timer_thread: threading.Thread | None = None

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def call_later(self, delay: float, callback) -> list:
        entry = [self.now() + max(float(delay), 0.0),
                 next(self._sequence), callback]
        with self._timer_cond:
            heapq.heappush(self._timers, entry)
            # The wheel thread never exits its loop (callbacks that
            # raise are swallowed), so one None check replaces a
            # per-call Thread.is_alive poll on the hot path.
            if self._timer_thread is None:
                self._timer_thread = threading.Thread(
                    target=self._timer_loop, daemon=True,
                    name="repro-serve-timer")
                self._timer_thread.start()
            # Wake the wheel only when the new timer preempts the
            # deadline it is sleeping toward.  The common case — one
            # fixed-delay attempt timeout per request, registered in
            # arrival order — pushes monotonically later deadlines, and
            # an unconditional notify would context-switch the timer
            # thread on every request.  Pushing behind a stale
            # (cancelled) head costs at most one spurious wake at the
            # stale deadline.
            if self._timers[0] is entry:
                self._timer_cond.notify_all()
        return entry

    def cancel(self, handle: list) -> None:
        with self._timer_cond:
            handle[2] = None

    def _timer_loop(self) -> None:
        while True:
            fire = None
            with self._timer_cond:
                while fire is None:
                    while self._timers and self._timers[0][2] is None:
                        heapq.heappop(self._timers)
                    if not self._timers:
                        self._timer_cond.wait()
                        continue
                    delay = self._timers[0][0] - self.now()
                    if delay <= 0:
                        fire = heapq.heappop(self._timers)
                    else:
                        self._timer_cond.wait(delay)
            callback = fire[2]
            if callback is None:
                continue
            try:
                callback()
            except Exception:  # noqa: BLE001 — a raising timer callback
                # must not kill the shared wheel; callbacks own their
                # error handling.
                pass

    def _wait_for(self, cond: threading.Condition, predicate,
                  timeout: float) -> bool:
        return cond.wait_for(predicate, timeout=max(timeout, 0.0))


class VirtualClock(Clock):
    """Deterministic simulated time, advanced explicitly by a driver.

    Threads that ``sleep`` or ``wait_for`` with a timeout register a
    timer; :meth:`advance` moves simulated time forward, firing due
    timers in ``(deadline, registration order)`` — so two timers due at
    the same instant always fire in the order they were created, and a
    run with the same schedule wakes the same waiters in the same
    order every time.
    """

    def __init__(self, start: float = 0.0):
        self._lock = threading.Lock()
        self._now = float(start)  # guard: _lock
        self._sequence = itertools.count()
        #: Heap of (deadline, sequence, callback | None); a cancelled
        #: timer keeps its slot with callback=None (lazy deletion).
        self._timers: list[list] = []  # guard: _lock

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        """Block until another thread advances past ``now + seconds``."""
        if seconds <= 0:
            return
        woken = threading.Event()
        self.call_at(self.now() + seconds, woken.set)
        woken.wait()

    # -- timers --------------------------------------------------------------

    def call_at(self, deadline: float, callback) -> list:
        """Register ``callback`` to fire when time reaches ``deadline``.

        Returns a handle accepted by :meth:`cancel`.  A deadline at or
        before the current time fires on the *next* :meth:`advance`
        (time never moves inside ``call_at`` — only the driver moves
        it), which keeps registration side-effect free.
        """
        with self._lock:
            entry = [float(deadline), next(self._sequence), callback]
            heapq.heappush(self._timers, entry)
            return entry

    def call_later(self, delay: float, callback) -> list:
        """:meth:`call_at` relative to now (the :class:`Clock` timer
        interface shared with :class:`SystemClock`)."""
        return self.call_at(self.now() + max(float(delay), 0.0), callback)

    def cancel(self, handle: list) -> None:
        """Deactivate a timer registered with :meth:`call_at`."""
        with self._lock:
            handle[2] = None

    def pending_timers(self) -> int:
        """Active (non-cancelled) timers — the sim's quiescence probe."""
        with self._lock:
            return sum(1 for entry in self._timers if entry[2] is not None)

    def next_deadline(self) -> float | None:
        """Earliest active timer deadline, or None when no timers wait.

        Lets a driver advance in *steps* — up to one firing at a time,
        settling worker threads in between — instead of blowing through
        a whole window at once.
        """
        with self._lock:
            while self._timers and self._timers[0][2] is None:
                heapq.heappop(self._timers)
            return self._timers[0][0] if self._timers else None

    def settle(self, predicate, spin: float = 0.0005,
               timeout: float = 5.0) -> bool:
        """Yield *real* time until ``predicate()`` is true (bounded).

        Virtual time is deterministic but the threads it coordinates are
        real: after a submit or a timer firing, a worker needs actual
        CPU time to wake up, drain the queue, and park on its next
        deadline.  Drivers call ``settle`` before advancing so the
        system is quiescent at every step — this is the one sanctioned
        real-time wait in the simulation path, and it never adds
        virtual time.  Returns the final predicate value (False only on
        the ``timeout`` safety valve, e.g. a dead worker).
        """
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() >= deadline:
                return bool(predicate())
            time.sleep(spin)
        return True

    def advance(self, seconds: float) -> None:
        """Move time forward, firing due timers in deadline order.

        Each timer fires with the clock set exactly to its deadline
        (never beyond), so a callback reading :meth:`now` observes the
        instant it was scheduled for.  Callbacks run on the driver
        thread with no clock lock held — they may notify conditions and
        schedule new timers, but new timers inside the advanced window
        fire within this same call.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}; time only "
                             f"moves forward")
        with self._lock:
            target = self._now + float(seconds)
        while True:
            callback = None
            with self._lock:
                while self._timers and self._timers[0][2] is None:
                    heapq.heappop(self._timers)  # lazily drop cancelled
                if self._timers and self._timers[0][0] <= target:
                    entry = heapq.heappop(self._timers)
                    self._now = max(self._now, entry[0])
                    callback = entry[2]
                else:
                    self._now = target
                    break
            if callback is not None:
                callback()

    def _wait_for(self, cond: threading.Condition, predicate,
                  timeout: float) -> bool:
        expired = [False]

        def fire(cond=cond, expired=expired):
            with cond:
                expired[0] = True
                cond.notify_all()

        handle = self.call_at(self.now() + max(timeout, 0.0), fire)
        try:
            # Caller already holds ``cond``; the untimed wait releases
            # it, so ``fire`` (driven from advance()) can get in.
            cond.wait_for(lambda: predicate() or expired[0])
            return bool(predicate())
        finally:
            self.cancel(handle)
