"""Entity-matching as a service: dynamic micro-batching over the engine.

The paper's numbers come from offline batch evaluation, but the
north-star use case — matching at data-integration scale — is a
service: requests trickle in one pair at a time, and per-pair forwards
waste the throughput the length-bucketed batch path buys.  This layer
closes that gap in-process:

* :mod:`~repro.serve.service` — :class:`MatchService`, a thread-safe
  bounded queue + worker pool that coalesces pending requests into
  model batches (``max_batch_size`` / ``max_wait_ms`` policy), with
  per-request futures, deadline timeouts, typed backpressure
  (:class:`ServiceOverloaded`) and per-request degradation on model
  failure;
* :mod:`~repro.serve.backends` — pluggable scorers: the transformer
  :class:`~repro.matching.EntityMatcher` (bit-identical to
  ``match_many``), the DeepMatcher baseline, or any callable;
* :mod:`~repro.serve.clock` — the :class:`Clock` abstraction
  (:class:`SystemClock` / :class:`VirtualClock`) that makes every
  queueing test deterministic and sleep-free;
* :mod:`~repro.serve.sim` — the seeded load generator and open-loop
  simulation driver behind both the tests and ``repro bench serve``;
* :mod:`~repro.serve.retry` / :mod:`~repro.serve.breaker` /
  :mod:`~repro.serve.resilient` — the fault-tolerance tier
  (DESIGN.md §15): seeded-backoff retries with budgets and deadline
  propagation, per-replica circuit breakers, hedged requests, load
  shedding, and the :class:`ReplicaSet` supervisor that respawns
  chaos-killed replicas — all deterministic under a
  :class:`VirtualClock`.

The benchmarks behind ``repro bench serve`` (:mod:`repro.serve.bench`)
and ``repro bench resilient`` (:mod:`repro.serve.bench_resilient`) run
on :mod:`repro.perf.harness` and are not imported here.
"""

from .backends import (CallableBackend, CascadeBackend, DeepMatcherBackend,
                       MatcherBackend)
from .breaker import BreakerConfig, CircuitBreaker
from .clock import Clock, ClockCondition, SystemClock, VirtualClock
from .resilient import (HedgeConfig, Replica, ReplicaSet,
                        ResilientClient, ResilientConfig)
from .retry import RetryBudget, RetryConfig, RetryPolicy
from .service import (MatchService, MatchTicket, RequestCancelled,
                      RequestTimeout, ServeConfig, ServeError,
                      ServiceClosed, ServiceOverloaded)
from .sim import (Arrival, SimReport, Workload, generate_workload,
                  run_simulation)

__all__ = [
    "MatchService", "MatchTicket", "ServeConfig", "ServeError",
    "ServiceClosed", "ServiceOverloaded", "RequestTimeout",
    "RequestCancelled",
    "MatcherBackend", "CascadeBackend", "DeepMatcherBackend",
    "CallableBackend",
    "Clock", "ClockCondition", "SystemClock", "VirtualClock",
    "Arrival", "Workload", "SimReport", "generate_workload",
    "run_simulation",
    "RetryConfig", "RetryBudget", "RetryPolicy",
    "BreakerConfig", "CircuitBreaker",
    "HedgeConfig", "ResilientConfig", "Replica", "ReplicaSet",
    "ResilientClient",
]
