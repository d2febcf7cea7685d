"""Static analysis and runtime sanitizers for the autodiff substrate.

The paper's headline claims (transformers beating DeepMatcher, convergence
in 1-3 fine-tuning epochs) rest on correct training dynamics, and the
hand-rolled numpy autodiff in :mod:`repro.nn` has sharp edges that a
framework would guard against.  This package is the guard rail
(see DESIGN.md §9):

* :mod:`repro.analysis.lint` — an AST rule engine with repo-specific
  rules: raw numpy calls on ``Tensor.data`` outside ``repro.nn``,
  hard-coded float dtypes instead of ``repro.nn.DTYPE``, late-binding
  ``_backward`` closures, inference paths missing ``no_grad``,
  unregistered parameter tensors, mutable default arguments, ``__all__``
  export drift, and legacy global-RNG use.  Run it with ``repro lint``;
  ``tests/test_analysis.py`` self-lints ``src/`` in tier-1.
* :mod:`repro.analysis.sanitize` — an opt-in anomaly mode (à la
  ``torch.autograd.set_detect_anomaly``) observing the calling thread's
  tape to catch NaN/Inf activations and gradients,
  gradient shape mismatches and dead leaf parameters, raising with the
  originating op named and the active tracing-span path.
* :mod:`repro.analysis.audit` — a gradcheck coverage auditor that
  statically enumerates every differentiable ``Tensor`` op and every
  ``Module`` subclass and cross-references the test suite; run it with
  ``repro audit``.
* :mod:`repro.analysis.concurrency` — the concurrency suite
  (DESIGN.md §14): static rules RA113–RA117 (lock-order inversion,
  unguarded state writes against ``# guard:`` / ``@guarded_by``
  contracts, condition waits outside predicate loops, blocking calls
  under locks, manual acquire/release), the opt-in Eraser-style
  :class:`RaceDetector`, and the seeded :class:`ScheduleExplorer`
  behind ``repro races``.
"""

from .lint import (LintRule, Violation, available_rules, format_json,
                   format_text, lint_paths, lint_source)
from .sanitize import AnomalyError, detect_anomalies, is_sanitizing
from .audit import CoverageReport, audit_coverage, module_classes, tensor_ops
from .concurrency import (RaceDetector, RaceError, RaceReport,
                          ScheduleExplorer, ScheduleResult, run_races,
                          run_scenario)

__all__ = [
    "LintRule", "Violation", "available_rules", "lint_paths", "lint_source",
    "format_text", "format_json",
    "AnomalyError", "detect_anomalies", "is_sanitizing",
    "CoverageReport", "audit_coverage", "tensor_ops", "module_classes",
    "RaceDetector", "RaceError", "RaceReport",
    "ScheduleExplorer", "ScheduleResult", "run_scenario", "run_races",
]
