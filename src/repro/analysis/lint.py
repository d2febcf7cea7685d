"""AST linter with repo-specific rules for the numpy autodiff substrate.

The engine is deliberately small: a rule is an object with an ``id``, a
``name``, a fix ``hint`` and a ``check(module)`` generator yielding
:class:`Violation` records.  Rules see a :class:`SourceModule` — the
parsed AST plus enough path context to know which package the file
belongs to (several rules only apply outside ``repro.nn``, or only to
modules that import it).

The rule catalog (DESIGN.md §9 documents each with its rationale):

====== ============================== ==========================================
id     name                           catches
====== ============================== ==========================================
RA101  tensor-data-numpy-call         ``np.*`` called on ``Tensor.data`` outside
                                      ``repro.nn`` (bypasses the tape)
RA102  hard-coded-float-dtype         ``np.float32``/``np.float64``/... literals
                                      instead of the canonical ``repro.nn.DTYPE``
RA103  loop-closure-late-binding      closures in loops capturing the loop
                                      variable without default-arg binding
RA104  inference-missing-no-grad      predict/infer functions that record a tape
RA105  unregistered-parameter-tensor  ``self.x = Tensor(..., requires_grad=True)``
                                      inside a Module (bypasses registration)
RA106  mutable-default-argument       list/dict/set default arguments
RA107  all-export-drift               ``__all__`` out of sync with definitions
RA108  legacy-global-rng              ``np.random.<fn>`` global-state calls
RA109  non-atomic-artifact-write      save/write/dump functions that truncate
                                      the destination in place instead of the
                                      tmp-file + ``os.replace`` pattern
RA110  forward-outside-no-grad        match/eval/bench drivers that call a
                                      model forward directly with the tape on
RA111  blocking-sleep-in-serve        ``time.sleep`` (or timed real waits) in
                                      the serving stack outside the Clock
                                      abstraction — breaks the virtual-clock
                                      test harness
RA112  span-without-context-manager   lexically scoped spans/stages opened in
                                      ``repro.serve``/``repro.matching``
                                      without ``with`` — an exception between
                                      open and close leaks the span
RA113  lock-order-inversion           two code paths of one class acquiring
                                      the same locks in opposite orders
                                      (deadlock cycle in the per-class
                                      acquisition graph)
RA114  unguarded-state-write          writes to ``# guard:``-annotated shared
                                      state outside ``with self.<lock>:`` and
                                      without ``@guarded_by``
RA115  condition-wait-outside-loop    ``cond.wait()`` not wrapped in a
                                      ``while``-predicate loop
RA116  blocking-call-under-lock       sleeps / file I/O / joins / un-timed
                                      queue ops / model forwards executed
                                      while holding a lock
RA117  manual-acquire-release         bare ``.acquire()``/``.release()``
                                      instead of ``with`` (leaks on raise)
RA118  retry-without-backoff          loops that catch a serve error around a
                                      ``submit`` call and retry with no
                                      backoff/sleep — a tight retry loop
                                      hammers an overloaded service
RA120  cross-product-materialization  ``itertools.product(records_a,
                                      records_b)``-style pairing of record
                                      collections (or the nested-comprehension
                                      equivalent) outside the blocking module
                                      — O(n²) pairs defeat blocking
====== ============================== ==========================================

(RA113–RA117 live in :mod:`repro.analysis.concurrency.rules` and are
registered into the catalog below.)

Usage::

    from repro.analysis import lint_paths, format_text
    violations = lint_paths(["src"])
    print(format_text(violations))

or ``repro lint src/ [--format json]`` from the command line.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["Violation", "LintRule", "SourceModule", "available_rules",
           "lint_paths", "lint_source", "format_text", "format_json"]


@dataclass(frozen=True)
class Violation:
    """One rule hit, pointing at ``path:line``."""

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str
    hint: str | None = None

    def location(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass
class SourceModule:
    """A parsed source file plus the path context rules need."""

    path: str
    source: str
    tree: ast.Module
    #: Dotted package guess ("repro.nn.tensor") derived from the path;
    #: empty for files outside a recognizable package root.
    package: str = ""
    _nn_import: bool | None = field(default=None, repr=False)

    @classmethod
    def parse(cls, path: str, source: str,
              package: str | None = None) -> "SourceModule":
        tree = ast.parse(source, filename=path)
        if package is None:
            package = _guess_package(path)
        return cls(path=path, source=source, tree=tree, package=package)

    def in_package(self, prefix: str) -> bool:
        return (self.package == prefix
                or self.package.startswith(prefix + "."))

    def imports_nn(self) -> bool:
        """Whether this module imports from ``repro.nn`` (any depth)."""
        if self._nn_import is None:
            self._nn_import = any(
                target == "repro.nn" or target.startswith("repro.nn.")
                for target in self._import_targets())
        return self._nn_import

    def _import_targets(self) -> Iterator[str]:
        parts = self.package.split(".") if self.package else []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    yield node.module or ""
                elif parts:
                    # Resolve "from ..nn import x" against our package.
                    base = parts[: len(parts) - node.level]
                    yield ".".join(base + ([node.module]
                                           if node.module else []))


def _guess_package(path: str) -> str:
    parts = Path(path).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        return ""
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_np_attribute(node: ast.AST, *attrs: str) -> bool:
    """Match ``np.<attr>`` / ``numpy.<attr>`` attribute chains."""
    return (isinstance(node, ast.Attribute)
            and node.attr in attrs
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))


class LintRule:
    """Base class: subclasses set ``id``/``name``/``hint`` and ``check``."""

    id: str = ""
    name: str = ""
    hint: str = ""

    def check(self, module: SourceModule) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, module: SourceModule, node: ast.AST,
                  message: str) -> Violation:
        return Violation(rule=self.id, name=self.name, path=module.path,
                         line=getattr(node, "lineno", 0),
                         col=getattr(node, "col_offset", 0),
                         message=message, hint=self.hint or None)


class _TensorDataNumpyCall(LintRule):
    """Raw numpy calls on ``.data`` outside ``repro.nn`` bypass the tape:
    gradients silently stop flowing through the result."""

    id = "RA101"
    name = "tensor-data-numpy-call"
    hint = ("use a Tensor op (or .detach()/.numpy() if gradients are "
            "intentionally cut), or move the kernel into repro.nn")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if module.in_package("repro.nn"):
            return
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if any(isinstance(sub, ast.Attribute) and sub.attr == "data"
                       for sub in ast.walk(arg)):
                    yield self.violation(
                        module, node,
                        f"np.{node.func.attr}() applied to a .data payload "
                        f"outside repro.nn — the result leaves the autodiff "
                        f"tape")
                    break


class _HardCodedFloatDtype(LintRule):
    """Float dtypes must route through ``repro.nn.DTYPE`` so the whole
    stack trains in one precision (the canonical definition lives in
    ``repro.nn.init``)."""

    id = "RA102"
    name = "hard-coded-float-dtype"
    hint = "import DTYPE from repro.nn (defined once in repro.nn.init)"

    _DTYPES = ("float16", "float32", "float64", "float128")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if module.package == "repro.nn.init":
            return
        for node in ast.walk(module.tree):
            if _is_np_attribute(node, *self._DTYPES):
                yield self.violation(
                    module, node,
                    f"hard-coded np.{node.attr} — use repro.nn.DTYPE so "
                    f"precision is set in exactly one place")
            elif (isinstance(node, ast.keyword) and node.arg == "dtype"
                  and isinstance(node.value, ast.Constant)
                  and node.value.value in self._DTYPES):
                yield self.violation(
                    module, node.value,
                    f'hard-coded dtype="{node.value.value}" — use '
                    f"repro.nn.DTYPE so precision is set in exactly one "
                    f"place")


class _LoopClosureLateBinding(LintRule):
    """A closure defined inside a loop that reads the loop variable sees
    its *final* value when called later — the classic tape bug for
    ``_backward`` closures, which run long after the loop finished."""

    id = "RA103"
    name = "loop-closure-late-binding"
    hint = "bind the loop variable as a default argument (def f(x, v=v):)"

    def check(self, module: SourceModule) -> Iterator[Violation]:
        yield from self._scan(module, module.tree, loop_vars=())

    def _scan(self, module: SourceModule, node: ast.AST,
              loop_vars: tuple[frozenset, ...]) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.For):
                names = frozenset(
                    n.id for n in ast.walk(child.target)
                    if isinstance(n, ast.Name))
                yield from self._scan(module, child, loop_vars + (names,))
            elif isinstance(child, ast.While):
                yield from self._scan(module, child, loop_vars)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                if loop_vars:
                    yield from self._check_closure(module, child, loop_vars)
                # Nested defs start a fresh loop context.
                yield from self._scan(module, child, loop_vars=())
            else:
                yield from self._scan(module, child, loop_vars)

    def _check_closure(self, module: SourceModule, func,
                       loop_vars: tuple[frozenset, ...]
                       ) -> Iterator[Violation]:
        active = frozenset().union(*loop_vars)
        args = func.args
        bound = {a.arg for a in
                 args.args + args.kwonlyargs + args.posonlyargs}
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
        body = func.body if isinstance(func.body, list) else [func.body]
        free: set[str] = set()
        assigned: set[str] = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name):
                    if isinstance(sub.ctx, ast.Load):
                        free.add(sub.id)
                    else:
                        assigned.add(sub.id)
        hazard = sorted((active & free) - bound - assigned)
        if hazard:
            label = getattr(func, "name", "<lambda>")
            yield self.violation(
                module, func,
                f"closure {label!r} captures loop variable(s) "
                f"{', '.join(hazard)} without default-arg binding — it "
                f"will see the final loop value when called later "
                f"(late binding)")


class _TapeOffRule(LintRule):
    """Shared pass of RA104/RA110: functions whose name matches
    ``_PATTERN`` must disable the tape, directly or by delegating to a
    matching function that does (``predict()`` calling an ``_infer()``
    that runs under ``no_grad`` is fine).  Subclasses set the name
    pattern and report an unsafe candidate through ``_flag``."""

    _PATTERN: re.Pattern

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.imports_nn() or module.in_package("repro.nn"):
            return
        candidates: dict[str, ast.FunctionDef] = {}
        for node in ast.walk(module.tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and self._PATTERN.search(node.name)
                    and not node.name.startswith("__")):
                candidates[node.name] = node
        safe = {name for name, node in candidates.items()
                if _disables_tape(node)}
        changed = True
        while changed:
            changed = False
            for name, node in candidates.items():
                if name not in safe and not _called_names(node).isdisjoint(
                        safe):
                    safe.add(name)
                    changed = True
        for name, node in candidates.items():
            if name not in safe:
                yield from self._flag(module, name, node)

    def _flag(self, module: SourceModule, name: str,
              func: ast.AST) -> Iterator[Violation]:
        raise NotImplementedError


def _disables_tape(func: ast.AST) -> bool:
    """Whether ``func`` mentions ``no_grad`` (call, decorator or with)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == "no_grad":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "no_grad":
            return True
    return False


def _called_names(func: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


class _InferenceMissingNoGrad(_TapeOffRule):
    """Inference entry points must run under ``no_grad`` or every forward
    pass records a backward tape it never frees."""

    id = "RA104"
    name = "inference-missing-no-grad"
    hint = "wrap the forward passes in `with no_grad():` or decorate " \
           "with @no_grad()"

    _PATTERN = re.compile(r"predict|proba|infer", re.IGNORECASE)

    def _flag(self, module: SourceModule, name: str,
              func: ast.AST) -> Iterator[Violation]:
        yield self.violation(
            module, func,
            f"{name}() looks like an inference path but never "
            f"disables the tape — every call records backward "
            f"closures that are never freed")


class _UnregisteredParameterTensor(LintRule):
    """A bare ``Tensor(..., requires_grad=True)`` attribute on a Module
    is invisible to ``parameters()``: the optimizer never updates it and
    ``state_dict()`` never saves it."""

    id = "RA105"
    name = "unregistered-parameter-tensor"
    hint = "use Parameter(...) so the module tree registers the leaf"

    def check(self, module: SourceModule) -> Iterator[Violation]:
        module_classes = self._module_classes(module.tree)
        for cls in module_classes:
            for node in ast.walk(cls):
                if not isinstance(node, ast.Assign):
                    continue
                if not any(
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                        for t in node.targets):
                    continue
                call = node.value
                if (isinstance(call, ast.Call)
                        and (isinstance(call.func, ast.Name)
                             and call.func.id == "Tensor"
                             or isinstance(call.func, ast.Attribute)
                             and call.func.attr == "Tensor")
                        and any(kw.arg == "requires_grad"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True
                                for kw in call.keywords)):
                    yield self.violation(
                        module, node,
                        f"Module {cls.name!r} stores a bare "
                        f"requires_grad Tensor — it bypasses parameter "
                        f"registration, so optimizers and checkpoints "
                        f"miss it")

    @staticmethod
    def _module_classes(tree: ast.Module) -> list[ast.ClassDef]:
        classes = {n.name: n for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)}
        bases = {name: [getattr(b, "id", getattr(b, "attr", None))
                        for b in cls.bases]
                 for name, cls in classes.items()}
        module_like = {"Module", "ModuleList"}
        changed = True
        while changed:
            changed = False
            for name, base_names in bases.items():
                if name in module_like:
                    continue
                if any(b in module_like for b in base_names):
                    module_like.add(name)
                    changed = True
        return [cls for name, cls in classes.items()
                if name in module_like and name not in ("Module",
                                                        "ModuleList")]


class _MutableDefaultArgument(LintRule):
    """Mutable default arguments are shared across calls."""

    id = "RA106"
    name = "mutable-default-argument"
    hint = "default to None and create the value inside the function"

    def check(self, module: SourceModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = (list(node.args.defaults)
                        + [d for d in node.args.kw_defaults if d])
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    kind = type(default).__name__.lower()
                    yield self.violation(
                        module, default,
                        f"{node.name}() has a mutable {kind} default — "
                        f"it is shared across every call")
                elif (isinstance(default, ast.Call)
                      and isinstance(default.func, ast.Name)
                      and default.func.id in ("list", "dict", "set")):
                    yield self.violation(
                        module, default,
                        f"{node.name}() has a mutable "
                        f"{default.func.id}() default — it is shared "
                        f"across every call")


class _AllExportDrift(LintRule):
    """``__all__`` must match the module: stale names break
    ``from m import *`` and the API-surface tests; unlisted public
    definitions silently fall out of the documented API."""

    id = "RA107"
    name = "all-export-drift"
    hint = "add the name to __all__, or prefix it with _ if internal"

    def check(self, module: SourceModule) -> Iterator[Violation]:
        exported: list[str] | None = None
        export_node: ast.AST | None = None
        defined: set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
                        if target.id == "__all__":
                            export_node = node
                            try:
                                value = ast.literal_eval(node.value)
                                exported = [str(v) for v in value]
                            except (ValueError, SyntaxError):
                                exported = None
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    defined.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    defined.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    defined.add(alias.asname or alias.name)
        if exported is None:
            return
        for name in exported:
            if name not in defined:
                yield self.violation(
                    module, export_node,
                    f"__all__ lists {name!r} but the module never "
                    f"defines or imports it")
        for node in module.tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in exported):
                yield self.violation(
                    module, node,
                    f"public {node.name!r} is not listed in __all__")


class _LegacyGlobalRng(LintRule):
    """Everything in this repo is reproducible from explicit
    ``np.random.Generator`` seeds; the legacy global-state API breaks
    that guarantee."""

    id = "RA108"
    name = "legacy-global-rng"
    hint = "thread an explicit np.random.Generator (see repro.utils." \
           "child_rng)"

    _ALLOWED = ("default_rng", "Generator", "SeedSequence", "BitGenerator",
                "PCG64")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            target = node.func.value
            if (isinstance(target, ast.Attribute)
                    and target.attr == "random"
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("np", "numpy")
                    and node.func.attr not in self._ALLOWED):
                yield self.violation(
                    module, node,
                    f"np.random.{node.func.attr}() uses the global RNG "
                    f"state — runs are no longer reproducible from a "
                    f"seed")


class _NonAtomicArtifactWrite(LintRule):
    """Persistence helpers that ``open(path, "w")`` the real destination
    truncate it first: a crash mid-write leaves a corrupt artifact that
    poisons the next run.  Checkpoints, caches and telemetry artifacts
    must be written to a temp file and ``os.replace``d into place (the
    ``repro.utils.atomic_write_*`` helpers, or
    ``repro.nn.save_checkpoint`` for arrays)."""

    id = "RA109"
    name = "non-atomic-artifact-write"
    hint = ("write via repro.utils.atomic_write_text/_bytes (or a tmp "
            "path + os.replace)")

    _NAME = re.compile(r"save|write|dump|export|persist|checkpoint",
                       re.IGNORECASE)
    _MODES = ("w", "wb", "wt")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if module.package == "repro.utils.atomic":
            return  # the helper itself is the sanctioned tmp-writer
        for node in ast.walk(module.tree):
            if not (isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                    and self._NAME.search(node.name)
                    and not node.name.startswith("__")):
                continue
            if self._is_atomic(node):
                continue
            for write in self._raw_writes(node):
                yield self.violation(
                    module, write,
                    f"{node.name}() writes its destination in place — a "
                    f"crash mid-write leaves a truncated artifact; stage "
                    f"to a tmp file and os.replace() it into place")

    def _is_atomic(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            # os.replace(tmp, path), or Path.replace(path) — single
            # positional arg; two args on a non-os receiver would be
            # str.replace, which is not a rename.
            if (isinstance(callee, ast.Attribute)
                    and callee.attr == "replace"):
                receiver = callee.value
                if (isinstance(receiver, ast.Name)
                        and receiver.id == "os"):
                    return True
                if len(node.args) <= 1 and not node.keywords:
                    return True
            # Delegation to the sanctioned helpers (or any save_* that
            # is itself checked wherever it is defined).
            name = callee.attr if isinstance(callee, ast.Attribute) \
                else getattr(callee, "id", "")
            if name in ("atomic_write_text", "atomic_write_bytes",
                        "save_checkpoint", "save_module"):
                return True
        return False

    def _raw_writes(self, func: ast.AST) -> Iterator[ast.AST]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == "open"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in self._MODES):
                yield node
            elif (isinstance(callee, ast.Attribute)
                  and callee.attr in ("write_text", "write_bytes")):
                yield node


class _ForwardOutsideNoGrad(_TapeOffRule):
    """Batch-inference drivers (match loops, eval sweeps, benchmarks)
    that call a model forward directly with the tape enabled record a
    backward closure per op per pair, graph memory included, that no
    one will ever walk.  RA104 covers predict/infer-*named* entry
    points; this rule covers the driver loops around them."""

    id = "RA110"
    name = "forward-outside-no-grad"
    hint = ("wrap the forward calls in `with no_grad():` (gradients "
            "are never needed on an inference path)")

    _PATTERN = re.compile(r"match|eval|bench", re.IGNORECASE)
    #: Receivers that are, by repo convention, callable models.
    _MODEL_NAMES = frozenset(
        {"classifier", "model", "backbone", "encoder", "network"})

    def _flag(self, module: SourceModule, name: str,
              func: ast.AST) -> Iterator[Violation]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Attribute)
                    and (callee.attr == "forward"
                         or callee.attr in self._MODEL_NAMES)) or (
                    isinstance(callee, ast.Name)
                    and callee.id in self._MODEL_NAMES):
                yield self.violation(
                    module, node,
                    f"{name}() drives a model forward with the tape "
                    f"enabled — each pair records backward closures "
                    f"nothing will walk")


class _BlockingSleepInServe(LintRule):
    """The serving stack promises deterministic, sleep-free tests: all
    timing runs through :class:`repro.serve.clock.Clock`, so a
    :class:`~repro.serve.clock.VirtualClock` can simulate hours of
    queueing in milliseconds.  A direct ``time.sleep`` (or a timed
    ``threading`` wait, which blocks on the real clock no matter what
    clock the service was given) anywhere else in ``repro.serve``
    punches a hole in that guarantee."""

    id = "RA111"
    name = "blocking-sleep-in-serve"
    hint = ("route the wait through the service's Clock (clock.sleep / "
            "ClockCondition.wait_for); repro.serve.clock is the single "
            "sanctioned real-time module")

    #: The one module allowed to touch real time (SystemClock lives
    #: there, as does the real-time settle() bridge).
    _SANCTIONED = "repro.serve.clock"

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package("repro.serve"):
            return
        if module.package == self._SANCTIONED:
            return
        sleep_aliases = {"sleep"} if self._imports_time_sleep(module) \
            else set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Attribute)
                    and callee.attr == "sleep"
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "time"):
                yield self.violation(
                    module, node,
                    "time.sleep() in serving code bypasses the Clock "
                    "abstraction — the virtual-clock harness cannot "
                    "simulate it")
            elif (isinstance(callee, ast.Name)
                  and callee.id in sleep_aliases):
                yield self.violation(
                    module, node,
                    "sleep() (imported from time) bypasses the Clock "
                    "abstraction — the virtual-clock harness cannot "
                    "simulate it")
            elif (isinstance(callee, ast.Attribute)
                  and callee.attr in ("wait", "wait_for", "join",
                                      "acquire")
                  and self._has_real_timeout(node)):
                yield self.violation(
                    module, node,
                    f".{callee.attr}(timeout=...) blocks on the real "
                    f"clock regardless of the service's Clock — use "
                    f"ClockCondition.wait_for so the timeout is "
                    f"clock-interpreted")

    @staticmethod
    def _imports_time_sleep(module: SourceModule) -> bool:
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "time"
                    and any(alias.name == "sleep"
                            for alias in node.names)):
                return True
        return False

    @staticmethod
    def _has_real_timeout(node: ast.Call) -> bool:
        # ClockCondition.wait_for(pred, timeout=x) is the sanctioned
        # form; flag only waits on plain threading objects.  Heuristic:
        # a receiver whose name mentions the clock/cond wrapper is
        # allowed, anything else with a non-None timeout is not.
        receiver = node.func.value
        receiver_name = ""
        if isinstance(receiver, ast.Name):
            receiver_name = receiver.id
        elif isinstance(receiver, ast.Attribute):
            receiver_name = receiver.attr
        if "cond" in receiver_name.lower() \
                or "clock" in receiver_name.lower():
            return False
        for keyword in node.keywords:
            if (keyword.arg == "timeout"
                    and not (isinstance(keyword.value, ast.Constant)
                             and keyword.value.value is None)):
                return True
        return False


class _SpanWithoutContextManager(LintRule):
    """Lexically scoped tracing blocks (``tracer.span`` /
    ``stages.stage`` / ``tracer.start``) time the enclosed code; called
    bare, the span never closes when the block raises, and its
    duration silently absorbs everything until someone remembers to
    end it.  The cross-thread lifecycle API
    (``begin_request``/``child``/``end``/``finish``) is deliberately
    exempt — a request span *cannot* be lexically scoped because it
    crosses threads (see ``repro.obs.tracing``)."""

    id = "RA112"
    name = "span-without-context-manager"
    hint = ("open the span with `with tracer.span(...):` / "
            "`with stages.stage(...):` (or scope.enter_context(...)); "
            "use the repro.obs.tracing begin_request/finish lifecycle "
            "API for spans that cross threads")

    _PACKAGES = ("repro.serve", "repro.matching")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not any(module.in_package(p) for p in self._PACKAGES):
            return
        scoped = self._scoped_calls(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if id(node) in scoped:
                continue
            attr = node.func.attr
            receiver = self._receiver_name(node.func.value)
            if attr in ("span", "stage"):
                yield self.violation(
                    module, node,
                    f"{receiver or '<expr>'}.{attr}(...) opened without "
                    f"`with` — the span never closes if the block "
                    f"raises; only the begin_request/finish lifecycle "
                    f"API may be called bare")
            elif attr == "start" and "trace" in receiver.lower():
                yield self.violation(
                    module, node,
                    f"{receiver}.start(...) opened without `with` — "
                    f"wrap the traced block in a context manager so the "
                    f"span closes on every exit path")

    @staticmethod
    def _receiver_name(node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""

    @staticmethod
    def _scoped_calls(tree: ast.Module) -> set[int]:
        """ids of Call nodes used as with-items or enter_context args."""
        scoped: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        scoped.add(id(item.context_expr))
            elif isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) \
                    else getattr(callee, "id", "")
                if name == "enter_context":
                    for arg in node.args:
                        if isinstance(arg, ast.Call):
                            scoped.add(id(arg))
        return scoped


class _RetryWithoutBackoff(LintRule):
    """A loop that catches a serve-stack error around a ``submit`` call
    and goes straight back around is a tight retry loop: under
    :class:`~repro.serve.service.ServiceOverloaded` it hammers exactly
    the service that just asked it to back off, and under a
    :class:`~repro.serve.clock.VirtualClock` it spins forever because
    no timer ever advances.  Every retry must wait — via
    :class:`~repro.serve.retry.RetryPolicy` backoff, a clock sleep, or
    a timer — before resubmitting."""

    id = "RA118"
    name = "retry-without-backoff"
    hint = ("back off between attempts: use repro.serve.RetryPolicy "
            "(or ResilientClient), or at minimum clock.sleep(...) / "
            "clock.call_later(...) with the delay from "
            "ServiceOverloaded.retry_after")

    _ERROR_NAMES = frozenset({
        "ServeError", "ServiceOverloaded", "ServiceClosed",
        "RequestTimeout", "RequestCancelled",
    })
    _SUBMIT_NAMES = frozenset({"submit", "submit_many"})
    _BACKOFF_MARKERS = ("sleep", "backoff", "run_for", "advance",
                        "call_later", "call_at", "wait", "settle")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.While, ast.For)):
                continue
            handler = self._serve_handler(node)
            if handler is None:
                continue
            if not self._calls_submit(node):
                continue
            if self._has_backoff(node):
                continue
            yield self.violation(
                module, handler,
                "retry loop catches a serve error and resubmits with "
                "no backoff — a tight loop hammers the overloaded "
                "service (and spins forever under a VirtualClock)")

    def _serve_handler(self, loop: ast.AST) -> ast.ExceptHandler | None:
        """First except handler inside the loop naming a serve error."""
        for node in ast.walk(loop):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                continue
            types = (node.type.elts
                     if isinstance(node.type, ast.Tuple)
                     else [node.type])
            for type_node in types:
                name = (type_node.attr
                        if isinstance(type_node, ast.Attribute)
                        else getattr(type_node, "id", ""))
                if name in self._ERROR_NAMES:
                    # A handler that immediately re-raises or returns
                    # isn't retrying — the loop exits.
                    if all(isinstance(stmt, (ast.Raise, ast.Return))
                           for stmt in node.body):
                        continue
                    return node
        return None

    def _calls_submit(self, loop: ast.AST) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                callee = node.func
                name = (callee.attr
                        if isinstance(callee, ast.Attribute)
                        else getattr(callee, "id", ""))
                if name in self._SUBMIT_NAMES:
                    return True
        return False

    def _has_backoff(self, loop: ast.AST) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                callee = node.func
                name = (callee.attr
                        if isinstance(callee, ast.Attribute)
                        else getattr(callee, "id", ""))
                if any(marker in name
                       for marker in self._BACKOFF_MARKERS):
                    return True
        return False


class _CrossProductMaterialization(LintRule):
    """Pairing two record collections directly is the O(n²) explosion
    the blocking layer exists to prevent: 100k x 100k records is 10
    billion pairs before the first model forward.  This rule flags
    ``itertools.product(records_a, records_b)``-style calls and nested
    comprehensions pairing two record-collection-looking names.  The
    blocking module itself is exempt — generating candidates *is* its
    job (and it does so through inverted indexes, not the cross
    product)."""

    id = "RA120"
    name = "cross-product-materialization"
    hint = ("generate candidates through a repro.data.blocking Blocker "
            "(iter_candidates streams bounded batches) instead of "
            "pairing the collections directly")

    #: Names that look like a record collection.
    _COLLECTION = re.compile(
        r"(^|_)(records?|rows|entities|catalog|collection|tuples|"
        r"listings)(_|$|s$)|^(records?|rows|entities)[ab]?$",
        re.IGNORECASE)

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if module.in_package("repro.data.blocking"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_product_call(module, node)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp)):
                yield from self._check_comprehension(module, node)

    def _check_product_call(self, module: SourceModule,
                            node: ast.Call) -> Iterator[Violation]:
        func = node.func
        is_product = ((isinstance(func, ast.Name)
                       and func.id == "product")
                      or (isinstance(func, ast.Attribute)
                          and func.attr == "product"
                          and isinstance(func.value, ast.Name)
                          and func.value.id == "itertools"))
        if not is_product:
            return
        record_args = [arg for arg in node.args
                       if self._is_collection(arg)]
        if len(record_args) >= 2:
            yield self.violation(
                module, node,
                "itertools.product over two record collections "
                "materializes the |A| x |B| cross product — the cost "
                "blocking exists to avoid")

    def _check_comprehension(self, module: SourceModule,
                             node: ast.AST) -> Iterator[Violation]:
        collections = [gen.iter for gen in node.generators
                       if self._is_collection(gen.iter)]
        if len(collections) >= 2:
            yield self.violation(
                module, node,
                "nested comprehension pairing two record collections "
                "materializes the cross product — block first, then "
                "score the candidate stream")

    def _is_collection(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return bool(self._COLLECTION.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(self._COLLECTION.search(node.attr))
        return False


# Imported at the bottom of the class definitions on purpose: the
# concurrency rules subclass LintRule, so this module must have defined
# it (and SourceModule/Violation) before .concurrency.rules loads.
from .concurrency.rules import CONCURRENCY_RULES  # noqa: E402

_RULES: tuple[LintRule, ...] = (
    _TensorDataNumpyCall(),
    _HardCodedFloatDtype(),
    _LoopClosureLateBinding(),
    _InferenceMissingNoGrad(),
    _UnregisteredParameterTensor(),
    _MutableDefaultArgument(),
    _AllExportDrift(),
    _LegacyGlobalRng(),
    _NonAtomicArtifactWrite(),
    _ForwardOutsideNoGrad(),
    _BlockingSleepInServe(),
    _SpanWithoutContextManager(),
    _RetryWithoutBackoff(),
    _CrossProductMaterialization(),
) + CONCURRENCY_RULES


def available_rules() -> list[LintRule]:
    """The registered rule instances, in catalog order."""
    return list(_RULES)


def lint_source(source: str, path: str = "<string>",
                package: str | None = None,
                rules: list[LintRule] | None = None) -> list[Violation]:
    """Lint one source string (used by the rule unit tests)."""
    module = SourceModule.parse(path, source, package=package)
    found: list[Violation] = []
    for rule in rules if rules is not None else _RULES:
        found.extend(rule.check(module))
    return sorted(found, key=lambda v: (v.path, v.line, v.rule))


def lint_paths(paths: list[str | Path],
               rules: list[LintRule] | None = None) -> list[Violation]:
    """Lint every ``*.py`` file under the given files/directories."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    found: list[Violation] = []
    for file in files:
        found.extend(lint_source(file.read_text(), path=str(file),
                                 rules=rules))
    return sorted(found, key=lambda v: (v.path, v.line, v.rule))


def format_text(violations: list[Violation]) -> str:
    """Human-readable report, one violation per block."""
    if not violations:
        return "clean: no violations"
    lines = []
    for v in violations:
        lines.append(f"{v.location()}: {v.rule} [{v.name}] {v.message}")
        if v.hint:
            lines.append(f"    hint: {v.hint}")
    lines.append(f"{len(violations)} violation"
                 f"{'s' if len(violations) != 1 else ''}")
    return "\n".join(lines)


def format_json(violations: list[Violation]) -> str:
    """Machine-readable report (stable keys, sorted order)."""
    return json.dumps({"violations": [asdict(v) for v in violations],
                       "count": len(violations)}, indent=2)
