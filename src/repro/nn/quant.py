"""int8 per-channel post-training quantization for inference.

The quantization scheme is symmetric per-output-channel for weights and
symmetric per-tensor for activations, the standard recipe for
transformer inference (DESIGN.md §16):

* each Linear weight row ``W[o, :]`` is stored as int8 with a float
  scale ``s_o = absmax(W[o, :]) / 127`` so ``W ≈ q * s_o``;
* activation ranges come from a *calibration sweep*: representative
  pairs run through the tape-off forward under
  :func:`repro.nn.fused.record_activations`, which records the
  per-input-channel absmax seen at every linear call site; the
  per-tensor activation scale is ``max(range) / 127``;
* at inference the input is fake-quantized to the int8 grid, the
  contraction accumulates in ``ACC_DTYPE`` (float32), and the output is
  rescaled by ``s_o * s_x`` — see :func:`repro.nn.fused.qlinear`.

The calibrated artifact is a :class:`QuantizedWeights`: a name-keyed
set of :class:`QuantizedLinear` payloads saved atomically through the
format-v2 checkpoint writer (manifest + per-array checksums), so a
truncated or bit-flipped artifact fails loudly.  Acceptance is gated on
*decision consistency*: :func:`decision_consistency` compares match
decisions between the float and quantized paths on a held-out split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .init import ACC_DTYPE
from .serialization import CheckpointError, load_checkpoint, save_checkpoint

__all__ = ["QMAX", "QuantizedLinear", "QuantizedWeights",
           "ConsistencyReport", "quantize_per_channel", "dequantize",
           "calibrate_quantization", "decision_consistency"]

#: Symmetric int8 grid half-width: payload values live in [-127, 127]
#: (the -128 code is unused so the grid is symmetric around zero).
QMAX = 127

# Activation ranges can be all-zero for a dead channel set (e.g. a
# padding-only calibration batch); the scale floor keeps the divide
# finite and maps such inputs to zero codes.
_RANGE_FLOOR = 1e-12


@dataclass(eq=False)
class QuantizedLinear:
    """One Linear layer's int8 payload plus calibration scales.

    ``q`` is the int8 weight matrix (out, in); ``scale`` the
    per-output-channel weight scales (out,); ``bias`` the float bias
    copy (or None); ``act_range`` the calibrated per-input-channel
    activation absmax (in,) and ``act_scale`` the per-tensor activation
    scale derived from it.  ``q32`` caches the ``ACC_DTYPE`` copy of the
    payload that the fused q-kernels contract against — int8 arrays must
    never enter arithmetic directly (RA119/NEP 50 float64 promotion).
    """

    q: np.ndarray
    scale: np.ndarray
    bias: np.ndarray | None
    act_range: np.ndarray
    act_scale: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.q.dtype != np.int8:
            raise ValueError(
                f"quantized payload must be int8, got {self.q.dtype}")
        if not self.act_scale:
            self.act_scale = (
                max(float(self.act_range.max()), _RANGE_FLOOR) / QMAX)

    @cached_property
    def q32(self) -> np.ndarray:
        """``ACC_DTYPE`` copy of the int8 payload, cached for reuse."""
        return self.q.astype(ACC_DTYPE)

    @cached_property
    def out_scale(self) -> np.ndarray:
        """Combined per-channel rescale ``scale * act_scale``, cached so
        the hot kernel skips the per-call vector multiply."""
        return self.scale * self.act_scale

    @property
    def nbytes(self) -> int:
        """Bytes held by the quantized representation (payload+scales)."""
        total = self.q.nbytes + self.scale.nbytes + self.act_range.nbytes
        if self.bias is not None:
            total += self.bias.nbytes
        return total

    def dequantized(self) -> np.ndarray:
        """Float reconstruction ``q * scale`` of the weight matrix."""
        return dequantize(self.q, self.scale)


def quantize_per_channel(
        weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantization of a (out, in) weight.

    Returns ``(q, scale)`` with ``q`` int8 and ``scale`` the per-row
    float scales such that ``q * scale[:, None]`` reconstructs the
    weight to within half a step (``scale / 2``) per channel.  All-zero
    rows get a unit-range scale so they round-trip exactly.
    """
    weight = np.asarray(weight)
    if weight.ndim != 2:
        raise ValueError(
            f"per-channel quantization expects a 2-D (out, in) weight, "
            f"got shape {weight.shape}")
    absmax = np.abs(weight).max(axis=1)
    safe = np.where(absmax > 0, absmax, 1.0)
    scale = np.asarray(safe / QMAX, dtype=ACC_DTYPE)
    grid = np.clip(np.rint(weight / scale[:, None]), -QMAX, QMAX)
    return grid.astype(np.int8), scale


def dequantize(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Reconstruct the float weight from an int8 payload and row scales."""
    return q.astype(ACC_DTYPE) * np.asarray(scale,
                                            dtype=ACC_DTYPE)[:, None]


class QuantizedWeights:
    """A calibrated set of int8 layers for one classifier.

    Maps parameter base names (e.g.
    ``backbone.layers.0.attention.q_proj``) to
    :class:`QuantizedLinear` payloads.  Built by
    :func:`calibrate_quantization`, persisted atomically with
    :meth:`save`/:meth:`load` (format-v2 checkpoint manifest), and bound
    to a live module with :meth:`overlay_for`, whose result feeds
    :func:`repro.nn.fused.quantized_inference`.
    """

    def __init__(self, layers: Mapping[str, QuantizedLinear],
                 metadata: dict | None = None):
        if not layers:
            raise ValueError("QuantizedWeights needs at least one layer")
        self.layers = dict(layers)
        self.metadata = dict(metadata or {})

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def nbytes(self) -> int:
        """Total bytes across all quantized layers."""
        return sum(ql.nbytes for ql in self.layers.values())

    def overlay_for(self, module) -> dict[int, QuantizedLinear]:
        """Bind the artifact to a live module by parameter name.

        Returns the ``{id(weight array): QuantizedLinear}`` mapping the
        fused dispatch keys on.  Raises :class:`CheckpointError` when a
        calibrated layer is missing from the module or its shape
        changed — an artifact must never silently half-apply.
        """
        params = dict(module.named_parameters())
        overlay: dict[int, QuantizedLinear] = {}
        bad: list[str] = []
        for name, quantized in self.layers.items():
            param = params.get(name + ".weight")
            if param is None or param.data.shape != quantized.q.shape:
                bad.append(name)
                continue
            overlay[id(param.data)] = quantized
        if bad:
            raise CheckpointError(
                f"quantized weights do not match the module (missing or "
                f"reshaped layers): {sorted(bad)}", keys=sorted(bad))
        return overlay

    def save(self, path: str | Path) -> None:
        """Atomically persist the artifact as a manifest-checked .npz."""
        state: dict[str, np.ndarray] = {}
        for name, quantized in self.layers.items():
            state[f"{name}.q"] = quantized.q
            state[f"{name}.scale"] = quantized.scale
            state[f"{name}.act_range"] = quantized.act_range
            if quantized.bias is not None:
                state[f"{name}.bias"] = quantized.bias
        metadata = dict(self.metadata)
        metadata.update({
            "kind": "quantized-weights",
            "qmax": QMAX,
            "layers": sorted(self.layers),
        })
        save_checkpoint(path, state, metadata=metadata)

    @classmethod
    def load(cls, path: str | Path) -> "QuantizedWeights":
        """Load and verify an artifact written by :meth:`save`."""
        state, metadata = load_checkpoint(path)
        if not metadata or metadata.get("kind") != "quantized-weights":
            raise CheckpointError(
                f"{path} is not a quantized-weights artifact", path=path)
        layers: dict[str, QuantizedLinear] = {}
        for name in metadata.get("layers", []):
            try:
                payload = state[f"{name}.q"]
                scale = state[f"{name}.scale"]
                act_range = state[f"{name}.act_range"]
            except KeyError as exc:
                raise CheckpointError(
                    f"quantized-weights artifact {path} is missing arrays "
                    f"for layer {name!r}", path=path, keys=[name]) from exc
            bias = state.get(f"{name}.bias")
            layers[name] = QuantizedLinear(
                q=payload, scale=scale, bias=bias, act_range=act_range)
        extra = {key: value for key, value in metadata.items()
                 if key not in ("kind", "qmax", "layers")}
        return cls(layers, metadata=extra)


def calibrate_quantization(module, sweep: Callable[[], object],
                           metadata: dict | None = None) -> QuantizedWeights:
    """Calibrate int8 quantization for every linear ``module`` runs.

    ``sweep`` is a zero-argument callable that pushes representative
    inputs through the model's forward with the tape off — typically a
    closure over :meth:`repro.matching.MatchEngine.score_pairs` on
    calibration pairs.  The sweep runs under
    :func:`repro.nn.fused.record_activations`; every weight the
    forward's :meth:`~repro.nn.Tensor.linear` calls touched is then
    quantized per-channel and paired with its
    recorded activation range.  Weights the sweep never exercised stay
    float — quantization only ever applies where calibration data
    exists.
    """
    from .fused import record_activations

    with record_activations() as ranges:
        sweep()
    if not ranges:
        raise ValueError(
            "calibration sweep recorded no linear calls — it must run "
            "a model forward")
    params = dict(module.named_parameters())
    by_id = {id(param.data): name for name, param in params.items()}
    layers: dict[str, QuantizedLinear] = {}
    for weight_id, act_range in ranges.items():
        name = by_id.get(weight_id)
        if name is None or not name.endswith(".weight"):
            continue
        base = name[:-len(".weight")]
        grid, scale = quantize_per_channel(params[name].data)
        bias_param = params.get(base + ".bias")
        bias = (np.asarray(bias_param.data, dtype=ACC_DTYPE)
                if bias_param is not None else None)
        layers[base] = QuantizedLinear(
            q=grid, scale=scale, bias=bias,
            act_range=np.asarray(act_range, dtype=ACC_DTYPE))
    return QuantizedWeights(layers, metadata=metadata)


@dataclass(frozen=True)
class ConsistencyReport:
    """Decision agreement between the float and quantized paths.

    ``consistency`` is the fraction of held-out pairs whose boolean
    match decision is identical; ``max_probability_delta`` the largest
    absolute probability difference observed.  The acceptance gate is
    :meth:`passed` against a configured floor (1.0 = every decision
    must agree).
    """

    pairs: int
    agreements: int
    consistency: float
    max_probability_delta: float

    def passed(self, floor: float = 1.0) -> bool:
        """True when the agreement fraction meets ``floor``."""
        return self.consistency >= floor


def decision_consistency(reference: Iterable,
                         quantized: Iterable) -> ConsistencyReport:
    """Compare two outcome lists (``.matched``/``.probability`` duck type).

    ``reference`` is the float path, ``quantized`` the int8 path over
    the same pairs in the same order.  Used as the acceptance gate after
    calibration: quantization ships only if held-out decisions agree.
    """
    reference = list(reference)
    quantized = list(quantized)
    if len(reference) != len(quantized):
        raise ValueError(
            f"outcome lists differ in length: {len(reference)} vs "
            f"{len(quantized)}")
    agreements = sum(
        1 for ref, quant in zip(reference, quantized)
        if ref.matched == quant.matched)
    deltas = [abs(ref.probability - quant.probability)
              for ref, quant in zip(reference, quantized)]
    total = len(reference)
    return ConsistencyReport(
        pairs=total, agreements=agreements,
        consistency=agreements / total if total else 1.0,
        max_probability_delta=max(deltas) if deltas else 0.0)
