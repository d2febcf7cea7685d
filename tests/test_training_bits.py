"""Bit identity of the training step.

The tape-on training path (``repro.nn.tensor``, ``repro.nn.fused``,
``repro.nn.optim``) is optimised under one rule: every float of a
training trajectory stays the same.  This module pins that rule two
ways:

* sha256 digests of whole trajectories — the per-step losses and final
  weights of a tiny one-epoch fine-tune per architecture, and the
  weights of one smoke-recipe pre-training — taken before the lean
  backward ops, flat scatters and the flat Adam buffer went in (the
  XLNet pair once its unigram tokenizer stopped depending on the hash
  seed);
* each rewritten piece against the plain numpy expression it replaced,
  on inputs chosen to hit its edge cases (duplicate ids, ``-0.0``
  gradients, parameters without a gradient, ...).

The digests are computed in a child process, so they come from a fresh
interpreter with its own hash seed: no trajectory may depend on
``PYTHONHASHSEED``.  Run this file as a script to print them::

    PYTHONPATH=src python tests/test_training_bits.py

They also depend on the numpy build and on the BLAS kernels the CPU
selects; on another platform regenerate them from a commit whose
trajectory is trusted rather than loosening the comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
ARCHS = ("bert", "roberta", "distilbert", "xlnet")

# sha256 of the per-step losses (float64) and of the final classifier
# state_dict after a one-epoch fine-tune, per architecture, and of the
# pre-trained smoke bert backbone.
PINNED = {
    "finetune/bert": [
        "df4c03d79a9c6a75ca7ef29903fc6ddb99b285eb8eaf7cf7dd1ebaa2cb6e660d",
        "6de7da42044ff0037fa8459b89148314cdd9a659c6f8de48ef80f34c63d71a82"],
    "finetune/roberta": [
        "9527038c4ab0cb400c8bbb866f9573e9dbccad878cb8fb9e5d22dd0001769051",
        "d46ee8d808685b92c86411ce5da7c0043d08274597e73b72550e7ae8beaa08c2"],
    "finetune/distilbert": [
        "aacfaf17b831b39cc0d2a841037571e7bf5261b74959085c3b1400660a0e4e2a",
        "9bcbdc9523e65c6d9d37f6760532cfa8586141c56bb4aa21f8c5589fca3618dd"],
    "finetune/xlnet": [
        "37a627ffed550c69f1d3d9e41f88dcb4789dde7164f6b9f741208fbc2d4c1b09",
        "10eb4a7a0f2cca18b42e61b8c28e85bb578aaa69826e10bb49e0b9676589095c"],
    "pretrain/bert":
        "4e146f29894ac1f1f703672c497f0f8b012b8881c250e9e5aed233a5b9801aa2",
}


def _state_digest(state: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        h.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def trajectory_digests(zoo_dir) -> dict:
    """Pre-train the CLI's ``--smoke`` zoo into ``zoo_dir``, fine-tune
    each architecture for one epoch, and digest the results."""
    from repro.data import load_benchmark, split_dataset
    from repro.matching import FineTuneConfig, fine_tune
    from repro.obs import Callback
    from repro.pretraining import ZooSettings, get_pretrained
    from repro.utils import child_rng

    class Losses(Callback):
        def __init__(self):
            self.losses: list[float] = []

        def on_step(self, info: dict) -> None:
            self.losses.append(info["loss"])

    settings = ZooSettings(base_steps=25, base_examples=150,
                           tokenizer_sentences=150, vocab_size=220,
                           d_model=32, num_layers=2, num_heads=2,
                           max_position=64, seq_len=32)
    splits = split_dataset(load_benchmark("dblp-acm", seed=7, scale=0.03),
                           child_rng(7, "split", "dblp-acm"))
    config = FineTuneConfig(epochs=1, batch_size=8, max_length_cap=32)
    digests = {}
    for arch in ARCHS:
        pretrained = get_pretrained(arch, seed=0, settings=settings,
                                    zoo_dir=zoo_dir)
        if arch == "bert":
            digests["pretrain/bert"] = _state_digest(
                pretrained.backbone.state_dict())
        losses = Losses()
        result = fine_tune(pretrained, splits.train, splits.test,
                           config=config, seed=3, callbacks=losses)
        digests[f"finetune/{arch}"] = [
            hashlib.sha256(np.asarray(losses.losses, dtype=np.float64)
                           .tobytes()).hexdigest(),
            _state_digest(result.classifier.state_dict())]
    return digests


class TestPinnedTrajectories:
    def test_digests_match(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, __file__, str(tmp_path / "zoo")],
            cwd=ROOT, env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        digests = json.loads(proc.stdout.strip().splitlines()[-1])
        assert digests == PINNED



# -- each rewritten piece against the expression it replaced ------------------


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: unlike ``array_equal`` this tells
    ``-0.0`` from ``0.0``."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def _reference_scatter(like, index, grad):
    full = np.zeros_like(like)
    np.add.at(full, index, grad)
    return full


def _signed_zero_grad(rng, shape, dtype):
    grad = rng.standard_normal(shape).astype(dtype)
    grad[rng.random(shape) < 0.3] = -0.0
    return grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestScatterRows:
    def test_embedding_backward_matches_row_wise_add_at(self, dtype):
        from repro.nn import Tensor
        rng = np.random.default_rng(0)
        table = Tensor(rng.standard_normal((11, 5)).astype(dtype),
                       requires_grad=True)
        ids = rng.integers(0, 4, size=(6, 9))   # many repeated rows
        grad = _signed_zero_grad(rng, (6, 9, 5), dtype)
        table.embedding(ids).backward(grad)
        expected = _reference_scatter(table.data, ids.reshape(-1),
                                      grad.reshape(-1, 5))
        assert _same_bits(table.grad, expected)

    def test_only_negative_zeros(self, dtype):
        from repro.nn.tensor import _scatter_rows
        like = np.ones((3, 4), dtype=dtype)
        ids = np.array([1, 1, 2])
        grad = np.full((3, 4), -0.0, dtype=dtype)
        assert _same_bits(_scatter_rows(like, ids, grad),
                          _reference_scatter(like, ids, grad))

    def test_position_ids_broadcast(self, dtype):
        from repro.nn.tensor import _scatter_rows
        rng = np.random.default_rng(1)
        like = np.zeros((64, 8), dtype=dtype)
        ids = np.broadcast_to(np.arange(20), (7, 20))
        grad = _signed_zero_grad(rng, (7, 20, 8), dtype)
        assert _same_bits(
            _scatter_rows(like, ids, grad),
            _reference_scatter(like, ids.reshape(-1), grad.reshape(-1, 8)))


BASIC_INDICES = [
    2, np.int64(-1), np.intp(0), slice(1, 3), slice(None, None, -2), None,
    Ellipsis, (1, 2), (slice(None), 2), (Ellipsis, np.int32(1)),
    (None, slice(0, 2), Ellipsis), (0, None, slice(1, None), 2),
]
ADVANCED_INDICES = [
    [0, 0, 2], np.array([3, 1, 3, 3]), (slice(None), np.array([1, 1, 0])),
    (np.array([0, 2, 2]), np.array([1, 1, 1])), True,
    np.array([True, False, True, True]),
    (slice(None), np.array([[0, 1], [1, 1]]), 2),
]


class TestGetitemBackward:
    @pytest.mark.parametrize("index", BASIC_INDICES + ADVANCED_INDICES,
                             ids=repr)
    def test_matches_add_at(self, index):
        from repro.nn import Tensor
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 3, 5)).astype(np.float32),
                   requires_grad=True)
        out = x[index]
        grad = _signed_zero_grad(rng, out.shape, np.float32)
        out.backward(grad)
        assert _same_bits(x.grad, _reference_scatter(x.data, index, grad))

    @pytest.mark.parametrize("index", BASIC_INDICES, ids=repr)
    def test_basic_indices_take_the_slice_path(self, index):
        from repro.nn.tensor import _is_basic_index
        assert _is_basic_index(index)

    @pytest.mark.parametrize("index", ADVANCED_INDICES, ids=repr)
    def test_fancy_and_bool_indices_keep_add_at(self, index):
        from repro.nn.tensor import _is_basic_index
        assert not _is_basic_index(index)


class TestDropoutMask:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.25, 1 / 3, 0.9])
    def test_matches_float64_division(self, dtype, p):
        from repro.nn.tensor import _dropout_mask
        shape = (16, 2, 64, 64)
        mask = _dropout_mask(shape, p, np.random.default_rng(3),
                             np.dtype(dtype))
        keep = 1.0 - p
        expected = ((np.random.default_rng(3).random(shape) < keep)
                    / keep).astype(dtype)
        assert _same_bits(mask, expected)


class TestLeanBackwards:
    """Layer norm and GELU backward from saved forward state, and the
    in-place masking of the attention backward, against the parent's
    recomputing expressions."""

    def test_layer_norm(self):
        from repro.nn import Tensor
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 7, 16)).astype(np.float32) * 3 + 1
        w = rng.standard_normal(16).astype(np.float32)
        b = rng.standard_normal(16).astype(np.float32)
        grad = _signed_zero_grad(rng, x.shape, np.float32)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        xt.layer_norm(wt, bt).backward(grad)

        centered = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        x_hat = centered * inv
        g = grad * w
        gx = inv * (g - g.mean(axis=-1, keepdims=True)
                    - x_hat * (g * x_hat).mean(axis=-1, keepdims=True))
        assert _same_bits(xt.grad, gx)
        assert _same_bits(wt.grad, (grad * x_hat).sum(axis=(0, 1)))
        assert _same_bits(bt.grad, grad.sum(axis=(0, 1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, dtype):
        from repro.nn import Tensor
        rng = np.random.default_rng(5)
        x = (rng.standard_normal((5, 9, 12)) * 4).astype(dtype)
        x.flat[:4] = [0.0, -0.0, 1e-40, -30.0]
        grad = _signed_zero_grad(rng, x.shape, dtype)
        xt = Tensor(x, requires_grad=True)
        out = xt.gelu()
        out.backward(grad)

        c = float(np.sqrt(2.0 / np.pi))
        t = np.tanh(c * (x + 0.044715 * (x * x * x)))
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * (x * x))
        assert _same_bits(out.data, 0.5 * x * (1.0 + t))
        assert _same_bits(xt.grad,
                          grad * (0.5 * (1.0 + t) + 0.5 * x * dt))

    def test_attention_mask_zeroes_in_place(self):
        from repro.nn import Tensor
        rng = np.random.default_rng(6)
        q, k, v = (Tensor(rng.standard_normal((2, 2, 5, 4))
                          .astype(np.float32), requires_grad=True)
                   for _ in range(3))
        mask = np.zeros((2, 1, 1, 5), dtype=bool)
        mask[0, ..., 3:] = True
        out = Tensor.attention_core(q, k, v, 0.5, attention_mask=mask)
        grad = _signed_zero_grad(rng, out.shape, np.float32)
        out.backward(grad)

        scores = (q.data @ np.swapaxes(k.data, -1, -2)) * 0.5
        scores = np.where(mask, -1e9, scores)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        g = grad @ np.swapaxes(v.data, -1, -2)
        g = probs * (g - (g * probs).sum(axis=-1, keepdims=True))
        g = np.where(mask, 0.0, g) * 0.5
        assert _same_bits(q.grad, g @ k.data)
        assert _same_bits(
            k.grad, np.swapaxes(np.swapaxes(q.data, -1, -2) @ g, -1, -2))


class _ReferenceAdam:
    """The per-parameter Adam loop the flat buffers replaced."""

    def __init__(self, params, lr, weight_decay):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        bias1, bias2 = 1.0 - 0.9 ** self.t, 1.0 - 0.999 ** self.t
        for param, m, v in zip(self.params, self.m, self.v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= 0.9
            m += (1.0 - 0.9) * grad
            v *= 0.999
            v += (1.0 - 0.999) * (grad * grad)
            update = (m / bias1) / (np.sqrt(v / bias2) + 1e-8)
            if self.weight_decay:
                update = update + self.weight_decay * param.data
            param.data -= self.lr * update


class TestFlatAdam:
    SHAPES = [((4, 3), np.float32), ((3,), np.float32), ((2, 2), np.float64),
              ((5,), np.float32), ((6, 2), np.float32), ((1,), np.float64)]

    def _pair(self, weight_decay):
        from repro.nn import Adam, Parameter
        rng = np.random.default_rng(7)
        datas = [rng.standard_normal(shape).astype(dtype)
                 for shape, dtype in self.SHAPES]
        flat = [Parameter(d.copy()) for d in datas]
        ref = [Parameter(d.copy()) for d in datas]
        return (Adam(flat, lr=0.05, weight_decay=weight_decay),
                _ReferenceAdam(ref, 0.05, weight_decay), flat, ref)

    @staticmethod
    def _grads(flat, ref, rng, missing=()):
        for i, (a, b) in enumerate(zip(flat, ref)):
            if i in missing:
                a.grad = b.grad = None
                continue
            g = rng.standard_normal(a.data.shape).astype(a.data.dtype)
            a.grad, b.grad = g.copy(), g.copy()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_per_parameter_loop(self, weight_decay):
        opt, ref, flat, params = self._pair(weight_decay)
        rng = np.random.default_rng(8)
        # Steps with gaps: one run, runs split by a None, a None at
        # either end, a dtype group with no gradient at all.
        for missing in [(), (1,), (0, 5), (2, 5), (3, 4), ()]:
            self._grads(flat, params, rng, missing)
            before = [m.copy() for m in opt._m]
            opt.step()
            ref.step()
            for i in missing:
                assert _same_bits(opt._m[i], before[i])
            for a, b in zip(flat, params):
                assert _same_bits(a.data, b.data)
            for ours, theirs in zip(opt._m + opt._v, ref.m + ref.v):
                assert _same_bits(ours, theirs)

    def test_moments_are_views_of_one_buffer_per_dtype(self):
        opt, _, _, _ = self._pair(0.0)
        bases = {id(m.base) for m in opt._m} | {id(v.base) for v in opt._v}
        assert len(bases) == 4   # m and v, for float32 and float64
        for m, (shape, dtype) in zip(opt._m, self.SHAPES):
            assert m.shape == shape and m.dtype == dtype

    def test_state_dict_round_trip_into_the_flat_buffer(self):
        from repro.nn import Adam, Parameter
        opt, ref, flat, params = self._pair(0.01)
        rng = np.random.default_rng(9)
        for _ in range(3):
            self._grads(flat, params, rng)
            opt.step()
            ref.step()
        copies = [Parameter(p.data.copy()) for p in flat]
        restored = Adam(copies, lr=0.05, weight_decay=0.01)
        restored.load_state_dict(opt.state_dict())
        assert all(_same_bits(a, b) for a, b in
                   zip(restored._m + restored._v, opt._m + opt._v))
        for _ in range(2):
            self._grads(copies, params, rng, missing=(4,))
            restored.step()
            ref.step()
        for a, b in zip(copies, params):
            assert _same_bits(a.data, b.data)


class TestLeafGradients:
    def test_add_gives_each_leaf_its_own_array(self):
        from repro.nn import Parameter, clip_grad_norm
        p, q = Parameter(np.ones(3)), Parameter(np.ones(3))
        ((p + q) * 1.0).sum().backward()
        assert p.grad is not q.grad
        assert np.array_equal(p.grad, q.grad)
        clip_grad_norm([p, q], 1.0)
        norm = np.sqrt((p.grad ** 2).sum() + (q.grad ** 2).sum())
        assert norm == pytest.approx(1.0)

    def test_alias_through_a_chain_of_adds(self):
        from repro.nn import Parameter
        p, q, r = (Parameter(np.ones(2)) for _ in range(3))
        ((p + q) + (r + 2.0)).sum().backward()
        assert len({id(p.grad), id(q.grad), id(r.grad)}) == 3

if __name__ == "__main__":
    import tempfile

    if len(sys.argv) > 1:
        print(json.dumps(trajectory_digests(sys.argv[1])))
    else:
        with tempfile.TemporaryDirectory() as zoo:
            print(json.dumps(trajectory_digests(zoo), indent=1))
