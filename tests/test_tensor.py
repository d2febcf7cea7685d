"""Autodiff core: forward values, numerical gradient checks, tape rules."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, is_grad_enabled, no_grad

from conftest import numerical_gradient


def _check_grad(build, *arrays, tol=1e-5):
    """build(*tensors) -> scalar Tensor; verifies each array's gradient."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for array, tensor in zip(arrays, tensors):
        def f(array=array):
            detached = [Tensor(a) for a in arrays]
            return float(build(*detached).data)
        num = numerical_gradient(f, array)
        assert tensor.grad is not None
        assert np.abs(num - tensor.grad).max() < tol


class TestArithmetic:
    def test_add_broadcast_grad(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        _check_grad(lambda x, y: (x + y).sum(), a, b)

    def test_mul_grad(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        _check_grad(lambda x, y: (x * y).sum(), a, b)

    def test_div_grad(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3)) + 3.0
        _check_grad(lambda x, y: (x / y).sum(), a, b)

    def test_scalar_ops_preserve_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        for expr in (x + 1.0, x - 1.0, 1.0 - x, x * 2.0, x / 2.0, 2.0 / x,
                     x + np.float64(1.0), x * np.float64(2.0)):
            assert expr.data.dtype == np.float32

    def test_rsub_value_and_grad(self, rng):
        a = rng.normal(size=(3,))
        _check_grad(lambda x: (5.0 - x).sum() * 2.0, a)
        assert np.allclose((5.0 - Tensor(a)).data, 5.0 - a)

    def test_rtruediv_grad(self, rng):
        a = rng.normal(size=(3,)) + 4.0
        _check_grad(lambda x: (2.0 / x).sum(), a)

    def test_pow_grad(self, rng):
        a = np.abs(rng.normal(size=(3,))) + 0.5
        _check_grad(lambda x: (x ** 3).sum(), a)

    def test_matmul_grad(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        _check_grad(lambda x, y: (x @ y).sum(), a, b)

    def test_batched_matmul_grad(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        _check_grad(lambda x, y: ((x @ y) ** 2).sum(), a, b)

    def test_matmul_broadcast_grad(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        _check_grad(lambda x, y: (x @ y).sum(), a, b)


class TestElementwise:
    @pytest.mark.parametrize("name", ["exp", "tanh", "sigmoid", "relu",
                                      "gelu"])
    def test_unary_grads(self, rng, name):
        a = rng.normal(size=(3, 3))
        _check_grad(lambda x: getattr(x, name)().sum(), a)

    def test_log_grad(self, rng):
        a = np.abs(rng.normal(size=(4,))) + 0.5
        _check_grad(lambda x: x.log().sum(), a)

    def test_sqrt_value(self):
        assert np.allclose(Tensor(np.array([4.0, 9.0])).sqrt().data,
                           [2.0, 3.0])

    def test_gelu_matches_reference(self):
        x = np.linspace(-3, 3, 13)
        out = Tensor(x).gelu().data
        ref = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi)
                                     * (x + 0.044715 * x ** 3)))
        assert np.allclose(out, ref)


class TestReductions:
    def test_sum_axis_grad(self, rng):
        a = rng.normal(size=(3, 4))
        _check_grad(lambda x: (x.sum(axis=1) ** 2).sum(), a)

    def test_sum_keepdims(self, rng):
        a = rng.normal(size=(2, 3))
        out = Tensor(a).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean_grad(self, rng):
        a = rng.normal(size=(3, 4))
        _check_grad(lambda x: (x.mean(axis=0) ** 2).sum(), a)

    def test_max_grad(self, rng):
        a = rng.normal(size=(3, 4))
        _check_grad(lambda x: x.max(axis=1).sum(), a)

    def test_max_ties_split_gradient(self):
        a = np.array([[1.0, 1.0, 0.0]])
        t = Tensor(a, requires_grad=True)
        t.max(axis=1).sum().backward()
        assert np.allclose(t.grad, [[0.5, 0.5, 0.0]])


class TestShapes:
    def test_reshape_grad(self, rng):
        a = rng.normal(size=(2, 6))
        _check_grad(lambda x: (x.reshape(3, 4) ** 2).sum(), a)

    def test_transpose_grad(self, rng):
        a = rng.normal(size=(2, 3, 4))
        _check_grad(lambda x: (x.transpose(2, 0, 1) ** 2).sum(), a)

    def test_swapaxes(self, rng):
        a = rng.normal(size=(2, 3, 4))
        assert Tensor(a).swapaxes(1, 2).shape == (2, 4, 3)

    def test_getitem_grad(self, rng):
        a = rng.normal(size=(4, 5))
        _check_grad(lambda x: (x[1:3, ::2] ** 2).sum(), a)

    def test_getitem_fancy_grad(self, rng):
        a = rng.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 4])
        _check_grad(lambda x: (x[idx] ** 2).sum(), a)

    def test_concat_grad(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))
        _check_grad(lambda x, y: (Tensor.concat([x, y], axis=1) ** 2).sum(),
                    a, b)

    def test_stack_grad(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        _check_grad(lambda x, y: (Tensor.stack([x, y], axis=1) ** 2).sum(),
                    a, b)


class TestStructured:
    def test_embedding_grad_accumulates_duplicates(self, rng):
        table = rng.normal(size=(6, 4))
        ids = np.array([[1, 1, 3]])
        t = Tensor(table, requires_grad=True)
        t.embedding(ids).sum().backward()
        assert np.allclose(t.grad[1], 2.0)
        assert np.allclose(t.grad[3], 1.0)
        assert np.allclose(t.grad[0], 0.0)

    def test_masked_fill(self, rng):
        a = rng.normal(size=(2, 3))
        mask = np.array([[True, False, False], [False, True, False]])
        t = Tensor(a, requires_grad=True)
        out = t.masked_fill(mask, -9.0)
        assert np.all(out.data[mask] == -9.0)
        out.sum().backward()
        assert np.all(t.grad[mask] == 0.0)
        assert np.all(t.grad[~mask] == 1.0)

    def test_softmax_rows_sum_to_one(self, rng):
        out = Tensor(rng.normal(size=(4, 7))).softmax(axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_grad(self, rng):
        a = rng.normal(size=(3, 5))
        _check_grad(lambda x: (x.softmax(axis=-1) ** 2).sum(), a)

    def test_log_softmax_grad(self, rng):
        a = rng.normal(size=(3, 5))
        _check_grad(lambda x: (x.log_softmax(axis=-1) ** 2).sum(), a)

    def test_log_softmax_is_log_of_softmax(self, rng):
        a = rng.normal(size=(2, 4))
        assert np.allclose(Tensor(a).log_softmax().data,
                           np.log(Tensor(a).softmax().data))

    def test_layer_norm_grad(self, rng):
        a = rng.normal(size=(2, 3, 5))
        w = rng.normal(size=(5,))
        b = rng.normal(size=(5,))
        _check_grad(lambda x, wt, bt: (x.layer_norm(wt, bt) ** 2).sum(),
                    a, w, b)

    def test_layer_norm_statistics(self, rng):
        a = rng.normal(size=(4, 8))
        out = Tensor(a).layer_norm(Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    def test_dropout_inverted_scaling(self, rng):
        t = Tensor(np.ones((1000,)), requires_grad=True)
        out = t.dropout(0.5, rng)
        kept = out.data != 0
        assert np.allclose(out.data[kept], 2.0)
        assert 0.3 < kept.mean() < 0.7


class TestTape:
    def test_no_grad_blocks_tape(self, rng):
        t = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            out = t * 2.0
            assert not out.requires_grad
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_as_decorator(self, rng):
        t = Tensor(rng.normal(size=(3,)), requires_grad=True)

        @no_grad()
        def infer(x):
            assert not is_grad_enabled()
            return x * 2.0

        out = infer(t)
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """Two threads in overlapping ``no_grad`` blocks — A enters, B
        enters, A leaves, B leaves — leave recording on everywhere, and
        neither switches the tape off for a third thread."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = []  # the second thread's mode inside and after its block

        def first():
            with no_grad():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def second():
            a_in.wait(10)
            with no_grad():
                b_in.set()
                seen.append(is_grad_enabled())
                a_out.wait(10)
            seen.append(is_grad_enabled())

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        a_in.wait(10)
        assert is_grad_enabled()  # the main thread, mid-block
        for thread in threads:
            thread.join()
        assert seen == [False, True]
        assert is_grad_enabled()
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(
            is_grad_enabled()))
        thread.start()
        thread.join()
        assert fresh == [True]

    def test_no_grad_nesting_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            # Leaving the inner block restores the *outer* state (still
            # disabled), not the global default.
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_decorator_inside_context(self):
        @no_grad()
        def infer():
            return is_grad_enabled()

        with no_grad():
            assert infer() is False
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_backward_requires_scalar(self, rng):
        t = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_on_detached_raises(self, rng):
        t = Tensor(rng.normal(size=(3,)))
        with pytest.raises(RuntimeError):
            t.sum().backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        assert np.allclose(t.grad, [4.0, 4.0])

    def test_diamond_graph_grad(self, rng):
        a = rng.normal(size=(3,))
        _check_grad(lambda x: ((x * 2.0) + (x * 3.0)).sum(), a)

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t.detach() * 3.0
        assert not out.requires_grad

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=12))
@settings(max_examples=30, deadline=None)
def test_softmax_invariant_to_shift(values):
    x = np.array(values)
    a = Tensor(x).softmax().data
    b = Tensor(x + 100.0).softmax().data
    assert np.allclose(a, b, atol=1e-6)


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_matmul_shape_property(n, m):
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(n, 3)))
    b = Tensor(rng.normal(size=(3, m)))
    assert (a @ b).shape == (n, m)


@given(st.lists(st.floats(-3, 3), min_size=2, max_size=8))
@settings(max_examples=30, deadline=None)
def test_layer_norm_shift_invariance(values):
    x = np.array(values)[None, :]
    w = Tensor(np.ones(len(values)))
    b = Tensor(np.zeros(len(values)))
    a = Tensor(x).layer_norm(w, b).data
    shifted = Tensor(x + 7.0).layer_norm(w, b).data
    assert np.allclose(a, shifted, atol=1e-4)
