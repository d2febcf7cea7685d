"""Deep numerical gradient checks of composite blocks.

These go beyond per-op checks: the kernel-backed ``linear`` and
``attention_core`` ops, whole attention/encoder blocks, XLNet's
relative attention with its gather-based position scoring, and the
two-stream path, verified against central differences in float64.
"""

import numpy as np
import pytest

from repro.models import default_config
from repro.models.bert import BertEmbeddings, BertPretrainingHeads
from repro.models.distilbert import DistilBertEmbeddings
from repro.models.roberta import RobertaPretrainingHead
from repro.models.transformer import TransformerEncoder, \
    TransformerEncoderLayer
from repro.models.xlnet import XLNetLayer, XLNetRelativeAttention, \
    permutation_masks
from repro.nn import (GELU, Linear, MultiHeadAttention, PlainLinear, ReLU,
                      Tanh, Tensor, no_grad)
from repro.nn.fused import count_kernels

from conftest import numerical_gradient


def _to64(module):
    """Cast all parameters of a module to float64 for tight tolerances."""
    for param in module.parameters():
        param.data = param.data.astype(np.float64)
    return module


def _assert_gradcheck(loss, arrays, tol=1e-6):
    """Backward of ``loss(*tensors)`` vs central differences, per array.

    ``arrays`` may hold None for absent optional operands.
    """
    tensors = [None if a is None else Tensor(a, requires_grad=True)
               for a in arrays]
    loss(*tensors).backward()

    def value():
        return float(loss(*[None if a is None else Tensor(a)
                            for a in arrays]).data)

    for array, tensor in zip(arrays, tensors):
        if array is not None:
            numeric = numerical_gradient(value, array)
            assert np.abs(numeric - tensor.grad).max() < tol


class TestLinearOpGradients:
    """``Tensor.linear``: the ``fused.linear`` forward under a
    hand-written backward."""

    @pytest.mark.parametrize("with_bias", [True, False],
                             ids=["bias", "no-bias"])
    @pytest.mark.parametrize("shape", [(4, 5), (2, 3, 5)],
                             ids=["2d", "3d"])
    def test_linear_gradients(self, rng, shape, with_bias):
        x = rng.normal(size=shape)
        weight = rng.normal(size=(3, 5))
        bias = rng.normal(size=(3,)) if with_bias else None

        def loss(x, weight, bias):
            return (x.linear(weight, bias) ** 2).sum()

        _assert_gradcheck(loss, [x, weight, bias])

    @pytest.mark.parametrize("shape", [(4, 5), (2, 3, 5)],
                             ids=["2d", "3d"])
    def test_linear_matches_op_chain_bitwise(self, rng, shape):
        arrays = [rng.normal(size=shape), rng.normal(size=(3, 5)),
                  rng.normal(size=(3,))]
        upstream = rng.normal(size=shape[:-1] + (3,))
        fused = [Tensor(a, requires_grad=True) for a in arrays]
        chain = [Tensor(a, requires_grad=True) for a in arrays]
        out = fused[0].linear(fused[1], fused[2])
        ref = chain[0] @ chain[1].T + chain[2]
        out.backward(upstream)
        ref.backward(upstream)
        assert np.array_equal(out.data, ref.data)
        for a, b in zip(fused, chain):
            assert np.array_equal(a.grad, b.grad)

    def test_plain_linear_stays_outside_kernel_dispatch(self, rng):
        linear = Linear(5, 3, rng)
        plain = PlainLinear(5, 3, rng)
        plain.weight.data = linear.weight.data.copy()
        x = Tensor(rng.normal(size=(2, 4, 5)))
        with count_kernels() as counts:
            fused = linear(x)
        assert counts == {"linear": 1}
        with count_kernels() as counts:
            plain_out = plain(x)
        assert counts == {}
        assert np.array_equal(fused.data, plain_out.data)


class TestAttentionCoreGradients:
    """``Tensor.attention_core``: the ``fused.attention_core`` forward
    under one hand-written backward, in every mode the models use."""

    def _qkv(self, rng):
        return [rng.normal(size=(2, 2, 4, 3)) for _ in range(3)]

    def _mask(self):
        mask = np.zeros((2, 1, 1, 4), dtype=bool)
        mask[0, ..., -1] = True
        return mask

    def test_qkv_gradients_with_mask(self, rng):
        mask = self._mask()

        def loss(q, k, v):
            return (Tensor.attention_core(q, k, v, 0.5,
                                          attention_mask=mask) ** 2).sum()

        _assert_gradcheck(loss, self._qkv(rng))

    def test_score_bias_gradient_reaches_match_gain(self, rng):
        match = rng.normal(size=(2, 4, 4))
        gain = rng.normal(size=(2,))
        mask = self._mask()

        def loss(q, k, v, gain):
            bias = gain.reshape(1, 2, 1, 1) * Tensor(match[:, None])
            return (Tensor.attention_core(q, k, v, 0.5,
                                          attention_mask=mask,
                                          score_bias=bias) ** 2).sum()

        _assert_gradcheck(loss, self._qkv(rng) + [gain])

    def test_precomputed_scores_mode(self, rng):
        scores = rng.normal(size=(2, 2, 4, 4))
        v = rng.normal(size=(2, 2, 4, 3))
        bias = rng.normal(size=(2, 2, 4, 4))
        mask = self._mask()

        def loss(scores, v, bias):
            return (Tensor.attention_core(None, None, v, 1.0,
                                          attention_mask=mask,
                                          score_bias=bias,
                                          scores=scores) ** 2).sum()

        _assert_gradcheck(loss, [scores, v, bias])

    def test_dropout_under_fixed_rng(self, rng):
        def loss(q, k, v):
            # A fresh generator per call: every evaluation of the
            # numerical gradient sees the same dropout mask.
            return (Tensor.attention_core(
                q, k, v, 0.5, dropout=0.3,
                rng=np.random.default_rng(5)) ** 2).sum()

        arrays = self._qkv(rng)
        _assert_gradcheck(loss, arrays)
        q, k, v = map(Tensor, arrays)
        dropped = Tensor.attention_core(q, k, v, 0.5, dropout=0.3,
                                        rng=np.random.default_rng(5))
        with no_grad():
            # Inference: dropout is the identity, and draws nothing.
            plain = Tensor.attention_core(q, k, v, 0.5, dropout=0.3,
                                          rng=None)
        assert not np.array_equal(dropped.data, plain.data)
        assert np.array_equal(
            plain.data, Tensor.attention_core(q, k, v, 0.5).data)

    def test_matches_op_chain_bitwise(self, rng):
        """Forward and every gradient equal the QK^T -> bias -> mask ->
        softmax -> dropout -> V chain of primitive ops, bit for bit."""
        arrays = self._qkv(rng) + [rng.normal(size=(2, 2, 4, 4))]
        arrays = [a.astype(np.float32) for a in arrays]
        mask = self._mask()
        upstream = rng.normal(size=(2, 2, 4, 3)).astype(np.float32)
        core = [Tensor(a, requires_grad=True) for a in arrays]
        chain = [Tensor(a, requires_grad=True) for a in arrays]
        scale = 1.0 / np.sqrt(3)
        out = Tensor.attention_core(*core[:3], scale, attention_mask=mask,
                                    score_bias=core[3], dropout=0.2,
                                    rng=np.random.default_rng(1))
        q, k, v, bias = chain
        scores = (q @ k.swapaxes(-1, -2)) * scale + bias
        probs = scores.masked_fill(mask, -1e9).softmax(axis=-1)
        ref = probs.dropout(0.2, np.random.default_rng(1)) @ v
        out.backward(upstream)
        ref.backward(upstream)
        assert np.array_equal(out.data, ref.data)
        for a, b in zip(core, chain):
            assert np.array_equal(a.grad, b.grad)


class TestAttentionGradients:
    def test_mha_input_gradient(self, rng):
        mha = _to64(MultiHeadAttention(8, 2, rng, dropout=0.0))
        x = rng.normal(size=(2, 5, 8))

        def forward():
            return float((mha(Tensor(x)) ** 2).sum().data)

        t = Tensor(x, requires_grad=True)
        (mha(t) ** 2).sum().backward()
        numeric = numerical_gradient(forward, x)
        assert np.abs(numeric - t.grad).max() < 1e-5

    def test_mha_masked_gradient(self, rng):
        mha = _to64(MultiHeadAttention(8, 2, rng, dropout=0.0))
        x = rng.normal(size=(1, 4, 8))
        mask = np.zeros((1, 1, 1, 4), dtype=bool)
        mask[..., -1] = True

        def forward():
            return float((mha(Tensor(x), attention_mask=mask) ** 2)
                         .sum().data)

        t = Tensor(x, requires_grad=True)
        (mha(t, attention_mask=mask) ** 2).sum().backward()
        numeric = numerical_gradient(forward, x)
        assert np.abs(numeric - t.grad).max() < 1e-5

    def test_mha_projection_weight_gradient(self, rng):
        mha = _to64(MultiHeadAttention(8, 2, rng, dropout=0.0))
        x = rng.normal(size=(1, 3, 8))
        weight = mha.v_proj.weight

        def forward():
            return float((mha(Tensor(x)) ** 2).sum().data)

        (mha(Tensor(x, requires_grad=True)) ** 2).sum().backward()
        numeric = numerical_gradient(forward, weight.data)
        assert np.abs(numeric - weight.grad).max() < 1e-4

    def test_match_gain_gradient(self, rng):
        mha = _to64(MultiHeadAttention(8, 2, rng, dropout=0.0,
                                       match_bias=True))
        x = rng.normal(size=(1, 4, 8))
        match = rng.normal(size=(1, 4, 4))
        gain = mha.match_gain

        def forward():
            return float((mha(Tensor(x), match_scores=match) ** 2)
                         .sum().data)

        (mha(Tensor(x, requires_grad=True), match_scores=match) ** 2) \
            .sum().backward()
        numeric = numerical_gradient(forward, gain.data)
        assert np.abs(numeric - gain.grad).max() < 1e-4


class TestEncoderLayerGradients:
    @pytest.mark.parametrize("pre_norm", [True, False])
    def test_full_block_input_gradient(self, rng, pre_norm):
        config = default_config("bert", vocab_size=30, d_model=8,
                                num_layers=1, num_heads=2, max_position=8,
                                dropout=0.0)
        config.pre_norm = pre_norm
        layer = _to64(TransformerEncoderLayer(config, rng))
        x = rng.normal(size=(1, 4, 8))

        def forward():
            return float((layer(Tensor(x)) ** 2).sum().data)

        t = Tensor(x, requires_grad=True)
        (layer(t) ** 2).sum().backward()
        numeric = numerical_gradient(forward, x)
        assert np.abs(numeric - t.grad).max() < 1e-4


class TestXLNetGradients:
    def _attention(self, rng):
        config = default_config("xlnet", vocab_size=30, d_model=8,
                                num_layers=1, num_heads=2, max_position=8,
                                dropout=0.0)
        return _to64(XLNetRelativeAttention(config, rng))

    def test_relative_attention_input_gradient(self, rng):
        attention = self._attention(rng)
        x = rng.normal(size=(1, 4, 8))
        rel = rng.normal(size=(7, 8))

        def forward():
            return float((attention(Tensor(x), Tensor(x), Tensor(rel))
                          ** 2).sum().data)

        t = Tensor(x, requires_grad=True)
        (attention(t, t, Tensor(rel)) ** 2).sum().backward()
        numeric = numerical_gradient(forward, x)
        assert np.abs(numeric - t.grad).max() < 1e-4

    def test_position_bias_gradient(self, rng):
        attention = self._attention(rng)
        x = rng.normal(size=(1, 3, 8))
        rel = rng.normal(size=(5, 8))
        bias = attention.position_bias

        def forward():
            return float((attention(Tensor(x), Tensor(x), Tensor(rel))
                          ** 2).sum().data)

        (attention(Tensor(x, requires_grad=True), Tensor(x),
                   Tensor(rel)) ** 2).sum().backward()
        numeric = numerical_gradient(forward, bias.data)
        assert np.abs(numeric - bias.grad).max() < 1e-4

    def test_rel_projection_gradient(self, rng):
        attention = self._attention(rng)
        x = rng.normal(size=(1, 3, 8))
        rel = rng.normal(size=(5, 8))
        weight = attention.r_proj.weight

        def forward():
            return float((attention(Tensor(x), Tensor(x), Tensor(rel))
                          ** 2).sum().data)

        (attention(Tensor(x, requires_grad=True), Tensor(x),
                   Tensor(rel)) ** 2).sum().backward()
        numeric = numerical_gradient(forward, weight.data)
        assert np.abs(numeric - weight.grad).max() < 1e-4

    def test_permutation_mask_consistency_property(self, rng):
        for _ in range(10):
            order = rng.permutation(int(rng.integers(2, 9)))
            content, query = permutation_masks(order)
            n = len(order)
            # content = query minus the diagonal (self-visibility)
            assert np.array_equal(content | np.eye(n, dtype=bool),
                                  query | np.eye(n, dtype=bool))
            assert not content.diagonal().any()
            assert query.diagonal().all()
            # the k-th element of the order sees exactly k-1 others
            for position_rank, position in enumerate(order):
                visible = (~query[position]).sum()
                assert visible == position_rank


class TestActivationModules:
    """The GELU / ReLU / Tanh Module wrappers must match their Tensor ops
    and pass gradcheck like any other block."""

    @pytest.mark.parametrize("layer_cls,op", [
        (GELU, "gelu"), (ReLU, "relu"), (Tanh, "tanh")])
    def test_module_gradient(self, rng, layer_cls, op):
        layer = layer_cls()
        # Keep inputs away from ReLU's kink at 0, where the numerical
        # gradient is undefined.
        x = rng.normal(size=(3, 5))
        x[np.abs(x) < 0.1] += 0.5

        def forward():
            return float((layer(Tensor(x)) ** 2).sum().data)

        t = Tensor(x, requires_grad=True)
        (layer(t) ** 2).sum().backward()
        numeric = numerical_gradient(forward, x)
        assert np.abs(numeric - t.grad).max() < 1e-5
        assert np.allclose(layer(Tensor(x)).data,
                           getattr(Tensor(x), op)().data)


class TestXLNetLayerGradients:
    def test_xlnet_layer_input_gradient(self, rng):
        config = default_config("xlnet", vocab_size=30, d_model=8,
                                num_layers=1, num_heads=2, max_position=8,
                                dropout=0.0)
        layer = _to64(XLNetLayer(config, rng))
        x = rng.normal(size=(1, 4, 8))
        rel = rng.normal(size=(7, 8))

        def forward():
            return float((layer(Tensor(x), Tensor(rel)) ** 2).sum().data)

        t = Tensor(x, requires_grad=True)
        (layer(t, Tensor(rel)) ** 2).sum().backward()
        numeric = numerical_gradient(forward, x)
        assert np.abs(numeric - t.grad).max() < 1e-4


class TestEncoderStackGradients:
    def test_transformer_encoder_input_gradient(self, rng):
        config = default_config("bert", vocab_size=30, d_model=8,
                                num_layers=2, num_heads=2, max_position=8,
                                dropout=0.0)
        encoder = _to64(TransformerEncoder(config, rng))
        x = rng.normal(size=(1, 3, 8))

        def forward():
            return float((encoder(Tensor(x)) ** 2).sum().data)

        t = Tensor(x, requires_grad=True)
        (encoder(t) ** 2).sum().backward()
        numeric = numerical_gradient(forward, x)
        assert np.abs(numeric - t.grad).max() < 1e-4

    def test_transformer_encoder_return_all(self, rng):
        config = default_config("bert", vocab_size=30, d_model=8,
                                num_layers=2, num_heads=2, max_position=8,
                                dropout=0.0)
        encoder = TransformerEncoder(config, rng)
        x = Tensor(rng.normal(size=(1, 3, 8)))
        hidden, all_states = encoder(x, return_all=True)
        assert len(all_states) == config.num_layers + 1
        assert all_states[-1] is hidden


class TestEmbeddingModuleGradients:
    def _config(self, arch):
        return default_config(arch, vocab_size=30, d_model=8,
                              num_layers=1, num_heads=2, max_position=8,
                              dropout=0.0)

    def test_bert_embeddings_weight_gradient(self, rng):
        embeddings = _to64(BertEmbeddings(self._config("bert"), rng))
        ids = rng.integers(0, 30, size=(2, 4))
        weight = embeddings.token.weight

        def forward():
            return float((embeddings(ids) ** 2).sum().data)

        (embeddings(ids) ** 2).sum().backward()
        numeric = numerical_gradient(forward, weight.data)
        assert np.abs(numeric - weight.grad).max() < 1e-4

    def test_distilbert_embeddings_weight_gradient(self, rng):
        embeddings = _to64(DistilBertEmbeddings(self._config("distilbert"),
                                                rng))
        ids = rng.integers(0, 30, size=(2, 4))
        weight = embeddings.position.weight

        def forward():
            return float((embeddings(ids) ** 2).sum().data)

        (embeddings(ids) ** 2).sum().backward()
        numeric = numerical_gradient(forward, weight.data)
        assert np.abs(numeric - weight.grad).max() < 1e-4


class TestPretrainingHeadGradients:
    def _config(self, arch="bert"):
        return default_config(arch, vocab_size=30, d_model=8,
                              num_layers=1, num_heads=2, max_position=8,
                              dropout=0.0)

    def test_bert_pretraining_heads_mlm_gradient(self, rng):
        heads = _to64(BertPretrainingHeads(self._config(), rng))
        x = rng.normal(size=(1, 3, 8))

        def forward():
            return float((heads.mlm_logits(Tensor(x)) ** 2).sum().data)

        t = Tensor(x, requires_grad=True)
        (heads.mlm_logits(t) ** 2).sum().backward()
        numeric = numerical_gradient(forward, x)
        assert np.abs(numeric - t.grad).max() < 1e-4

    def test_bert_nsp_logits_shape(self, rng):
        heads = BertPretrainingHeads(self._config(), rng)
        pooled = Tensor(rng.normal(size=(4, 8)))
        assert heads.nsp_logits(pooled).shape == (4, 2)

    def test_roberta_head_drops_nsp(self, rng):
        head = RobertaPretrainingHead(self._config("roberta"), rng)
        assert head.mlm_logits(Tensor(rng.normal(size=(1, 3, 8)))) \
            .shape == (1, 3, 30)
        with pytest.raises(RuntimeError):
            head.nsp_logits(Tensor(rng.normal(size=(1, 8))))
