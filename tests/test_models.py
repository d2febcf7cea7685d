"""The four architectures: configs, shapes, masking, match features,
permutation LM machinery, classification heads."""

import numpy as np
import pytest

from repro.models import (ARCHITECTURES, BertModel, DistilBertModel,
                          RobertaModel, SequenceClassifier,
                          TransformerConfig, XLNetModel, build_backbone,
                          build_pretraining_head, default_config,
                          permutation_masks, sinusoidal_positions)
from repro.models.transformer import (cross_match_features,
                                      lexical_match_scores,
                                      match_bias_inputs)
from repro.nn import Tensor, cross_entropy, no_grad


def _tiny(arch, **kw):
    defaults = dict(vocab_size=60, d_model=32, num_layers=2, num_heads=2,
                    max_position=32)
    defaults.update(kw)
    return default_config(arch, **defaults)


class TestConfig:
    def test_all_architectures_buildable(self, rng):
        for arch in ARCHITECTURES:
            backbone = build_backbone(_tiny(arch), rng)
            assert backbone.num_parameters() > 0

    def test_distilbert_halves_layers(self):
        config = _tiny("distilbert", num_layers=4)
        assert config.num_layers == 2
        assert config.type_vocab_size == 1

    def test_xlnet_three_segments(self):
        assert _tiny("xlnet").type_vocab_size == 3

    def test_invalid_arch_raises(self):
        with pytest.raises(ValueError):
            TransformerConfig(arch="gpt")

    def test_dmodel_divisible_by_heads(self):
        with pytest.raises(ValueError):
            TransformerConfig(d_model=30, num_heads=4)

    def test_dict_roundtrip(self):
        config = _tiny("bert")
        clone = TransformerConfig.from_dict(config.to_dict())
        assert clone == config

    def test_wrong_arch_class_pairing_raises(self, rng):
        with pytest.raises(ValueError):
            RobertaModel(_tiny("bert"), rng)
        with pytest.raises(ValueError):
            DistilBertModel(_tiny("bert"), rng)
        with pytest.raises(ValueError):
            XLNetModel(_tiny("bert"), rng)


class TestSinusoidal:
    def test_shape_and_range(self):
        table = sinusoidal_positions(10, 16)
        assert table.shape == (10, 16)
        assert np.abs(table).max() <= 1.0

    def test_first_row_alternates(self):
        table = sinusoidal_positions(4, 8)
        assert np.allclose(table[0, 0::2], 0.0)
        assert np.allclose(table[0, 1::2], 1.0)


class TestForwardShapes:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_hidden_shape(self, rng, arch):
        backbone = build_backbone(_tiny(arch), rng)
        ids = rng.integers(5, 60, size=(2, 12))
        segments = np.zeros((2, 12), dtype=int)
        segments[:, 6:] = 1
        hidden = backbone(ids, segment_ids=segments,
                          pad_mask=np.zeros((2, 12), bool))
        assert hidden.shape == (2, 12, 32)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_backward_reaches_embeddings(self, rng, arch):
        backbone = build_backbone(_tiny(arch), rng)
        ids = rng.integers(5, 60, size=(2, 8))
        hidden = backbone(ids, segment_ids=np.zeros((2, 8), int))
        (hidden ** 2).sum().backward()
        token_param = (backbone.embeddings.token.weight
                       if hasattr(backbone, "embeddings")
                       else backbone.token.weight)
        assert token_param.grad is not None

    def test_sequence_too_long_raises(self, rng):
        backbone = build_backbone(_tiny("bert"), rng)
        with pytest.raises(ValueError):
            backbone(rng.integers(5, 60, size=(1, 40)))

    def test_padding_does_not_leak(self, rng):
        config = _tiny("bert", dropout=0.0)
        backbone = build_backbone(config, rng)
        backbone.eval()
        ids = rng.integers(5, 60, size=(1, 8))
        pad = np.zeros((1, 8), bool)
        pad[0, -2:] = True
        with no_grad():
            base = backbone(ids, pad_mask=pad).numpy()
            ids2 = ids.copy()
            ids2[0, -2:] = 7  # change padded content
            changed = backbone(ids2, pad_mask=pad).numpy()
        assert np.allclose(base[0, :6], changed[0, :6], atol=1e-4)


class TestMatchFeatures:
    def test_lexical_match_scores_diagonal_zero(self, rng):
        table = rng.normal(size=(20, 8)).astype(np.float32)
        ids = rng.integers(2, 20, size=(1, 6))
        scores = lexical_match_scores(table, ids, {0})
        assert np.allclose(np.diagonal(scores[0]), 0.0)

    def test_lexical_match_same_token_is_one(self, rng):
        table = rng.normal(size=(20, 8)).astype(np.float32)
        ids = np.array([[5, 7, 5, 9]])
        scores = lexical_match_scores(table, ids, set())
        assert abs(scores[0, 0, 2] - 1.0) < 1e-5

    def test_special_rows_zeroed(self, rng):
        table = rng.normal(size=(20, 8)).astype(np.float32)
        ids = np.array([[0, 5, 5, 9]])
        scores = lexical_match_scores(table, ids, {0})
        assert np.allclose(scores[0, 0, :], 0.0)
        assert np.allclose(scores[0, :, 0], 0.0)

    def test_cross_match_exact_channel(self, rng):
        table = rng.normal(size=(20, 8)).astype(np.float32)
        ids = np.array([[5, 6, 5, 9]])
        segments = np.array([[0, 0, 1, 1]])
        feats = cross_match_features(table, ids, segments, set())
        assert feats.shape == (1, 4, 4)
        assert feats[0, 0, 0] == 1.0   # token 5 appears in segment B
        assert feats[0, 1, 0] == 0.0   # token 6 does not
        assert feats[0, 2, 0] == 1.0   # symmetric

    def test_cross_match_bigram_channel(self, rng):
        table = rng.normal(size=(20, 8)).astype(np.float32)
        ids = np.array([[5, 6, 9, 5, 6, 8]])
        segments = np.array([[0, 0, 0, 1, 1, 1]])
        feats = cross_match_features(table, ids, segments, set())
        assert feats[0, 0, 1] == 1.0   # (5,6) bigram repeats cross-segment
        assert feats[0, 2, 1] == 0.0   # (9,...) does not

    def test_cross_match_specials_zero(self, rng):
        table = rng.normal(size=(20, 8)).astype(np.float32)
        ids = np.array([[0, 5, 5, 9]])
        segments = np.array([[0, 0, 1, 1]])
        feats = cross_match_features(table, ids, segments, {0})
        assert np.allclose(feats[0, 0], 0.0)

    def test_match_bias_inputs_equal_separate_computations(self, rng):
        table = rng.normal(size=(20, 8)).astype(np.float32)
        ids = rng.integers(0, 20, size=(3, 6))
        segments = np.array([[0, 0, 0, 1, 1, 1]] * 3)
        features, scores = match_bias_inputs(table, ids, segments, {0})
        assert np.array_equal(
            features, cross_match_features(table, ids, segments, {0}))
        assert np.array_equal(scores, lexical_match_scores(table, ids, {0}))
        features, scores = match_bias_inputs(table, ids, None, {0})
        assert features is None
        assert np.array_equal(scores, lexical_match_scores(table, ids, {0}))

    def test_match_bias_off_uses_no_extra_params(self, rng):
        config_on = _tiny("bert")
        config_off = _tiny("bert")
        config_off.match_bias = False
        n_on = build_backbone(config_on, rng).num_parameters()
        n_off = build_backbone(config_off, rng).num_parameters()
        assert n_on > n_off


class TestXLNet:
    def test_permutation_masks_semantics(self):
        content, query = permutation_masks(np.array([2, 0, 1]))
        # Position 2 is first in the order: sees nothing but itself.
        assert content[2].tolist() == [True, True, False]
        assert query[2].tolist() == [True, True, True]
        # Position 1 is last: content sees everything.
        assert content[1].tolist() == [False, False, False]
        # Query stream never sees the position itself.
        assert all(query[i, i] for i in range(3))

    def test_two_stream_shapes_and_grads(self, rng):
        backbone = build_backbone(_tiny("xlnet"), rng)
        ids = rng.integers(5, 60, size=(2, 10))
        order = np.random.default_rng(1).permutation(10)
        g = backbone.forward_permutation(ids, order)
        assert g.shape == (2, 10, 32)
        (g ** 2).sum().backward()
        assert backbone.query_seed.grad is not None

    def test_query_stream_blind_to_own_token(self, rng):
        config = _tiny("xlnet", dropout=0.0)
        backbone = build_backbone(config, rng)
        backbone.eval()
        # match bias would leak token identity into g via the bias matrix;
        # the permutation path must therefore be evaluated without it —
        # forward_permutation does not use match features at all.
        ids = rng.integers(5, 60, size=(1, 6))
        order = np.arange(6)  # left-to-right factorization
        with no_grad():
            g1 = backbone.forward_permutation(ids, order).numpy()
            ids2 = ids.copy()
            ids2[0, 5] = (ids2[0, 5] + 1) % 55 + 5
            g2 = backbone.forward_permutation(ids2, order).numpy()
        # position 5 predicts itself: its g must not depend on token 5
        assert np.allclose(g1[0, 5], g2[0, 5], atol=1e-4)

    def test_cls_at_end_pooling(self, rng):
        backbone = build_backbone(_tiny("xlnet"), rng)
        ids = rng.integers(5, 60, size=(2, 8))
        hidden = backbone(ids, segment_ids=np.zeros((2, 8), int))
        pooled = backbone.pooled_output(hidden, cls_index=7)
        assert pooled.shape == (2, 32)


class TestHeads:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_classifier_trains_one_step(self, rng, arch):
        config = _tiny(arch)
        classifier = SequenceClassifier(build_backbone(config, rng),
                                        config, rng)
        ids = rng.integers(5, 60, size=(4, 10))
        logits = classifier(ids, segment_ids=np.zeros((4, 10), int),
                            pad_mask=np.zeros((4, 10), bool))
        assert logits.shape == (4, 2)
        cross_entropy(logits, np.array([0, 1, 0, 1])).backward()
        assert classifier.output_layer.weight.grad is not None

    def test_predict_proba_sums_to_one(self, rng):
        config = _tiny("bert")
        classifier = SequenceClassifier(build_backbone(config, rng),
                                        config, rng)
        classifier.eval()
        probs = classifier.predict_proba(rng.integers(5, 60, size=(3, 8)))
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-5)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_predict_proba_rejects_negative_ids(self, rng, arch):
        # Inference runs the same forward as training, embedding range
        # check included: id -1 must raise, not wrap to the last row.
        config = _tiny(arch)
        classifier = SequenceClassifier(build_backbone(config, rng),
                                        config, rng)
        classifier.eval()
        ids = rng.integers(5, 60, size=(2, 8))
        ids[0, 3] = -1
        with no_grad(), pytest.raises(IndexError):
            classifier.predict_proba(ids, segment_ids=np.zeros_like(ids),
                                     pad_mask=np.zeros(ids.shape, bool))

    def test_pretraining_heads(self, rng):
        for arch in ARCHITECTURES:
            config = _tiny(arch)
            head = build_pretraining_head(config, rng)
            hidden = Tensor(rng.normal(size=(2, 6, 32)).astype(np.float32))
            logits = head.mlm_logits(hidden)
            assert logits.shape == (2, 6, 60)

    def test_nsp_head_only_bert(self, rng):
        bert_head = build_pretraining_head(_tiny("bert"), rng)
        pooled = Tensor(rng.normal(size=(2, 32)).astype(np.float32))
        assert bert_head.nsp_logits(pooled).shape == (2, 2)
        roberta_head = build_pretraining_head(_tiny("roberta"), rng)
        with pytest.raises(RuntimeError):
            roberta_head.nsp_logits(pooled)


class TestBackboneParity:
    def test_roberta_is_bert_architecture(self, rng):
        bert = BertModel(_tiny("bert"), rng)
        roberta = RobertaModel(_tiny("roberta"), rng)
        bert_names = {name.split(".", 1)[-1]
                      for name, _ in bert.named_parameters()}
        roberta_names = {name.split(".", 1)[-1]
                         for name, _ in roberta.named_parameters()}
        assert bert_names == roberta_names

    def test_distilbert_smaller_than_bert(self, rng):
        bert = build_backbone(_tiny("bert", num_layers=4), rng)
        distil = build_backbone(_tiny("distilbert", num_layers=4), rng)
        assert distil.num_parameters() < bert.num_parameters()

    def test_distilbert_has_no_pooler(self, rng):
        distil = build_backbone(_tiny("distilbert"), rng)
        assert distil.pooler is None
