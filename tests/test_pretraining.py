"""Pre-training: corpus, objectives, trainer, distillation, model zoo."""

import numpy as np
import pytest

from repro.pretraining import (DistillationRecipe, IGNORE_INDEX,
                               PretrainRecipe, ZooSettings,
                               build_nsp_examples, clear_zoo, distill,
                               generate_corpus, generate_documents,
                               get_pretrained, mask_tokens, pretrain,
                               sample_permutation_batch)
from repro.pretraining.corpus import generate_labeled_documents
from repro.pretraining import model_zoo
from repro.pretraining.model_zoo import _train_tokenizer
from repro.models import default_config
from repro.utils import child_rng


class TestCorpus:
    def test_corpus_size_and_content(self, rng):
        corpus = generate_corpus(rng, 30)
        assert len(corpus) == 30
        assert all(isinstance(s, str) and s for s in corpus)

    def test_documents_are_multi_sentence(self, rng):
        docs = generate_documents(rng, 10)
        assert len(docs) == 10
        assert all(3 <= len(d) <= 7 for d in docs)

    def test_labeled_documents_have_known_domains(self, rng):
        labeled = generate_labeled_documents(rng, 40)
        domains = {d for d, _ in labeled}
        known = {"products", "music", "citation", "products-listing",
                 "music-listing", "citation-listing"}
        assert domains <= known
        assert len(domains) >= 3

    def test_document_sentences_share_entity_words(self, rng):
        labeled = generate_labeled_documents(rng, 30)
        overlaps = []
        for _, doc in labeled:
            a = set(doc[0].split())
            b = set(doc[1].split())
            overlaps.append(len(a & b) / max(min(len(a), len(b)), 1))
        assert np.mean(overlaps) > 0.3

    def test_deterministic(self):
        a = generate_corpus(child_rng(0, "c"), 15)
        b = generate_corpus(child_rng(0, "c"), 15)
        assert a == b


class TestMLM:
    def _vocab(self):
        return _train_tokenizer(
            "bert", ZooSettings(tokenizer_sentences=80, vocab_size=120),
            0).vocab

    def test_masking_statistics(self, rng):
        vocab = self._vocab()
        ids = rng.integers(5, len(vocab), size=(20, 30))
        batch = mask_tokens(ids, vocab, rng)
        changed = batch.targets != IGNORE_INDEX
        assert 0.05 < changed.mean() < 0.30
        # Most selected positions got the [MASK] token.
        masked = batch.input_ids == vocab.mask_id
        assert masked.sum() >= 0.5 * changed.sum()

    def test_targets_are_original_tokens(self, rng):
        vocab = self._vocab()
        ids = rng.integers(5, len(vocab), size=(4, 20))
        batch = mask_tokens(ids, vocab, rng)
        selected = batch.targets != IGNORE_INDEX
        assert np.all(batch.targets[selected] == ids[selected])

    def test_special_positions_never_masked(self, rng):
        vocab = self._vocab()
        ids = np.full((4, 10), vocab.cls_id)
        ids[:, 5:] = 7
        batch = mask_tokens(ids, vocab, rng)
        assert np.all(batch.targets[:, :5] == IGNORE_INDEX)

    def test_at_least_one_prediction_per_row(self, rng):
        vocab = self._vocab()
        ids = rng.integers(5, len(vocab), size=(50, 8))
        batch = mask_tokens(ids, vocab, rng, mask_probability=0.01)
        assert np.all((batch.targets != IGNORE_INDEX).any(axis=1))


class TestNSP:
    def test_mix_of_labels(self, rng):
        docs = generate_documents(rng, 20)
        examples = build_nsp_examples(docs, rng, 100)
        labels = [e.is_next for e in examples]
        assert 0.3 < np.mean(labels) < 0.7

    def test_coherent_fraction_one(self, rng):
        docs = generate_documents(rng, 10)
        examples = build_nsp_examples(docs, rng, 50, coherent_fraction=1.0)
        assert all(e.is_next == 1 for e in examples)

    def test_positive_pairs_are_consecutive(self, rng):
        docs = generate_documents(rng, 10)
        sentence_to_doc = {}
        for i, doc in enumerate(docs):
            for s in doc:
                sentence_to_doc.setdefault(s, i)
        for e in build_nsp_examples(docs, rng, 60):
            if e.is_next:
                assert sentence_to_doc.get(e.first) == \
                    sentence_to_doc.get(e.second)

    def test_hard_negatives_same_domain(self, rng):
        labeled = generate_labeled_documents(rng, 40)
        docs = [d for _, d in labeled]
        domains = [x for x, _ in labeled]
        sentence_domain = {}
        for (domain, doc) in labeled:
            for s in doc:
                sentence_domain.setdefault(s, domain)
        examples = build_nsp_examples(docs, rng, 80, domains=domains)
        for e in examples:
            if not e.is_next:
                assert sentence_domain[e.first] == sentence_domain[e.second]

    def test_requires_multi_sentence_document(self, rng):
        with pytest.raises(ValueError):
            build_nsp_examples([["only one"]], rng, 5)

    def test_domains_alignment_checked(self, rng):
        docs = generate_documents(rng, 5)
        with pytest.raises(ValueError):
            build_nsp_examples(docs, rng, 5, domains=["products"])


class TestPLM:
    def test_targets_subset_of_order_tail(self, rng):
        vocab = _train_tokenizer(
            "bert", ZooSettings(tokenizer_sentences=80, vocab_size=120),
            0).vocab
        ids = rng.integers(5, len(vocab), size=(4, 24))
        batch = sample_permutation_batch(ids, vocab, rng)
        predicted_positions = set(
            np.flatnonzero((batch.targets != IGNORE_INDEX).any(axis=0)))
        tail = set(batch.order[-max(len(predicted_positions), 1):]
                   .tolist()) | set(batch.order[-4:].tolist())
        assert predicted_positions <= set(batch.order.tolist())
        n_predict = max(int(round(24 / 6.0)), 1)
        assert predicted_positions <= set(batch.order[-n_predict:].tolist())

    def test_inputs_unchanged(self, rng):
        vocab = _train_tokenizer(
            "bert", ZooSettings(tokenizer_sentences=80, vocab_size=120),
            0).vocab
        ids = rng.integers(5, len(vocab), size=(2, 12))
        batch = sample_permutation_batch(ids, vocab, rng)
        assert np.array_equal(batch.input_ids, ids)


class TestTrainerAndZoo:
    def test_pretrain_reduces_loss(self, tiny_settings):
        tokenizer = _train_tokenizer("bert", tiny_settings, 0)
        config = default_config(
            "bert", vocab_size=len(tokenizer.vocab), d_model=32,
            num_layers=2, num_heads=2, max_position=64)
        recipe = PretrainRecipe(steps=40, num_examples=120,
                                num_documents=40, seq_len=32, use_nsp=True)
        result = pretrain(config, tokenizer, recipe,
                          child_rng(0, "test-pretrain"))
        early = np.mean(result.loss_history[:10])
        late = np.mean(result.loss_history[-10:])
        assert late < early

    def test_zoo_caches_checkpoints(self, tiny_bert, tiny_settings,
                                    tiny_zoo_dir):
        again = get_pretrained("bert", seed=0, settings=tiny_settings,
                               zoo_dir=tiny_zoo_dir)
        assert again.from_cache
        base = tiny_bert.backbone.state_dict()
        for name, value in again.backbone.state_dict().items():
            assert np.allclose(value, base[name])

    def test_zoo_architectures_differ(self, tiny_bert, tiny_roberta):
        assert tiny_bert.config.arch == "bert"
        assert tiny_roberta.config.arch == "roberta"
        assert type(tiny_bert.tokenizer) is not type(tiny_roberta.tokenizer)

    def test_distilbert_is_half_depth(self, tiny_bert, tiny_distilbert):
        assert (tiny_distilbert.config.num_layers
                == max(tiny_bert.config.num_layers // 2, 1))

    def test_xlnet_checkpoint(self, tiny_xlnet):
        assert tiny_xlnet.config.arch == "xlnet"
        assert tiny_xlnet.tokenizer.cls_at_end

    def test_zoo_key_follows_code_digest(self, tmp_path, tiny_settings,
                                         monkeypatch):
        first = get_pretrained("bert", seed=2, settings=tiny_settings,
                               zoo_dir=tmp_path)
        assert not first.from_cache
        stable = get_pretrained("bert", seed=2, settings=tiny_settings,
                                zoo_dir=tmp_path)
        assert stable.from_cache
        # Changed tokenizer/pre-training/model code: the old entry misses.
        monkeypatch.setattr(model_zoo, "_code_digest", lambda: "0" * 64)
        changed = get_pretrained("bert", seed=2, settings=tiny_settings,
                                 zoo_dir=tmp_path)
        assert not changed.from_cache
        assert len(list(tmp_path.glob("bert-*.tokenizer.json"))) == 2

    def test_clear_zoo(self, tmp_path, tiny_settings):
        get_pretrained("bert", seed=1, settings=tiny_settings,
                       zoo_dir=tmp_path)
        assert clear_zoo(tmp_path) >= 1
        assert not list(tmp_path.glob("*.npz"))

    def test_unknown_arch_raises(self, tiny_settings, tmp_path):
        with pytest.raises(ValueError):
            get_pretrained("gpt", settings=tiny_settings, zoo_dir=tmp_path)

    def test_distillation_runs(self, tiny_bert, tiny_settings):
        from repro.models import build_pretraining_head
        teacher_head = build_pretraining_head(tiny_bert.config,
                                              child_rng(0, "th"))
        student_config = default_config(
            "distilbert", vocab_size=len(tiny_bert.tokenizer.vocab),
            d_model=32, num_layers=2, num_heads=2, max_position=64)
        recipe = DistillationRecipe(steps=10, num_sentences=60, seq_len=32)
        result = distill(student_config, tiny_bert.backbone, teacher_head,
                         tiny_bert.tokenizer, recipe, child_rng(0, "d"))
        assert len(result.loss_history) > 0
        assert result.backbone.config.arch == "distilbert"
