"""Task heads: the entity-matching sequence classifier of the paper.

"The classification layer is — in contrast to the rest of the model — not
pre-trained and contains a fully connected layer with 768 neurons plus two
output neurons" (§5.2.2).  Scaled to our d_model: pooled CLS state ->
dense(d_model) -> dropout -> dense(2)."""

from __future__ import annotations

import numpy as np

from ..nn import Dropout, Module, PlainLinear, Tensor, no_grad
from .config import TransformerConfig

__all__ = ["SequenceClassifier"]


class SequenceClassifier(Module):
    """Backbone + freshly initialized classification head.

    The backbone may be any of the four architectures; it must expose
    ``forward(input_ids, segment_ids, pad_mask) -> hidden`` and
    ``pooled_output(hidden, cls_index) -> Tensor``.
    """

    def __init__(self, backbone: Module, config: TransformerConfig,
                 rng: np.random.Generator, num_classes: int = 2):
        super().__init__()
        # The fresh head uses 1/sqrt(d) init rather than the backbone's
        # 0.02: at small d_model the BERT init shrinks the classification
        # signal (and its gradients into the backbone) by ~6x per layer,
        # which stalls fine-tuning for many epochs.
        std = 1.0 / np.sqrt(config.d_model)
        self.backbone = backbone
        self.config = config
        self.hidden_layer = PlainLinear(config.d_model, config.d_model, rng,
                                        std=std)
        self.dropout = Dropout(config.dropout, rng)
        self.output_layer = PlainLinear(config.d_model, num_classes, rng,
                                        std=std)

    def forward(self, input_ids: np.ndarray,
                segment_ids: np.ndarray | None = None,
                pad_mask: np.ndarray | None = None,
                cls_index: int = 0) -> Tensor:
        hidden = self.backbone(input_ids, segment_ids=segment_ids,
                               pad_mask=pad_mask)
        pooled = self.backbone.pooled_output(hidden, cls_index=cls_index)
        features = self.hidden_layer(pooled).tanh()
        return self.output_layer(self.dropout(features))

    @no_grad()
    def predict_proba(self, input_ids: np.ndarray,
                      segment_ids: np.ndarray | None = None,
                      pad_mask: np.ndarray | None = None,
                      cls_index: int = 0) -> np.ndarray:
        """Match probabilities, shape (B, num_classes)."""
        logits = self.forward(input_ids, segment_ids=segment_ids,
                              pad_mask=pad_mask, cls_index=cls_index)
        return logits.softmax(axis=-1).numpy()
