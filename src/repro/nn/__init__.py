"""Minimal numpy-based deep learning substrate (autodiff, layers, optim).

This package replaces PyTorch for the reproduction: a reverse-mode
autodiff :class:`Tensor`, module system, the layers needed by transformer
encoders and RNN baselines, losses, and optimizers.
"""

from .attention import MultiHeadAttention, padding_attention_mask
from .init import DTYPE
from .layers import (Dropout, Embedding, GELU, LayerNorm, Linear,
                     PlainLinear, ReLU, Sequential, Tanh)
from .losses import (binary_cross_entropy_with_logits, cosine_embedding_loss,
                     cross_entropy, distillation_loss, mse_loss)
from .module import Module, ModuleList, Parameter
from .optim import (Adam, ConstantSchedule, LinearSchedule, SGD,
                    clip_grad_norm)
from .rnn import BiRNN, GRUCell, LSTMCell
from .serialization import (CheckpointError, apply_state_dict,
                            array_checksum, load_checkpoint, load_module,
                            save_checkpoint, save_module)
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "DTYPE",
    "Module", "ModuleList", "Parameter",
    "Linear", "PlainLinear", "Embedding", "LayerNorm", "Dropout", "Sequential",
    "GELU", "ReLU", "Tanh",
    "MultiHeadAttention", "padding_attention_mask",
    "GRUCell", "LSTMCell", "BiRNN",
    "cross_entropy", "binary_cross_entropy_with_logits",
    "distillation_loss", "cosine_embedding_loss", "mse_loss",
    "SGD", "Adam", "LinearSchedule", "ConstantSchedule", "clip_grad_norm",
    "save_checkpoint", "load_checkpoint", "save_module", "load_module",
    "CheckpointError", "apply_state_dict", "array_checksum",
]
