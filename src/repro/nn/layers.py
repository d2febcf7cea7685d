"""Core neural network layers built on the autodiff tensor."""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "PlainLinear", "Embedding", "LayerNorm", "Dropout",
           "Sequential", "GELU", "ReLU", "Tanh"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` on the last axis.

    Weights are stored as (out_features, in_features), matching the usual
    transformer checkpoint convention.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True,
                 std: float = 0.02):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.normal(rng, (out_features, in_features),
                                            std=std))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return x.linear(self.weight, self.bias)


class PlainLinear(Linear):
    """A :class:`Linear` kept outside the kernel dispatch.

    Its forward is plain ``@`` / ``+`` tape ops instead of
    :meth:`Tensor.linear`, so the int8 overlay, activation recording and
    kernel counts never see it.  Used for the layers that stay float:
    the classifier head, the poolers and the match projections.
    """

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator, std: float = 0.02):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal(rng, (num_embeddings, embedding_dim),
                                            std=std))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding id out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}")
        return self.weight.embedding(ids)


class LayerNorm(Module):
    """Layer normalization over the trailing feature axis."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        return x.layer_norm(self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        return x.dropout(self.p, self.rng)


class Sequential(Module):
    """Run submodules in order, feeding each the previous output."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items = list(modules)
        for i, module in enumerate(modules):
            self._modules[str(i)] = module

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()
