"""Performance subsystem: no-tape inference, bucketing, caching, bench.

Four layers, one goal — make the matching hot path as fast as the
hardware allows without changing a single logit:

* **Kernels** live in :mod:`repro.nn.fused`: they are the forward of the
  differentiable ops (``Tensor.linear`` / ``gelu`` / ``softmax`` /
  ``layer_norm`` / ``attention_core``), so inference is the one model
  forward under ``no_grad``, where ``Tensor._make`` skips the tape.
* **Length-bucketed batching** (:mod:`repro.perf.bucketing`): sort
  sequences by real token count, batch neighbors, trim right-padded
  batches to their own max length.
* **Tokenization caching** (:mod:`repro.perf.cache`): a bounded LRU over
  text -> token ids with hit/miss counters in :mod:`repro.obs`.
* **Benchmarking**: :mod:`repro.perf.harness` is the one bench harness
  — declarative gates, one report writer and schema check, and the
  paired A/B timer (median ratio with a bootstrap interval) — behind
  every ``repro bench`` suite; :mod:`repro.perf.bench` is the
  ``repro bench perf`` suite writing ``BENCH_perf.json``.  Neither is
  imported here: import them by module path.
"""

from .bucketing import is_left_padded, plan_buckets, real_lengths, trim_length
from .cache import LRUCache, TokenizationCache, ensure_token_cache

__all__ = [
    "LRUCache", "TokenizationCache", "ensure_token_cache",
    "plan_buckets", "real_lengths", "is_left_padded", "trim_length",
]
