"""Bounded memos for tokenization work.

Entity-matching workloads re-serialize the same records over and over:
each record participates in many candidate pairs, and every
``match_many`` / ``encode_dataset`` call would otherwise re-run the
subword tokenizer from scratch.  :class:`TokenizationCache` is the one
tokenization memo: text -> token ids behind a bounded LRU
(hit/miss/eviction counters in the :mod:`repro.obs` metrics registry),
plus a bounded word -> pieces map.

Every :class:`~repro.tokenizers.SubwordTokenizer` builds its own memo
at construction (``SubwordTokenizer.memo``) and always uses it: token
ids are only meaningful relative to one vocabulary, so sharing entries
across tokenizers would corrupt encodings.  Pairs are assembled from
the two memoized id lists; a repeated pair is answered one level up,
by the serving backends' outcome memo (an :class:`LRUCache` too).

This module imports only :mod:`repro.utils` (and, lazily,
:mod:`repro.obs`), so the tokenizers can import it without a cycle.

Both classes are thread-safe: ``repro.serve`` encodes requests
from batcher workers while producers may be warming the same tokenizer,
and an unlocked ``OrderedDict.move_to_end`` during a concurrent ``put``
corrupts the recency list.
"""

from __future__ import annotations

from collections import OrderedDict

from ..utils.concurrency import access, make_rlock

__all__ = ["LRUCache", "TokenizationCache"]


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry."""

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = make_rlock("LRUCache._lock")
        self._entries: OrderedDict = OrderedDict()  # guard: _lock
        self.hits = 0        # guard: _lock
        self.misses = 0      # guard: _lock
        self.evictions = 0   # guard: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key, default=None):
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            access(self, "_entries")
            try:
                value = self._entries[key]
            except KeyError:
                access(self, "misses")
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            access(self, "hits")
            self.hits += 1
            return value

    def put(self, key, value) -> bool:
        """Insert/refresh ``key``; True if an older entry was evicted."""
        with self._lock:
            access(self, "_entries")
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                access(self, "evictions")
                self.evictions += 1
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            access(self, "_entries")
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        # Under the (reentrant) lock: hits and misses move together,
        # and an unlocked pair read can see a torn ratio mid-update.
        with self._lock:
            access(self, "hits", write=False)
            access(self, "misses", write=False)
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


#: Bound of a memo's word -> pieces map.
_MAX_WORDS = 65536


class TokenizationCache:
    """One tokenizer's memo: text -> token ids and word -> pieces.

    The text map is an :class:`LRUCache` keyed on the text itself (a
    str caches its hash, so a lookup hashes each new text once).  Values
    are stored as immutable tuples and handed out as fresh lists, so
    callers (pair truncation mutates its id lists) can never corrupt an
    entry.  Counter updates go to ``repro.obs``'s default registry under
    ``perf.token_cache.*`` unless another registry is passed.

    The word map backs :meth:`word`: entity records repeat words heavily
    (venues, brands, model names), so per-word segmentation redoes the
    same greedy match even when the whole text misses.  It is dropped
    wholesale once it holds ``_MAX_WORDS`` entries, so adversarial text
    cannot balloon it.  It takes no lock: pieces are a pure function of
    the word, so a race between threads can only compute an entry twice
    or drop the map early, never hand out wrong pieces.
    """

    def __init__(self, maxsize: int = 4096, registry=None):
        if registry is None:
            from ..obs import default_registry
            registry = default_registry()
        self._lru = LRUCache(maxsize)
        self._words: dict[str, list[str]] = {}
        self._hits = registry.counter("perf.token_cache.hits")
        self._misses = registry.counter("perf.token_cache.misses")
        self._evictions = registry.counter("perf.token_cache.evictions")

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    def lookup(self, text: str, compute) -> list[int]:
        """Return memoized ids for ``text``, calling ``compute(text)`` on
        a miss."""
        cached = self._lru.get(text)
        if cached is not None:
            self._hits.inc()
            return list(cached)
        self._misses.inc()
        ids = compute(text)
        if self._lru.put(text, tuple(ids)):
            self._evictions.inc()
        return list(ids)

    def word(self, word: str, compute) -> list[str]:
        """Return memoized pieces for ``word``, calling ``compute(word)``
        on a miss.  Callers only read the returned list."""
        pieces = self._words.get(word)
        if pieces is None:
            if len(self._words) >= _MAX_WORDS:
                self._words.clear()
            pieces = compute(word)
            self._words[word] = pieces
        return pieces

    def clear(self) -> None:
        """Forget every text, so the next :meth:`lookup` of any text
        misses.  The word map is kept: pieces are a pure function of the
        vocabulary, never stale, and an entity-matching stream meets new
        records far more often than new words.  Counters keep their
        totals."""
        self._lru.clear()
