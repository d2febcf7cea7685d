"""Blocking: scalable candidate-pair generation for entity matching.

The paper's benchmark datasets ship *pre-blocked* — someone already ran a
cheap filter over the |A| x |B| cross product to produce a candidate set
the matcher classifies.  This module provides that missing stage so the
library works on raw record collections too, at catalog scale:

* :class:`Blocker` — the protocol every blocker implements: streaming,
  batched candidate emission (:meth:`Blocker.iter_candidates`, one
  :class:`CandidateBatch` of int64 index columns at a time) in both
  A x B *linkage* mode and single-collection *self-join* (dedup) mode,
  so 100k+ records never materialize the cross product;
* :class:`TokenBlocker` — inverted-index blocking on shared tokens, with
  a document-frequency cut so stop-word-like tokens do not explode the
  candidate set;
* :class:`SortedNeighborhoodBlocker` — the classic sliding-window method
  over a sort key (Hernandez & Stolfo, 1995);
* :class:`TfIdfBlocker` — sparse cosine similarity over token TF-IDF
  vectors with a top-k neighbor cut, accumulated through an inverted
  index (never a dense similarity matrix);
* :class:`MinHashLSHBlocker` — seeded shingling, ``n`` MinHash
  permutations, banded locality-sensitive hashing with a tunable
  ``(bands, rows)`` collision curve (Broder 1997; Leskovec et al.,
  *Mining of Massive Datasets* ch. 3);
* :func:`evaluate_blocking` — pairs-completeness / reduction-ratio, the
  standard blocking quality measures (Christen 2012).

Determinism contract: every blocker is a pure function of its
parameters, its seed (where applicable) and the record *contents* —
two runs over the same input produce identical candidate lists, and the
candidate *set* of :class:`TokenBlocker` / :class:`TfIdfBlocker` /
:class:`MinHashLSHBlocker` is invariant under permutation of the input
records (up to index relabeling).  :class:`SortedNeighborhoodBlocker`
is the documented exception: equal sort keys are windowed in input
order, so its candidate set can differ across permutations.
"""

from __future__ import annotations

import hashlib
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from math import log
from typing import Iterable, Iterator

import numpy as np

from ..obs.tracing import trace
from .records import Record

__all__ = ["CandidatePair", "CandidateBatch", "Blocker", "TokenBlocker",
           "SortedNeighborhoodBlocker", "TfIdfBlocker",
           "MinHashLSHBlocker", "BlockingQuality", "evaluate_blocking"]


@dataclass(frozen=True)
class CandidatePair:
    """Indices of a candidate pair.

    In linkage mode ``index_a`` points into collection A and
    ``index_b`` into collection B; in self-join (dedup) mode both point
    into the single collection and ``index_a < index_b``.
    """

    index_a: int
    index_b: int


@dataclass(frozen=True, eq=False)
class CandidateBatch:
    """One emitted batch of candidate pairs as two int64 index columns.

    ``index_a[k], index_b[k]`` is the batch's ``k``-th pair, with the
    index semantics of :class:`CandidatePair`.  Column consumers (the
    dedupe pipeline, ``repro bench blocking``) read the arrays; per-pair
    consumers iterate the batch, which yields :class:`CandidatePair`
    objects in order.
    """

    index_a: np.ndarray
    index_b: np.ndarray

    def __len__(self) -> int:
        return len(self.index_a)

    def __iter__(self) -> Iterator[CandidatePair]:
        return map(CandidatePair, self.index_a.tolist(),
                   self.index_b.tolist())


_WORD = re.compile(r"[a-z0-9]+")
#: Signature value of a record without shingles (the identity of min).
_EMPTY = np.iinfo(np.uint64).max
#: Records shingled and signed per step of
#: :meth:`MinHashLSHBlocker.signatures`: the per-gram arrays and the
#: permutation minima never hold more than one chunk's worth.
_SHINGLE_CHUNK = 4096
#: Bits per character of a packed character gram.  Normalized text is
#: ASCII, so grams of up to ``_PACKED_MAX`` characters pack into 56
#: bits of an int64, with the gram's length as a tag above them.
_CHAR_BITS = 7
_PACKED_MAX = 8
#: Odd multiplier folding a band's hash rows into one uint64 sort key.
_FOLD = np.uint64(0x9E3779B97F4A7C15)


def _blob(record, attributes: list[str] | None) -> str:
    """Serialized text of a record; tolerates plain mappings too."""
    if isinstance(record, Record):
        return record.text_blob(attributes)
    attrs = attributes if attributes is not None else list(record)
    return " ".join(v for v in (record.get(a, "") for a in attrs) if v)


class Blocker:
    """Candidate-generation protocol shared by every blocker.

    Subclasses implement :meth:`_iter_pairs`, a generator over
    ``(index_a, index_b)`` tuples for either *linkage* (two collections)
    or *self-join* (``records_b is None``; emits ``index_a < index_b``
    within the one collection), or override :meth:`_iter_columns` to
    emit int64 index columns directly.  The public surface is uniform:

    * :meth:`iter_candidates` — streaming emission in bounded batches
      (:class:`CandidateBatch`), the form the dedupe pipeline consumes:
      at no point does a blocker (or its caller) hold the |A| x |B|
      cross product;
    * :meth:`candidates` — the convenience list form for small inputs
      and the evaluation helpers.
    """

    def _iter_pairs(self, records_a: list, records_b: list | None
                    ) -> Iterator[tuple[int, int]]:
        raise NotImplementedError

    def _iter_columns(self, records_a: list, records_b: list | None,
                      batch_size: int
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Candidates as ``(index_a, index_b)`` int64 column runs of any
        length, in emission order; the default packs :meth:`_iter_pairs`
        ``batch_size`` pairs at a time."""
        pairs = self._iter_pairs(records_a, records_b)
        while chunk := list(islice(pairs, batch_size)):
            left, right = np.array(chunk, dtype=np.int64).T.copy()
            yield left, right

    def iter_candidates(self, records_a: Iterable,
                        records_b: Iterable | None = None,
                        batch_size: int = 2048
                        ) -> Iterator[CandidateBatch]:
        """Yield candidate pairs in batches of exactly ``batch_size``
        (the last one may be shorter).

        ``records_b=None`` selects self-join (dedup) mode.  Streaming:
        memory tracks the index structures and one run of emitted
        columns, never the cross product.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        records_a = list(records_a)
        records_b = None if records_b is None else list(records_b)
        held_a: list[np.ndarray] = []
        held_b: list[np.ndarray] = []
        held = 0
        for left, right in self._iter_columns(records_a, records_b,
                                               batch_size):
            held_a.append(left)
            held_b.append(right)
            held += len(left)
            if held < batch_size:
                continue
            left, right = np.concatenate(held_a), np.concatenate(held_b)
            cut = held - held % batch_size
            for lo in range(0, cut, batch_size):
                yield CandidateBatch(left[lo: lo + batch_size],
                                     right[lo: lo + batch_size])
            held_a, held_b, held = [left[cut:]], [right[cut:]], held - cut
        if held:
            yield CandidateBatch(np.concatenate(held_a),
                                 np.concatenate(held_b))

    def candidates(self, records_a: Iterable,
                   records_b: Iterable | None = None) -> list[CandidatePair]:
        """All candidate pairs as one list (linkage or self-join)."""
        return [pair
                for batch in self.iter_candidates(records_a, records_b)
                for pair in batch]


class TokenBlocker(Blocker):
    """Inverted-index blocking: records sharing >= ``min_shared`` tokens
    (after a document-frequency cut) become candidates.

    Parameters
    ----------
    attributes:
        Attributes whose values are tokenized into blocking keys; None
        uses every attribute.
    max_token_frequency:
        Tokens appearing in more than this fraction of records on either
        side are ignored (they would pair everything with everything).
    min_shared:
        Minimum number of shared surviving tokens for a candidate.
    """

    def __init__(self, attributes: list[str] | None = None,
                 max_token_frequency: float = 0.2,
                 min_shared: int = 1):
        if not 0.0 < max_token_frequency <= 1.0:
            raise ValueError("max_token_frequency must be in (0, 1]")
        if min_shared < 1:
            raise ValueError("min_shared must be >= 1")
        self.attributes = attributes
        self.max_token_frequency = max_token_frequency
        self.min_shared = min_shared

    def _tokens(self, record) -> set[str]:
        return set(_blob(record, self.attributes).lower().split())

    def _iter_pairs(self, records_a, records_b
                    ) -> Iterator[tuple[int, int]]:
        if records_b is None:
            yield from self._iter_self(records_a)
            return
        sets_a = [self._tokens(r) for r in records_a]
        sets_b = [self._tokens(r) for r in records_b]
        postings: dict[str, list[int]] = defaultdict(list)
        for j, tokens in enumerate(sets_b):
            for token in tokens:
                postings[token].append(j)
        limit_a = self.max_token_frequency * max(len(records_a), 1)
        limit_b = self.max_token_frequency * max(len(records_b), 1)
        frequency_a: dict[str, int] = defaultdict(int)
        for tokens in sets_a:
            for token in tokens:
                frequency_a[token] += 1
        for i, tokens in enumerate(sets_a):
            shared: dict[int, int] = defaultdict(int)
            for token in tokens:
                if frequency_a[token] > limit_a:
                    continue
                hits = postings.get(token, ())
                if len(hits) > limit_b:
                    continue
                for j in hits:
                    shared[j] += 1
            for j in sorted(shared):
                if shared[j] >= self.min_shared:
                    yield i, j

    def _iter_self(self, records) -> Iterator[tuple[int, int]]:
        sets = [self._tokens(r) for r in records]
        postings: dict[str, list[int]] = defaultdict(list)
        for i, tokens in enumerate(sets):
            for token in tokens:
                postings[token].append(i)
        limit = self.max_token_frequency * max(len(records), 1)
        for i, tokens in enumerate(sets):
            shared: dict[int, int] = defaultdict(int)
            for token in tokens:
                hits = postings[token]
                if len(hits) > limit:
                    continue
                for j in hits:
                    if j > i:
                        shared[j] += 1
            for j in sorted(shared):
                if shared[j] >= self.min_shared:
                    yield i, j


class SortedNeighborhoodBlocker(Blocker):
    """Sort both collections by a key, slide a window over the merge.

    Records whose keys land within ``window`` positions of each other in
    the merged ordering become candidates.  A record missing the
    ``key_attribute`` sorts under the empty key (it is never an error:
    real catalogs have holes).
    """

    def __init__(self, key_attribute: str, window: int = 5,
                 key_length: int = 8):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.key_attribute = key_attribute
        self.window = window
        self.key_length = key_length

    def _key(self, record) -> str:
        try:
            value = record[self.key_attribute]
        except KeyError:  # plain mappings without the attribute
            value = ""
        return (value or "").lower()[: self.key_length]

    def _iter_pairs(self, records_a, records_b
                    ) -> Iterator[tuple[int, int]]:
        if records_b is None:
            ordered = sorted(range(len(records_a)),
                             key=lambda i: self._key(records_a[i]))
            seen: set[tuple[int, int]] = set()
            for position, index in enumerate(ordered):
                lo = max(0, position - self.window)
                for other in ordered[lo:position]:
                    pair = (min(index, other), max(index, other))
                    if pair not in seen:
                        seen.add(pair)
                        yield pair
            return
        merged = ([(self._key(r), 0, i) for i, r in enumerate(records_a)]
                  + [(self._key(r), 1, j) for j, r in enumerate(records_b)])
        merged.sort(key=lambda item: item[0])
        seen = set()
        for position, (_, source, index) in enumerate(merged):
            lo = max(0, position - self.window)
            for _, other_source, other_index in merged[lo:position]:
                if source == other_source:
                    continue
                pair = ((index, other_index) if source == 0
                        else (other_index, index))
                if pair not in seen:
                    seen.add(pair)
                    yield pair


class TfIdfBlocker(Blocker):
    """Sparse cosine blocking over token TF-IDF vectors with a top-k cut.

    Each record becomes an L2-normalized TF-IDF vector over its
    alphanumeric tokens; similarities are accumulated through an
    inverted index (only records sharing at least one token are ever
    scored), and each record keeps its ``top_k`` most similar
    neighbors at or above ``threshold``.  Ties at the k-th score are
    all kept, which makes the candidate *set* invariant under record
    permutation.

    Parameters
    ----------
    attributes:
        Attributes to tokenize (None = all).
    top_k:
        Neighbors kept per record (ties at the cut included).
    threshold:
        Minimum cosine similarity for a candidate.
    """

    #: Relative tolerance when comparing scores at the top-k boundary —
    #: float accumulation order varies with input order, so an exact
    #: comparison would break permutation invariance on ties.
    _TIE_EPS = 1e-9

    def __init__(self, attributes: list[str] | None = None,
                 top_k: int = 10, threshold: float = 0.1):
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.attributes = attributes
        self.top_k = top_k
        self.threshold = threshold

    def _counts(self, record) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for token in _WORD.findall(_blob(record, self.attributes).lower()):
            counts[token] += 1
        return counts

    @staticmethod
    def _vectors(counts: list[dict[str, int]]) -> list[dict[str, float]]:
        """L2-normalized TF-IDF vectors with a smoothed idf."""
        df: dict[str, int] = defaultdict(int)
        for record_counts in counts:
            for token in record_counts:
                df[token] += 1
        n = len(counts)
        idf = {token: log((1.0 + n) / (1.0 + freq)) + 1.0
               for token, freq in df.items()}
        vectors: list[dict[str, float]] = []
        for record_counts in counts:
            weights = {token: tf * idf[token]
                       for token, tf in record_counts.items()}
            norm = sum(w * w for w in weights.values()) ** 0.5
            if norm > 0.0:
                weights = {t: w / norm for t, w in weights.items()}
            vectors.append(weights)
        return vectors

    def _top(self, scores: dict[int, float]) -> list[int]:
        """Indices surviving the top-k-with-ties cut, ascending."""
        kept = [(j, s) for j, s in scores.items() if s >= self.threshold]
        if not kept:
            return []
        if len(kept) > self.top_k:
            ranked = sorted(s for _, s in kept)
            floor = ranked[-self.top_k] - self._TIE_EPS
            kept = [(j, s) for j, s in kept if s >= floor]
        return sorted(j for j, _ in kept)

    def _iter_pairs(self, records_a, records_b
                    ) -> Iterator[tuple[int, int]]:
        self_join = records_b is None
        corpus = records_a if self_join else records_b
        counts_b = [self._counts(r) for r in corpus]
        vectors_b = self._vectors(counts_b)
        postings: dict[str, list[tuple[int, float]]] = defaultdict(list)
        for j, vector in enumerate(vectors_b):
            for token, weight in vector.items():
                postings[token].append((j, weight))
        if self_join:
            vectors_a = vectors_b
        else:
            vectors_a = self._vectors([self._counts(r) for r in records_a])
        seen: set[tuple[int, int]] = set()
        for i, vector in enumerate(vectors_a):
            scores: dict[int, float] = defaultdict(float)
            for token, weight in vector.items():
                for j, weight_b in postings.get(token, ()):
                    if not self_join or j != i:
                        scores[j] += weight * weight_b
            for j in self._top(scores):
                if not self_join:
                    yield i, j
                    continue
                pair = (min(i, j), max(i, j))
                if pair not in seen:
                    seen.add(pair)
                    yield pair


class MinHashLSHBlocker(Blocker):
    """Banded MinHash locality-sensitive hashing over seeded shingles.

    Every record is shingled (character ``shingle_size``-grams of its
    normalized text by default, or token n-grams with
    ``shingle_mode="token"``), each shingle is hashed with a stable
    64-bit digest, and ``num_permutations`` seeded universal hashes
    produce the MinHash signature.  Signatures are cut into
    ``num_permutations / band_size`` bands of ``band_size`` rows; two
    records become a candidate when any band collides exactly.  The
    collision probability for Jaccard similarity ``s`` follows the
    classic S-curve ``1 - (1 - s^rows)^bands``
    (:meth:`collision_probability`), so ``(bands, rows)`` tunes the
    recall/candidate-volume trade-off analytically.

    Records with no shingles (all-empty text) are never emitted as
    candidates — an empty record matches nothing, it does not match
    every other empty record.

    Parameters
    ----------
    num_permutations:
        Signature length; must divide evenly into bands.
    band_size:
        Rows per band (``r`` in the LSH literature).
    seed:
        Seeds the permutation family; same seed, same candidates.
    shingle_size:
        Character n-gram length (or token n-gram length in token mode).
    shingle_mode:
        ``"char"`` (default) or ``"token"``.
    attributes:
        Attributes to shingle (None = all).
    max_bucket_size:
        Band buckets larger than this are skipped instead of emitting
        a quadratic pair blowup (the standard LSH mega-bucket guard).
    """

    def __init__(self, num_permutations: int = 128, band_size: int = 4,
                 seed: int = 0, shingle_size: int = 3,
                 shingle_mode: str = "char",
                 attributes: list[str] | None = None,
                 max_bucket_size: int = 500):
        if num_permutations < 1 or band_size < 1:
            raise ValueError("num_permutations and band_size must be >= 1")
        if num_permutations % band_size:
            raise ValueError(
                f"band_size {band_size} must divide num_permutations "
                f"{num_permutations}")
        if shingle_mode not in ("char", "token"):
            raise ValueError(f"unknown shingle_mode {shingle_mode!r}")
        if shingle_size < 1:
            raise ValueError("shingle_size must be >= 1")
        if max_bucket_size < 2:
            raise ValueError("max_bucket_size must be >= 2")
        self.num_permutations = num_permutations
        self.band_size = band_size
        self.num_bands = num_permutations // band_size
        self.seed = seed
        self.shingle_size = shingle_size
        self.shingle_mode = shingle_mode
        self.attributes = attributes
        self.max_bucket_size = max_bucket_size
        rng = np.random.default_rng(seed)
        # Multiply-add universal hashing on the uint64 ring; odd
        # multipliers keep the map a bijection.
        self._mult = (rng.integers(1, 2 ** 63, size=num_permutations,
                                   dtype=np.uint64) * np.uint64(2)
                      + np.uint64(1))
        self._add = rng.integers(0, 2 ** 63, size=num_permutations,
                                 dtype=np.uint64)

    # -- shingling -----------------------------------------------------------

    def _text(self, record) -> str:
        """Normalized text: the lower-cased ``[a-z0-9]+`` words."""
        return " ".join(_WORD.findall(_blob(record,
                                            self.attributes).lower()))

    def _grams(self, record) -> list[str]:
        """Shingle strings of one record (empty for all-empty text)."""
        text = self._text(record)
        if not text:
            return []
        size = self.shingle_size
        if self.shingle_mode == "token":
            tokens = text.split()
            if len(tokens) < size:
                return [" ".join(tokens)]
            return [" ".join(tokens[k: k + size])
                    for k in range(len(tokens) - size + 1)]
        if len(text) < size:
            return [text]
        return [text[k: k + size] for k in range(len(text) - size + 1)]

    def shingles(self, record) -> set[int]:
        """Stable 64-bit shingle hashes of one record."""
        return {_digest(gram.encode("utf-8"))
                for gram in self._grams(record)}

    def _packed_shingles(self, records: list, vocab: _PackedVocabulary
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Character grams of a chunk as int64 codes, deduplicated by
        numpy sorts.

        Every gram of the chunk is packed from one ASCII buffer of the
        normalized texts, ``_CHAR_BITS`` per character, left-aligned.
        A text shorter than ``shingle_size`` is its own single gram: it
        is zero-filled past its end, so it packs to one code whatever
        text follows it, and tagged with its length, so it never shares
        a code with a full gram.  Returns the rows (of the chunk) with
        grams, the start of each row's segment, and the digests of each
        row's distinct grams, segment by segment (order within a
        segment is irrelevant to min).
        """
        size = self.shingle_size
        texts = [self._text(record) for record in records]
        raw = "".join(texts).encode("ascii")
        lengths = np.fromiter(map(len, texts), dtype=np.int64,
                              count=len(texts))
        counts = np.where(lengths >= size, lengths - size + 1,
                          np.minimum(lengths, 1))
        owner, offset = _runs(np.cumsum(lengths) - lengths, counts)
        width = np.minimum(lengths, size)[owner]
        buffer = np.frombuffer(raw + bytes(size), dtype=np.uint8)
        codes = width << (_CHAR_BITS * size)
        for k in range(size):
            char = buffer[offset + k].astype(np.int64)
            char[width <= k] = 0
            codes |= char << (_CHAR_BITS * (size - 1 - k))
        order = np.argsort(codes)
        ordered = codes[order]
        head = _heads(ordered)
        distinct, where = ordered[head], order[head]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(head) - 1
        at, span = offset[where].tolist(), width[where].tolist()
        digests = vocab.digests(distinct,
                                lambda k: raw[at[k]: at[k] + span[k]])
        # One key per (row, distinct gram): sorting dedupes each row.
        stride = max(len(distinct), 1)
        keys = np.sort(owner * stride + inverse)
        keys = keys[_heads(keys)]
        rows = keys // stride
        starts = np.flatnonzero(_heads(rows))
        return rows[starts], starts, digests[keys % stride]

    def _listed_shingles(self, records: list, vocab: dict[str, int]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Token grams (and character grams too long to pack), one
        Python set per record; ``vocab`` maps each gram to its digest."""
        rows: list[int] = []
        counts: list[int] = []
        flat = array("Q")
        for i, record in enumerate(records):
            grams = set(self._grams(record))
            if not grams:
                continue
            for gram in grams.difference(vocab):
                vocab[gram] = _digest(gram.encode("utf-8"))
            rows.append(i)
            counts.append(len(grams))
            flat.extend(map(vocab.__getitem__, grams))
        starts = np.cumsum([0] + counts[:-1])
        return (np.array(rows, dtype=np.int64), starts,
                np.array(flat, dtype=np.uint64))

    # -- signatures ----------------------------------------------------------

    def signatures(self, records: Iterable) -> np.ndarray:
        """MinHash signature matrix, shape (n_records, num_permutations).

        Records are shingled and signed ``_SHINGLE_CHUNK`` at a time;
        each distinct shingle of the whole collection is hashed once (a
        vocabulary shared across chunks).  Rows for empty-shingle
        records are all ``uint64`` max (the identity of ``min``);
        :meth:`_iter_columns` excludes them from banding.  The matrix
        is stored permutation-major (this is a transposed view), so a
        band's rows are contiguous.
        """
        records = list(records)
        signature = np.full((self.num_permutations, len(records)),
                            _EMPTY, dtype=np.uint64)
        packed = (self.shingle_mode == "char"
                  and self.shingle_size <= _PACKED_MAX)
        vocab = _PackedVocabulary() if packed else {}
        shingle = self._packed_shingles if packed else self._listed_shingles
        for lo in range(0, len(records), _SHINGLE_CHUNK):
            chunk = records[lo: lo + _SHINGLE_CHUNK]
            with trace("blocking.shingle", records=len(chunk)):
                rows, starts, hashes = shingle(chunk, vocab)
            if not len(rows):
                continue
            with trace("blocking.signature", records=len(rows)):
                minima = np.empty((self.num_permutations, len(rows)),
                                  dtype=np.uint64)
                hashed = np.empty_like(hashes)
                for p in range(self.num_permutations):
                    np.multiply(hashes, self._mult[p], out=hashed)
                    np.add(hashed, self._add[p], out=hashed)
                    np.minimum.reduceat(hashed, starts, out=minima[p])
                signature[:, lo + rows] = minima
        return signature.T

    @staticmethod
    def estimate_jaccard(signature_a: np.ndarray,
                         signature_b: np.ndarray) -> float:
        """Fraction of agreeing signature components (MinHash estimate)."""
        return float(np.mean(signature_a == signature_b))

    # -- the (b, r) collision curve ------------------------------------------

    def collision_probability(self, jaccard: float) -> float:
        """P(candidate) for a pair at the given Jaccard similarity."""
        if not 0.0 <= jaccard <= 1.0:
            raise ValueError(f"jaccard must be in [0, 1], got {jaccard}")
        return 1.0 - (1.0 - jaccard ** self.band_size) ** self.num_bands

    def jaccard_at(self, probability: float) -> float:
        """Jaccard similarity where the collision curve crosses
        ``probability`` (the inverse of :meth:`collision_probability`)."""
        if not 0.0 < probability < 1.0:
            raise ValueError(
                f"probability must be in (0, 1), got {probability}")
        inner = 1.0 - (1.0 - probability) ** (1.0 / self.num_bands)
        return inner ** (1.0 / self.band_size)

    # -- banding -------------------------------------------------------------

    def _iter_columns(self, records_a, records_b, batch_size
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Candidate columns band by band, in a fixed order.

        Within a band, self-join emits buckets by first appearance and,
        per bucket, every ``(members[a], members[b])`` with ``a < b``
        over the ascending members; linkage emits, per A row ascending,
        the B members of its bucket ascending.  A pair already emitted
        by an earlier band is skipped.  Each band's pairs are computed
        (inside its ``blocking.band`` span) before any is yielded.
        """
        del batch_size  # whole bands; iter_candidates cuts the batches
        self_join = records_b is None
        sig_a = self.signatures(records_a).T
        sig_b = sig_a if self_join else self.signatures(records_b).T
        rows_a = np.flatnonzero(~np.all(sig_a == _EMPTY, axis=0))
        rows_b = (rows_a if self_join
                  else np.flatnonzero(~np.all(sig_b == _EMPTY, axis=0)))
        width_b = sig_b.shape[1]
        seen = np.empty(0, dtype=np.int64)
        for band in range(self.num_bands):
            lo = band * self.band_size
            hashes = slice(lo, lo + self.band_size)
            with trace("blocking.band", band=band):
                if self_join:
                    left, right = self._self_band(sig_a[hashes, rows_a],
                                                  rows_a)
                else:
                    left, right = self._link_band(sig_a[hashes, rows_a],
                                                  rows_a,
                                                  sig_b[hashes, rows_b],
                                                  rows_b)
                keys = left * width_b + right
                fresh = ~_contains(seen, keys)
                left, right = left[fresh], right[fresh]
                seen = _merge(seen, keys[fresh])
            yield left, right

    def _self_band(self, band: np.ndarray, rows: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Pairs within each band bucket of 2..max_bucket_size rows."""
        grouped, sizes, _ = _buckets(band)
        members = rows[grouped]
        ends = np.repeat(np.cumsum(sizes), sizes)
        kept = np.repeat((sizes >= 2) & (sizes <= self.max_bucket_size),
                         sizes)
        positions = np.arange(len(members))
        partners = np.where(kept, ends - positions - 1, 0)
        owner, partner = _runs(positions + 1, partners)
        return members[owner], members[partner]

    def _link_band(self, band_a: np.ndarray, rows_a: np.ndarray,
                   band_b: np.ndarray, rows_b: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """A rows against the B members of their bucket, the bucket
        size counted on B's side alone."""
        grouped, sizes, buckets = _buckets(
            np.concatenate([band_b, band_a], axis=1))
        buckets_a = buckets[len(rows_b):]
        sizes_b = np.bincount(buckets[:len(rows_b)], minlength=len(sizes))
        members_b = rows_b[grouped[grouped < len(rows_b)]]
        starts_b = np.cumsum(sizes_b) - sizes_b
        partners = sizes_b[buckets_a]
        partners[partners > self.max_bucket_size] = 0
        owner, partner = _runs(starts_b[buckets_a], partners)
        return rows_a[owner], members_b[partner]


def _digest(gram: bytes) -> int:
    """Stable 64-bit digest of a gram's UTF-8 bytes (unlike ``hash()``,
    which is salted per process)."""
    raw = hashlib.blake2b(gram, digest_size=8)
    return int.from_bytes(raw.digest(), "little")


class _PackedVocabulary:
    """Packed gram codes seen so far (sorted) and their digests."""

    def __init__(self):
        self._codes = np.empty(0, dtype=np.int64)
        self._digests = np.empty(0, dtype=np.uint64)

    def digests(self, codes: np.ndarray, gram) -> np.ndarray:
        """Digests of the sorted distinct ``codes``.  ``gram(k)`` returns
        the bytes of ``codes[k]``; it is called (and hashed) only for
        codes no earlier chunk has seen."""
        fresh = np.flatnonzero(~_contains(self._codes, codes))
        if len(fresh):
            hashed = np.fromiter((_digest(gram(k)) for k in fresh.tolist()),
                                 dtype=np.uint64, count=len(fresh))
            at = np.searchsorted(self._codes, codes[fresh])
            self._codes = np.insert(self._codes, at, codes[fresh])
            self._digests = np.insert(self._digests, at, hashed)
        return self._digests[np.searchsorted(self._codes, codes)]


def _heads(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values."""
    head = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return head


def _buckets(band: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the records (columns) of one band by equal band values.

    Returns the record positions grouped by bucket (buckets in order of
    their first record, records ascending within a bucket), each
    bucket's size in that order, and the bucket number of every record.
    The band's rows are folded into one uint64 key and sorted; if equal
    keys hold distinct band values (a fold collision), the band is
    sorted again by ``lexsort`` over its rows.
    """
    count = band.shape[1]
    if not count:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    key = band[0].copy()
    for row in band[1:]:
        key = key * _FOLD + row
    order = np.argsort(key)
    head = _heads(key[order])
    later = order[~head]
    previous = order[np.flatnonzero(~head) - 1]
    if np.any(band[:, later] != band[:, previous]):
        order = np.lexsort(band)
        ordered = band[:, order]
        head = np.ones(count, dtype=bool)
        np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=head[1:])
    starts = np.flatnonzero(head)
    first = np.minimum.reduceat(order, starts)
    sizes = np.diff(starts, append=count)
    # Sorting by (first record of the bucket, record) orders buckets by
    # first appearance and members ascending.
    ranked = np.sort(np.repeat(first, sizes) * count + order)
    grouped = ranked % count
    sizes = np.diff(np.flatnonzero(_heads(ranked // count)), append=count)
    buckets = np.empty(count, dtype=np.int64)
    buckets[grouped] = np.repeat(np.arange(len(sizes)), sizes)
    return grouped, sizes, buckets


def _runs(starts: np.ndarray, lengths: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ranges ``starts[k] .. starts[k] + lengths[k] - 1``,
    each element paired with the ``k`` it came from."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    offsets = np.arange(len(owner)) - np.repeat(
        np.cumsum(lengths) - lengths, lengths)
    return owner, starts[owner] + offsets


def _contains(seen: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in the sorted array ``seen``."""
    at = np.searchsorted(seen, keys)
    found = at < len(seen)
    found[found] = seen[at[found]] == keys[found]
    return found


def _merge(seen: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Sorted union of ``seen`` and the (new, distinct) ``keys``."""
    keys = np.sort(keys)
    return np.insert(seen, np.searchsorted(seen, keys), keys)


@dataclass
class BlockingQuality:
    """Standard blocking metrics."""

    pairs_completeness: float   # recall of true matches in candidates
    reduction_ratio: float      # 1 - |candidates| / |cross product|
    num_candidates: int

    def __str__(self) -> str:
        return (f"PC {self.pairs_completeness:.2f}, "
                f"RR {self.reduction_ratio:.2f}, "
                f"{self.num_candidates} candidates")


def evaluate_blocking(candidates: Iterable[CandidatePair],
                      true_matches: set[tuple[int, int]],
                      size_a: int,
                      size_b: int | None = None) -> BlockingQuality:
    """Pairs-completeness and reduction ratio of a candidate set.

    ``size_b=None`` evaluates a self-join candidate set over ``size_a``
    records (cross product ``size_a * (size_a - 1) / 2``).  An empty
    cross product has, by definition, nothing left to prune: the
    reduction ratio is 1.0.  Both metrics are clamped to [0, 1] so
    adversarial inputs (duplicated candidates, inconsistent sizes)
    cannot push them out of range.
    """
    candidate_set = {(c.index_a, c.index_b) for c in candidates}
    found = len(candidate_set & true_matches)
    completeness = found / len(true_matches) if true_matches else 1.0
    cross = (size_a * size_b if size_b is not None
             else size_a * (size_a - 1) // 2)
    reduction = 1.0 - len(candidate_set) / cross if cross else 1.0
    return BlockingQuality(
        pairs_completeness=min(max(completeness, 0.0), 1.0),
        reduction_ratio=min(max(reduction, 0.0), 1.0),
        num_candidates=len(candidate_set),
    )
