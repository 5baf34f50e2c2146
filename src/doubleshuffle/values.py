"""Relations among nested-series values and their numeric verification.

A :class:`Relation` packages an integer combination of index words together
with the product of values it came from.  Two flavors exist:

* product identities (``kind`` in ``PRODUCT_KINDS``): the combination expands
  the product of the factor values, so numerically
  ``prod(factors) - combination`` should vanish;
* zero sums (``kind`` in ``ZERO_SUM_KINDS``): the combination itself should
  vanish, e.g. the difference of the two expansions of one product.

Numeric evaluation uses plain truncation of the defining nested sums with an
explicit tail estimate; see :func:`mpl_numeric`.  The words a relation needs
are summed together over one trie of their shared suffixes, sweeping n in
fixed chunks of ``CHUNK``, so memory is O(CHUNK * nodes) whatever the
truncation N.  Suffixes whose marks are all +-1 have real sums, and two of
one length are carried as the halves of one complex row, so one ``cumsum``
adds both.  Every value equals the one summed word by word over all N, bit
for bit.

Only these sums need numpy, which :func:`_numpy` imports on the first one,
so the exact-algebra commands start without it.  The package hands out the
numeric functions after loading numpy, so ``from doubleshuffle import
mpl_numeric`` pays for numpy at the import and not inside the first sum.
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import product as iter_product
from typing import Iterator

from .core import (MINUS_ONE, ONE, DomainError, GroupElement, IndexedWord,
                   LinComb, binomial, group_elements)
from .explicit import enum_compositions, explicit_product_e
from .maps import theta
from .recursive import quasi_shuffle

ZERO_SUM_KINDS = frozenset({"double-shuffle", "hoffman"})
PRODUCT_KINDS = frozenset({"euler", "product"})


@dataclass(frozen=True)
class Relation:
    """An identity among values: which words were multiplied, which products
    were taken (the ``kind``), and the resulting integer combination."""

    kind: str
    factors: tuple[IndexedWord, ...]
    combination: LinComb

    def __post_init__(self) -> None:
        if self.kind not in ZERO_SUM_KINDS | PRODUCT_KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")

    @property
    def is_zero_sum(self) -> bool:
        return self.kind in ZERO_SUM_KINDS

    @property
    def label(self) -> str:
        inside = " , ".join(str(w) for w in self.factors)
        return f"{self.kind}[{inside}]"


@dataclass(frozen=True)
class NumericValue:
    """A truncated nested sum: its value, the cutoff, and a tail estimate."""

    value: complex
    truncation_n: int
    tail_estimate: float


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    bound: float
    passed: bool
    truncation_n: int


# ---------------------------------------------------------------------------
# Symbolic relation generators


def euler_relation(r: int, s: int) -> Relation:
    """The classical two-term decomposition of a product of depth-1 values:

        zeta(r) zeta(s) = sum_k C(r+k-1, k) zeta(r+k, s-k)
                        + sum_k C(s+k-1, k) zeta(s+k, r-k)

    This is the marked decomposition of :func:`_depth_1_1_marked` at the
    identity mark, where every quotient of marks collapses to the identity;
    it must coincide with the closed-form expansion of the depth-1 product
    (the tests enforce this).
    """
    if r < 2 or s < 2:
        raise DomainError("both exponents must be >= 2")
    return replace(_depth_1_1_marked(r, s, ONE), kind="euler")


def indexed_words(weight: int, depth: int, order: int = 1) -> list[IndexedWord]:
    """All index words of the exact weight and depth over the cyclic group."""
    marks = group_elements(order)
    out = []
    for comp in enum_compositions(weight, depth):
        for ms in iter_product(marks, repeat=depth):
            out.append(IndexedWord(tuple(zip(comp, ms))))
    return out


def admissible_words(weight: int, max_depth: int, order: int = 1) -> list[IndexedWord]:
    """Admissible words of the given weight with depth <= max_depth,
    enumerated by depth, then exponents, then marks."""
    out = []
    for d in range(1, min(weight, max_depth) + 1):
        out.extend(w for w in indexed_words(weight, d, order) if w.is_admissible)
    return out


def relation_stream(weight: int, depth: int, order: int = 1,
                    hoffman: bool = False) -> Iterator[Relation]:
    """Yield each relation as soon as it is computed: first one per
    unordered pair of admissible words of combined weight ``weight`` and
    combined depth <= ``depth``, the closed-form product expansion minus the
    merge-product expansion (pairs whose two expansions coincide are
    dropped); then, with ``hoffman``, every nonzero
    :func:`hoffman_difference` of an admissible word of weight ``weight - 1``
    and depth < ``depth`` (depth 1 when ``depth`` is 1).
    """
    by_weight = {w: admissible_words(w, depth, order) for w in range(1, weight)}
    for wa in range(1, weight // 2 + 1):
        wb = weight - wa
        words_a = by_weight[wa]
        words_b = by_weight[wb]
        for ia, mu in enumerate(words_a):
            start = ia if wa == wb else 0
            # the lists are ordered by depth, so mu's partners are a prefix
            stop = bisect_right(words_b, depth - len(mu), key=len)
            for nu in words_b[start:stop]:
                diff = explicit_product_e(mu, nu) - quasi_shuffle(mu, nu)
                if diff:
                    yield Relation("double-shuffle", (mu, nu), diff)
    if hoffman:
        for nu in admissible_words(weight - 1, max(depth - 1, 1), order):
            rel = hoffman_difference(nu)
            if rel.combination:
                yield rel


def double_shuffle_relations(weight: int, depth: int, order: int = 1) -> list[Relation]:
    """The double-shuffle relations of :func:`relation_stream`, as a list."""
    return list(relation_stream(weight, depth, order))


def hoffman_difference(nu: IndexedWord) -> Relation:
    """The difference of the two expansions of (1) * nu.

    The weight-one word itself diverges, but the difference of its two
    product expansions with an admissible word only involves admissible
    words; the classical instance is nu = (2), which recovers
    zeta(2,1) = zeta(3).
    """
    if not nu.is_admissible:
        raise DomainError(f"{nu} is not admissible")
    one = IndexedWord(((1, ONE),))
    diff = explicit_product_e(one, nu) - quasi_shuffle(one, nu)
    return Relation("hoffman", (one, nu), diff)


def worked_examples() -> dict[str, Relation]:
    """The three classical product families instantiated at small indices.

    Each combination is transcribed from the displayed closed formulas (not
    computed through the expansion code), so comparing them against
    ``explicit_product_e`` is a genuine cross-check.
    """
    return {
        "zeta-1x2": _zeta_product(_depth_1_2_terms, (2,), (2, 1)),
        "zeta-2x2": _zeta_product(_depth_2_2_terms, (2, 1), (2, 1)),
        "alternating-1x1": _depth_1_1_marked(2, 2, MINUS_ONE),
    }


def _zeta_product(expand, r: tuple[int, ...], s: tuple[int, ...]) -> Relation:
    """zeta(r) zeta(s) = sum c * zeta(t) over the ``(t, c)`` of ``expand(r, s)``."""
    return Relation("product",
                    (IndexedWord.from_parts(r), IndexedWord.from_parts(s)),
                    LinComb((IndexedWord.from_parts(t), c)
                            for t, c in expand(r, s) if c))


def _depth_1_2_terms(r: tuple[int], s: tuple[int, int]):
    """Terms of zeta(r1) zeta(s1, s2) expanded; r1, s1 >= 2."""
    (r1,), (s1, s2) = r, s
    for t1 in range(2, r1 + s1):
        t2 = r1 + s1 - t1
        if t2 < 1:
            continue
        yield (t1, t2, s2), binomial(t1 - 1, r1 - 1)
    total = r1 + s1 + s2
    for t1 in range(2, total - 1):
        for t2 in range(1, total - t1):
            t3 = total - t1 - t2
            c = binomial(t1 - 1, s1 - 1) * (binomial(t2 - 1, s2 - t3)
                                            + binomial(t2 - 1, s2 - 1))
            yield (t1, t2, t3), c


def _depth_2_2_terms(r: tuple[int, int], s: tuple[int, int]):
    """Terms of zeta(r1, r2) zeta(s1, s2) expanded; r1, s1 >= 2."""
    r1, r2 = r
    s1, s2 = s
    for tail, w1, w2 in ((s2, r1, r2), (r2, s1, s2)):
        total = r1 + r2 + s1 + s2 - tail
        for t1 in range(2, total - 1):
            for t2 in range(1, total - t1):
                t3 = total - t1 - t2
                c = binomial(t1 - 1, w1 - 1) * binomial(t2 - 1, w2 - 1)
                yield (t1, t2, t3, tail), c
    total = r1 + r2 + s1 + s2
    for t1 in range(2, total - 2):
        for t2 in range(1, total - t1 - 1):
            for t3 in range(1, total - t1 - t2):
                t4 = total - t1 - t2 - t3
                mid = binomial(t2 - 1, t1 + t2 - r1 - s1)
                c = (binomial(t1 - 1, r1 - 1) * mid
                     * (binomial(t3 - 1, s2 - t4) + binomial(t3 - 1, s2 - 1))
                     + binomial(t1 - 1, s1 - 1) * mid
                     * (binomial(t3 - 1, r2 - t4) + binomial(t3 - 1, r2 - 1)))
                yield (t1, t2, t3, t4), c


def _depth_1_1_marked(r1: int, s1: int, w1: GroupElement,
                      z1: GroupElement | None = None) -> Relation:
    """The marked generalization of the depth-1 decomposition."""
    z1 = w1 if z1 is None else z1
    return Relation("product",
                    (IndexedWord(((r1, w1),)), IndexedWord(((s1, z1),))),
                    LinComb((IndexedWord(((p + k, first), (q - k, second))),
                             binomial(p + k - 1, k))
                            for p, q, first, second in ((r1, s1, w1, z1 / w1),
                                                        (s1, r1, z1, w1 / z1))
                            for k in range(q)))


# ---------------------------------------------------------------------------
# Numeric evaluation


CHUNK = 2 ** 13
"""Values of n summed per step of :func:`_sweep`; an evaluation holds
O(CHUNK) numbers per trie node whatever the truncation N."""

_CACHE_SIZE = 4096
# (word, n_terms, allow_conditional) -> NumericValue, least recently used first.
_cache: dict[tuple[IndexedWord, int, bool], NumericValue] = {}
# mpl_numeric calls answered by _cache, and words summed by _sweep to fill it
_hits = 0
_misses = 0
# held wherever _cache, _hits or _misses change, never across a _sweep
_lock = threading.Lock()
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def mpl_numeric(word: IndexedWord, n_terms: int,
                allow_conditional: bool = False) -> NumericValue:
    """Truncation of  sum_{N >= n1 > ... > nk >= 1} prod z_i^{n_i} / n_i^{s_i}.

    Evaluated by :func:`_sweep` as a trie of one word, whose nodes are its
    suffixes: running inner sums are carried outward over fixed chunks of n,
    so memory is O(CHUNK * nodes) whatever N is.  The default mode requires
    the leading exponent to be >= 2 (absolutely convergent); a leading
    exponent 1 with a non-identity mark is only summed when
    ``allow_conditional`` is set, and then without a tail guarantee.  The
    empty word evaluates to 1 exactly.  Values are cached per
    ``(word, n_terms, allow_conditional)``; the 4096 most recently used are
    kept, and threads may share the cache.  ``mpl_numeric.cache_info()``
    counts as hits the calls the cache answers and as misses the words
    summed to fill it, here or in one sweep for a whole relation.
    """
    global _hits
    key = (word, n_terms, allow_conditional)
    with _lock:
        val = _cache.pop(key, None)
        if val is not None:
            _hits += 1
            _cache[key] = val
            return val
    error = _refusal(word, n_terms, allow_conditional)
    if error is not None:
        raise error
    return _fill([word], n_terms, allow_conditional)[0]


def _evaluate(word: IndexedWord, n_terms: int,
              allow_conditional: bool) -> NumericValue:
    """:func:`mpl_numeric` without the value cache."""
    error = _refusal(word, n_terms, allow_conditional)
    if error is not None:
        raise error
    return NumericValue(_sweep([word], n_terms)[0], n_terms,
                        _tail_estimate(word, n_terms))


# Only perfbench/selfcheck.py reads this: it swaps the uncached evaluation
# in for mpl_numeric, under the name functools gives it on a cached function.
mpl_numeric.__wrapped__ = _evaluate
mpl_numeric.cache_info = lambda: _CacheInfo(_hits, _misses, _CACHE_SIZE,
                                            len(_cache))


def _fill(words: list[IndexedWord], n_terms: int,
          allow_conditional: bool) -> list[NumericValue]:
    """Sum ``words``, distinct and none refused, in one sweep, count them as
    misses and cache their values as the most recently used, evicting the
    least; return the values."""
    global _misses
    vals = [NumericValue(value, n_terms, _tail_estimate(word, n_terms))
            for word, value in zip(words, _sweep(words, n_terms))]
    with _lock:
        _misses += len(words)
        for word, val in zip(words, vals):
            if len(_cache) >= _CACHE_SIZE:
                del _cache[next(iter(_cache))]
            _cache[word, n_terms, allow_conditional] = val
    return vals


def _prefill(words, n_terms: int, allow_conditional: bool) -> None:
    """Cache the values of ``words`` in one sweep, so that the
    :func:`mpl_numeric` calls that follow, in the same order, all hit.

    Summing stops at the first word :func:`mpl_numeric` refuses: the
    uncached words before it are cached, as the calls before the refusing
    one would cache them, and none after it are summed.  A cached word is
    only looked up, not made the most recently used, so a fill that
    evicts it leaves its call to sum it again.
    """
    missing: dict[IndexedWord, None] = {}
    with _lock:
        for word in words:
            if (word, n_terms, allow_conditional) in _cache:
                continue
            if _refusal(word, n_terms, allow_conditional) is not None:
                break
            missing[word] = None
    if missing:
        _fill(list(missing), n_terms, allow_conditional)


def _refusal(word: IndexedWord, n_terms: int,
             allow_conditional: bool) -> Exception | None:
    """The error :func:`mpl_numeric` refuses ``word`` with, if any."""
    if word.depth == 0:
        return None
    if not word.is_admissible:
        return DomainError(f"{word} is not admissible")
    if n_terms < 1:
        return ValueError("need at least one term")
    if word[0][0] == 1 and not allow_conditional:
        return DomainError(f"{word} converges only conditionally")
    return None


def _tail_estimate(word: IndexedWord, n_terms: int) -> float:
    """(log(N+1))^(depth-1) N^(1-s1) / (s1-1) for a leading exponent s1 >= 2,
    else 0."""
    if word.depth == 0 or word[0][0] < 2:
        return 0.0
    s1 = word[0][0]
    # Past s1 = 2048 the power is 1.0 at N = 1 and 0.0 beyond, and a divisor
    # past float range reads as the largest float: nothing overflows.
    return (math.log(n_terms + 1) ** (word.depth - 1)
            * n_terms ** (1 - min(s1, 2048)) / min(s1 - 1, sys.float_info.max))


def _numpy():
    """numpy, imported on first use: only nested sums need it."""
    import numpy
    return numpy


def _sweep(words: list[IndexedWord], n_terms: int) -> list[complex]:
    """The truncated nested sums of ``words`` in one pass over n = 1..N.

    The words' suffixes form a trie: node ``word[i:]`` has the inner child
    ``word[i+1:]``, so words sharing a suffix share its partial sums.  A
    node's running sum A(n) grows by its base z^n / n^s times the inner
    node's A(n-1).  Each chunk of n builds every distinct base once and then
    updates the nodes innermost first, one suffix length at a time.  Slot 0
    of a node's row carries A at the chunk boundary, so one ``cumsum`` over
    the row adds the terms in plain sequential order, and a chunked value
    equals the value summed over all N at once.  A node whose marks are all
    +-1 is real: two real nodes of one suffix length share a complex row,
    one in each half, and since a complex ``cumsum`` is two independent
    real ones, each half holds the bits its own float64 row would.  Any
    other node, and a real node left without a partner, has a row of its
    own.
    """
    index: dict[tuple, int] = {}
    nodes: list[tuple[int, GroupElement, int]] = []  # (s, mark, inner or -1)
    real: list[bool] = []
    levels: list[list[int]] = []  # nodes by suffix length - 1
    roots = []
    for word in words:
        inner = -1
        for i in range(word.depth - 1, -1, -1):
            node = index.get(word[i:])
            if node is None:
                s, mark = word[i]
                node = index[word[i:]] = len(nodes)
                nodes.append((s, mark, inner))
                real.append(mark.den <= 2 and (inner < 0 or real[inner]))
                if len(levels) < word.depth - i:
                    levels.append([])
                levels[word.depth - i - 1].append(node)
            inner = node
        roots.append(inner)
    if not nodes:
        return [1.0 + 0j] * len(words)
    np = _numpy()
    width = min(CHUNK, n_terms)
    sums: list[np.ndarray] = [None] * len(nodes)  # a node's A(start + j)
    rows: list[tuple[np.ndarray, list[int]]] = []  # (row, its nodes)
    for level in levels:
        reals = [v for v in level if real[v]]
        for v in level:
            if not real[v]:
                rows.append((np.zeros(width + 1, np.complex128), [v]))
        if len(reals) % 2:
            rows.append((np.zeros(width + 1, np.float64), [reals.pop()]))
        for a, b in zip(reals[::2], reals[1::2]):
            rows.append((np.zeros(width + 1, np.complex128), [a, b]))
    for row, members in rows:
        if len(members) == 1:
            sums[members[0]] = row
        else:
            sums[members[0]], sums[members[1]] = row.real, row.imag
    # (-1)^n from n = start + 1 on: start is a multiple of width, which is
    # even whenever there is more than one chunk
    signs = np.ones(width)
    signs[::2] = -1.0
    # n ** s overflows to inf past about 1e308, and 1 / inf is the right 0.0;
    # n ** 2048 already does so from n = 2, so larger exponents are clamped
    with np.errstate(over="ignore"):
        for start in range(0, n_terms, width):
            length = min(width, n_terms - start)
            n = np.arange(start + 1, start + length + 1,
                          dtype=np.int64).astype(np.float64)
            powers: dict[int, np.ndarray] = {}
            bases: dict[tuple[int, GroupElement], np.ndarray] = {}
            for row, members in rows:
                row[0] = row[width]
                for node in members:
                    s, mark, inner = nodes[node]
                    base = bases.get((s, mark))
                    if base is None:
                        if s not in powers:
                            powers[s] = n ** min(s, 2048)
                        if mark.den > 2:
                            phase, den = _phases(mark, start + 1, length)
                            base = np.exp(2j * np.pi * phase / den) / powers[s]
                        else:
                            # -1/x is -(1/x) exactly, so both signs share 1/n^s
                            base = bases.get((s, ONE))
                            if base is None:
                                base = bases[s, ONE] = 1.0 / powers[s]
                            if mark.den == 2:
                                base = signs[:length] * base
                        bases[s, mark] = base
                    out = sums[node][1:length + 1]
                    if inner < 0:
                        out[:] = base
                    else:
                        np.multiply(base, sums[inner][:length], out=out)
                np.cumsum(row[:length + 1], out=row[:length + 1])
    return [1.0 + 0j if r < 0 else complex(sums[r][length]) for r in roots]


def _phases(mark: GroupElement, first: int,
            length: int) -> tuple[np.ndarray, int | float]:
    """The exact residues (num * n) % den for n = first, ..., first+length-1,
    and den: their ratio is the mark's angle in turns.

    The first residue is taken in Python integers; the rest add num * j to
    it, which stays below den * length, so int64 serves whenever that
    product fits.  Otherwise they are Python integers, and they and den are
    divided by one power of two that brings den below 2**1000, as Python
    integers: that quotient rounds correctly and never overflows, and a
    power of two scales the ratio exactly (below 2**1000 it is 1).
    """
    np = _numpy()
    num, den = mark.num, mark.den
    p0 = num * first % den
    if den * length < 2 ** 63:
        return (p0 + num * np.arange(length, dtype=np.int64)) % den, den
    scale = 1 << max(den.bit_length() - 1000, 0)
    return (np.array([(p0 + num * j) % den / scale for j in range(length)]),
            den / scale)


def lambda_numeric(word: IndexedWord, n_terms: int,
                   allow_conditional: bool = False) -> NumericValue:
    """The same nested sum with the marks read in quotient coordinates,
    i.e. the value of the theta-transformed word."""
    return mpl_numeric(theta(word), n_terms, allow_conditional)


def verify_relation_numeric(rel: Relation, n_terms: int, tol: float,
                            allow_conditional: bool = False) -> VerificationReport:
    """Evaluate a relation by truncated sums.

    For product identities the residual is |prod(factors) - combination|;
    for zero sums it is |combination|.  The pass bound is
    ``tol + sum |coeff| * tail_estimate`` over the combination words.  The
    words not yet cached are first summed together in one sweep.
    """
    terms = rel.combination.items()
    factors = () if rel.is_zero_sum else rel.factors
    _prefill([word for word, _ in terms] + list(factors), n_terms,
             allow_conditional)
    total = 0.0 + 0j
    bound = tol
    for word, c in terms:
        val = mpl_numeric(word, n_terms, allow_conditional)
        try:
            total += c * val.value
        except OverflowError:  # the int does not fit a float
            raise ValueError(f"coefficient of {word} is too large to "
                             "sum numerically") from None
        bound += abs(c) * val.tail_estimate
    if rel.is_zero_sum:
        lhs = 0.0 + 0j
    else:
        lhs = 1.0 + 0j
        for factor in factors:
            lhs *= mpl_numeric(factor, n_terms, allow_conditional).value
    residual = abs(lhs - total)
    return VerificationReport(residual=residual, bound=bound,
                              passed=residual <= bound, truncation_n=n_terms)
