"""Relations among nested-series values and their numeric verification.

A :class:`Relation` packages an integer combination of index words together
with the product of values it came from.  Two flavors exist:

* product identities (``kind`` in ``PRODUCT_KINDS``): the combination expands
  the product of the factor values, so numerically
  ``prod(factors) - combination`` should vanish;
* zero sums (``kind`` in ``ZERO_SUM_KINDS``): the combination itself should
  vanish, e.g. the difference of the two expansions of one product.

Numeric evaluation uses plain truncation of the defining nested sums with an
explicit tail estimate; see :func:`mpl_numeric`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

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


def double_shuffle_relations(weight: int, depth: int, order: int = 1) -> list[Relation]:
    """One relation per unordered pair of admissible words of combined
    weight ``weight`` and combined depth <= ``depth``: the closed-form
    product expansion minus the merge-product expansion.  Pairs whose two
    expansions coincide are dropped.
    """
    if weight < 2:
        return []
    by_weight = {w: admissible_words(w, depth, order) for w in range(1, weight)}
    out = []
    for wa in range(1, weight // 2 + 1):
        wb = weight - wa
        words_a = by_weight[wa]
        words_b = by_weight[wb]
        for ia, mu in enumerate(words_a):
            start = ia if wa == wb else 0
            for nu in words_b[start:]:
                if mu.depth + nu.depth > depth:
                    continue
                diff = explicit_product_e(mu, nu) - quasi_shuffle(mu, nu)
                if diff:
                    out.append(Relation("double-shuffle", (mu, nu), diff))
    return out


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


def _mark_powers(mark: GroupElement, n_terms: int) -> np.ndarray:
    """The vector (z^1, ..., z^N) for z = exp(2 pi i num/den)."""
    if mark.den == 1:
        return np.ones(n_terms, dtype=np.complex128)
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    if mark.den == 2:
        out = np.where(n % 2 == 0, 1.0, -1.0).astype(np.complex128)
        return out
    angles = (mark.num * n) % mark.den
    return np.exp(2j * np.pi * angles / mark.den)


@lru_cache(maxsize=4096)
def mpl_numeric(word: IndexedWord, n_terms: int,
                allow_conditional: bool = False) -> NumericValue:
    """Truncation of  sum_{N >= n1 > ... > nk >= 1} prod z_i^{n_i} / n_i^{s_i}.

    Computed by carrying cumulative inner sums outward, O(N * depth)
    arithmetic.  The default mode requires the leading exponent to be >= 2
    (absolutely convergent); a leading exponent 1 with a non-identity mark is
    only summed when ``allow_conditional`` is set, and then without a tail
    guarantee.  The empty word evaluates to 1 exactly.
    """
    if word.depth == 0:
        return NumericValue(1.0 + 0j, n_terms, 0.0)
    if not word.is_admissible:
        raise DomainError(f"{word} is not admissible")
    if n_terms < 1:
        raise ValueError("need at least one term")
    s1, _ = word.pairs[0]
    if s1 == 1 and not allow_conditional:
        raise DomainError(f"{word} converges only conditionally")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    acc: np.ndarray | None = None
    for s_i, mark in reversed(word.pairs):
        base = _mark_powers(mark, n_terms) / n ** s_i
        if acc is None:
            term = base
        else:
            shifted = np.empty_like(acc)
            shifted[0] = 0
            shifted[1:] = acc[:-1]
            term = base * shifted
        acc = np.cumsum(term)
    if s1 >= 2:
        tail = (math.log(n_terms + 1) ** (word.depth - 1)
                * n_terms ** (1 - s1) / (s1 - 1))
    else:
        tail = 0.0
    return NumericValue(complex(acc[-1]), n_terms, tail)


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
    ``tol + sum |coeff| * tail_estimate`` over the combination words.
    """
    total = 0.0 + 0j
    bound = tol
    for word, c in rel.combination.items():
        val = mpl_numeric(word, n_terms, allow_conditional)
        total += c * val.value
        bound += abs(c) * val.tail_estimate
    if rel.is_zero_sum:
        lhs = 0.0 + 0j
    else:
        lhs = 1.0 + 0j
        for factor in rel.factors:
            lhs *= mpl_numeric(factor, n_terms, allow_conditional).value
    residual = abs(lhs - total)
    return VerificationReport(residual=residual, bound=bound,
                              passed=residual <= bound, truncation_n=n_terms)
