"""Relations among nested-series values and their numeric verification.

A :class:`Relation` packages an integer combination of index words together
with the product of values it came from.  Two flavors exist:

* product identities (``kind`` in ``PRODUCT_KINDS``): the combination expands
  the product of the factor values, so numerically
  ``prod(factors) - combination`` should vanish;
* zero sums (``kind`` in ``ZERO_SUM_KINDS``): the combination itself should
  vanish, e.g. the difference of the two expansions of one product.

Numeric evaluation sums each value to about double precision by Hölder
convolution (Borwein, Bradley, Broadhurst and Lisoněk, Trans. AMS 353
(2001), section 7): the value's iterated integral is split into products of
power series whose terms shrink geometrically; see :func:`_sum`.  Each value
comes with a certified bound on its error, the tails left off its series
plus the float rounding, bounded a priori in the style of Higham, *Accuracy
and Stability of Numerical Algorithms*, chapters 3 and 4.  The standard
library is all it needs.

Work a stream repeats is done once: values are cached per word
(:func:`mpl_numeric`), and the tail bounds, pure functions of a term count,
a depth and a ratio or exponent, are memoised, so that the words of a
stream share the term-count searches of :func:`_least_terms` and the
per-level bounds of :func:`_chain`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice, product as iter_product
from operator import getitem, truediv

from .core import (MINUS_ONE, ONE, DomainError, GroupElement, IndexedWord,
                   LinComb, _unchecked_word, binomial, group_elements)
from .explicit import enum_compositions, explicit_product_e
from .maps import theta, theta_inv_marks
from .recursive import quasi_shuffle

ZERO_SUM_KINDS = frozenset({"double-shuffle", "hoffman"})
PRODUCT_KINDS = frozenset({"euler", "product"})
RELATION_KINDS = ZERO_SUM_KINDS | PRODUCT_KINDS


class Relation(namedtuple("Relation", "kind factors combination")):
    """An identity among values: which words were multiplied (``factors``, a
    tuple of index words), which products were taken (the ``kind``), and the
    resulting integer combination (a ``LinComb``)."""

    __slots__ = ()

    def __new__(cls, kind: str, factors: tuple[IndexedWord, ...],
                combination: LinComb) -> "Relation":
        if kind not in RELATION_KINDS:
            raise ValueError(f"unknown relation kind {kind!r}")
        return super().__new__(cls, kind, factors, combination)

    @property
    def is_zero_sum(self) -> bool:
        return self.kind in ZERO_SUM_KINDS

    @property
    def label(self) -> str:
        inside = " , ".join(str(w) for w in self.factors)
        return f"{self.kind}[{inside}]"


class NumericValue(namedtuple("NumericValue",
                              "value truncation_n tail_estimate")):
    """A nested sum: its value (complex), the most terms one of its series
    took, and a certified bound on its error (the tails left off plus the
    rounding)."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport",
                                    "residual bound passed truncation_n")):
    """A relation's residual, the bound it is held to (the tolerance plus
    the certified error), whether the residual is within it, and the most
    terms one of its series took."""

    __slots__ = ()


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
    return _depth_1_1_marked(r, s, ONE)._replace(kind="euler")


def indexed_words(weight: int, depth: int, order: int = 1) -> list[IndexedWord]:
    """All index words of the exact weight and depth over the cyclic group,
    by exponents, then marks (:func:`_words`, as a list)."""
    return list(_words(weight, depth, order))


def admissible_words(weight: int, max_depth: int, order: int = 1) -> list[IndexedWord]:
    """Admissible words of the given weight with depth <= max_depth,
    enumerated by depth, then exponents, then marks."""
    return [w for d in range(1, min(weight, max_depth) + 1)
            for w in _admissible(weight, d, order)]


def _words(weight: int, depth: int, order: int) -> Iterator[IndexedWord]:
    """Yield the index words of the exact weight and depth, by exponents,
    then marks.  Each word is one tuple of its marks' shared pairs
    (``GroupElement.pairs``), built in C: the exponents of a composition
    are >= 1, so no word needs checking."""
    rows = [m.pairs for m in group_elements(order)]
    for comp in enum_compositions(weight, depth):
        for mark_rows in iter_product(rows, repeat=depth):
            yield _unchecked_word(map(getitem, mark_rows, comp))


def _admissible(weight: int, depth: int, order: int) -> Iterator[IndexedWord]:
    """The admissible words of :func:`_words`, as it yields them."""
    return (w for w in _words(weight, depth, order) if w.is_admissible)


def relation_stream(weight: int, depth: int, order: int = 1,
                    hoffman: bool = False) -> Iterator[Relation]:
    """Yield each relation as soon as it is computed: first one per
    unordered pair of admissible words of combined weight ``weight`` and
    combined depth <= ``depth``, the closed-form product expansion minus the
    merge-product expansion (pairs whose two expansions coincide are
    dropped); then, with ``hoffman``, every nonzero
    :func:`hoffman_difference` of an admissible word of weight ``weight - 1``
    and depth < ``depth`` (depth 1 when ``depth`` is 1, none when it is
    below 1).

    The pairs go by the lighter word's weight ``wa``, then its depth
    ``da``, then the word ``mu`` itself, by exponents and then marks; its
    partners go by depth, and for equal weights start at ``mu`` itself.
    Every word comes from a generator made as the loop reaches it, so the
    stream holds no word list: ``relation_stream(13, 6, 3)`` yields its
    first relation after 0.2-0.3 ms at a 16 MB peak RSS, and
    ``relation_stream(20, 8, 3)``, whose first weight pair alone has 47.7 M
    words of weight 19 to depth 7, as soon (see README).
    """
    for wa in range(1, weight // 2 + 1):
        wb = weight - wa
        for da in range(1, min(wa, depth - 1) + 1):
            depths_b = range(da if wa == wb else 1, min(wb, depth - da) + 1)
            if not depths_b:
                break
            for ia, mu in enumerate(_admissible(wa, da, order)):
                for db in depths_b:
                    partners = _admissible(wb, db, order)
                    if wa == wb and db == da:
                        # mu's partners of its own class start at mu
                        partners = islice(partners, ia, None)
                    for nu in partners:
                        diff = explicit_product_e(mu, nu) - quasi_shuffle(mu, nu)
                        if diff:
                            yield Relation("double-shuffle", (mu, nu), diff)
    if hoffman and depth >= 1:
        for d in range(1, min(weight - 1, max(depth - 1, 1)) + 1):
            for nu in _admissible(weight - 1, d, order):
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


_U = 2.0 ** -53
"""The unit roundoff of a double: a basic operation is exact to within a
factor 1 + delta, |delta| <= _U."""
_TAIL = 2.0 ** -55
"""Each series takes the fewest terms whose tail bound is below this."""
_MAX_S = 2048
"""Exponents are summed clamped to this: n ** -2048 is 0.0 from n = 2 on,
and the terms it drops are below the least positive double."""
_BLOCK = 4096
"""Terms of a series summed per step: a sum holds O(_BLOCK) numbers per
letter, whatever its number of terms."""
_LETTER = 16
"""The relative error of a computed complex letter, in units of _U.

The angle t of a mark, reduced exactly into (-1/2, 1/2], is rounded once,
and 2 pi t or pi t once more along with pi itself, so the angle is off by
at most 3 |angle| _U.  With cos, sin and tan within an ulp, as in glibc,
the lower letter y e^{-2 pi i t} is then within (3 pi + 3 sqrt 2) _U of
its value, and the upper letter (1 - y)/2 (1 + i cot(pi t)) within
(3 pi / 2 + 4) _U, both relative to their modulus."""
_SAFETY = 1 + 2.0 ** -20
"""Covers the second-order rounding terms, at most (P _U)^2 for P _U below
1e-6, and the rounding of the bound's own arithmetic."""

_CACHE_SIZE = 4096


@lru_cache(maxsize=_CACHE_SIZE)
def mpl_numeric(word: IndexedWord, n_terms: int,
                allow_conditional: bool = False) -> NumericValue:
    """The nested sum  sum_{n1 > ... > nk >= 1} prod z_i^{n_i} / n_i^{s_i},
    to about double precision, with a certified bound on its error.

    Summed by :func:`_sum`, whose series each take at most ``n_terms``
    terms.  The default mode requires the leading exponent to be >= 2
    (absolutely convergent); a leading exponent 1 with a non-identity mark
    is only summed when ``allow_conditional`` is set, and refused even then
    when its series would need more than ``n_terms`` terms.  The empty word
    evaluates to 1 exactly.  Values are cached by ``functools.lru_cache``,
    the 4096 most recently used; the package passes all three arguments
    positionally, so each value has one key.  ``cache_info()`` counts as
    misses the calls that ran the body, refused ones included, and
    ``__wrapped__`` is the uncached function.
    """
    if word.depth == 0:
        return _sum(word, n_terms)
    if not word.is_admissible:
        raise DomainError(f"{word} is not admissible")
    if n_terms < 1:
        raise ValueError("need at least one term")
    if word[0][0] == 1:
        if not allow_conditional:
            raise DomainError(f"{word} converges only conditionally")
        if _plan(_parts(word), n_terms) is None:
            raise DomainError(f"{word} converges only conditionally, and "
                              f"too slowly to sum in {n_terms} terms")
    return _sum(word, n_terms)


def _parts(word: IndexedWord) -> list[tuple[int, GroupElement]]:
    """The pairs (s_j, b_j), b_j = 1/(z_1...z_j), of a word's letters,
    each exponent clamped to _MAX_S."""
    return [(min(s, _MAX_S), b)
            for s, b in zip(word.exponents, theta_inv_marks(word.marks))]


def _sum(word: IndexedWord, n_terms: int) -> NumericValue:
    """The value of a word :func:`mpl_numeric` accepts, by Hölder convolution.

    Borwein, Bradley, Broadhurst and Lisoněk, "Special values of multiple
    polylogarithms", Trans. AMS 353 (2001), section 7.  With the marks b_j
    of :func:`_parts`, the word's letters are a = (0^{s_1-1}, b_1, ...,
    0^{s_k-1}, b_k), n of them, and its value is (-1)^k I(1; a), where
    I(1; a) is the integral over 1 > t_1 > ... > t_n > 0 of
    prod dt_i / (t_i - a_i).  Split at y:

        I(1; a) = sum_{j=0}^{n} (-1)^j U_j L_j,
        U_j = I(1; (1 - a_j)/(1 - y), ..., (1 - a_1)/(1 - y)),
        L_j = I(1; a_{j+1}/y, ..., a_n/y).

    With d the least |1 - b_j| over the b_j != 1 and y = max(1/2, 1 - d/2),
    every nonzero letter of a piece has modulus at least 2 (upper) or 1/y
    (lower), so its series converges geometrically (:func:`_chain`).  The
    word's own series, y = 1, is summed instead when it takes fewer
    term-letter steps, as for a large leading exponent, or when the split
    would need more than ``n_terms`` terms, as for a mark of huge order;
    its tail then shrinks as a power (:func:`_own_chain`).
    ``truncation_n`` is the most terms a series took.
    """
    if word.depth == 0:
        return NumericValue(1.0 + 0j, 0, 0.0)
    parts = _parts(word)
    chains = _plan(parts, n_terms)
    if len(chains) == 1:
        steps, terms, _ = chains[0]
        value, error = _own_chain(steps, terms, parts[0][0], len(parts))
    else:
        value, error = _convolve(*chains)
    sign = -1 if word.depth % 2 else 1
    return NumericValue(complex(sign * value),
                        max(terms for _, terms, _ in chains), error)


def _convolve(upper: tuple, lower: tuple) -> tuple[float | complex, float]:
    """I(1; a) = sum_j (-1)^j U_j L_j from the upper and lower chains of
    :func:`_split`, with a bound on its error: each piece's error times the
    other piece, and the rounding of the products and sums."""
    uppers = _chain(*upper)
    lowers = _chain(*lower)[::-1]
    value = error = mass = 0.0
    for j, ((u, u_err), (low, low_err)) in enumerate(zip(uppers, lowers)):
        value += -u * low if j % 2 else u * low
        error += u_err * (abs(low) + low_err) + abs(u) * low_err
        mass += abs(u) * abs(low)
    # a product rounds once, up to 2 sqrt 2 when complex, and the n sums
    # after the first term once each
    product = 3 if isinstance(value, complex) else 1
    error += _U * (product + len(uppers) - 1) * mass
    return value, error * _SAFETY


def _plan(parts: list[tuple[int, GroupElement]], n_terms: int):
    """The chains :func:`_sum` sums a word through: the two of
    :func:`_split` at y = max(1/2, 1 - d/2), or the word's own chain alone,
    as (steps, terms, 1.0).  None when the word's leading exponent is 1 and
    the split would need more than ``n_terms`` terms."""
    d = min((2 * abs(math.sin(math.pi * _turn(b))) for _, b in parts
             if b.den > 1), default=2.0)
    y = max(0.5, 1 - d / 2)
    split = _split(parts, y, n_terms) if y < 1 else None
    if parts[0][0] == 1:
        return split
    own = _own_steps(parts)
    cap = n_terms
    if split is not None:  # the split's term-letter steps, per own step
        steps = sum(terms * len(chain) for chain, terms, _ in split)
        cap = max(1, min(n_terms, steps // sum(1 + (r > 0) for _, r in own)))
    own_terms = _least_terms(
        lambda terms: _power_tail(terms, parts[0][0], len(parts)), cap)
    if split is None or own_terms is not None:
        return [(own, own_terms or n_terms, 1.0)]
    return split


def _own_steps(parts: list[tuple[int, GroupElement]]) -> list[tuple]:
    """The steps of :func:`_series` for the word's own series, y = 1: each
    letter b_j, then the s_j - 1 zeros before it, innermost first."""
    return [(_lower(b, 1.0), s - 1) for s, b in reversed(parts)]


def _split(parts: list[tuple[int, GroupElement]], y: float, n_terms: int):
    """The upper and lower chains of the split at y, each as (steps, terms,
    x): the steps of :func:`_series`, innermost first, the number of terms,
    and x >= 1/|c| for each nonzero letter c.  The upper chain's pieces are
    U_0, ..., U_n and the lower one's L_n, ..., L_0.  None when either
    would need more than ``n_terms`` terms."""
    upper = []
    for s, b in parts:
        upper += [(1 - y, 0)] * (s - 1)
        inv = _upper(b, y)
        upper.append((None, 1) if inv is None else (inv, 0))
    lower = []
    for s, b in reversed(parts):
        lower.append((_lower(b, y), 0))
        lower += [(None, 1)] * (s - 1)
    # the computed moduli are within _LETTER _U of the true ones
    x_up = max(abs(inv) for inv, _ in upper if inv is not None) \
        * (1 + 2.0 ** -40)
    k_up = sum(inv is not None for inv, _ in upper)
    up_terms = _least_terms(
        lambda terms: _geometric_tail(terms, k_up, x_up), n_terms)
    low_terms = _least_terms(
        lambda terms: _geometric_tail(terms, len(parts), y), n_terms)
    if up_terms is None or low_terms is None:
        return None
    return (upper, up_terms, x_up), (lower, low_terms, y)


def _turn(mark: GroupElement) -> float:
    """The mark's angle in turns, reduced exactly into (-1/2, 1/2]."""
    num = mark.num - mark.den if 2 * mark.num > mark.den else mark.num
    return num / mark.den


def _lower(mark: GroupElement, y: float) -> float | complex:
    """The inverse y/b of the letter b/y, for b the mark's point on the
    unit circle."""
    if mark.den <= 2:
        return y if mark.den == 1 else -y
    angle = math.tau * _turn(mark)
    return complex(y * math.cos(angle), -y * math.sin(angle))


def _upper(mark: GroupElement, y: float) -> float | complex | None:
    """The inverse (1 - y)/(1 - b) = (1 - y)/2 (1 + i cot(pi t)) of the
    letter (1 - b)/(1 - y), for b = e^{2 pi i t} the mark's point on the
    unit circle; None for b = 1, whose letter is 0."""
    half = (1 - y) / 2  # exact: 1 - y is, for y in [1/2, 1]
    if mark.den <= 2:
        return None if mark.den == 1 else half
    return complex(half, half / math.tan(math.pi * _turn(mark)))


def _series(steps: list[tuple], terms: int) -> list[float | complex]:
    """The sums over m = 1..``terms`` of the power series of a chain's
    pieces: the empty piece (1), then the piece after each step.

    A piece I(t; c_1, ..., c_n) = sum_m f_m t^m, so the sum of its series
    is I(1; c).  A step (inv, r) puts outside the piece the letter c =
    1/inv, unless inv is None, and then r letters 0.  The letter c maps f to
    f'_m = -g_{m-1}/m, where g_m = (f_m + g_{m-1})/c, and a letter 0 maps
    f_m to f_m/m.  Values of m are taken in blocks of _BLOCK, each letter
    carrying its g from one block to the next.  A block's terms are summed
    from the last, so that a term of index m passes at most m sums.
    """
    sums = [1.0] + [0.0] * len(steps)
    carries = [0.0] * len(steps)
    carries[0] = steps[0][0]  # g_0 = f_0 / c, with f = 1 for the empty piece
    for start in range(1, terms + 1, _BLOCK):
        stop = min(start + _BLOCK, terms + 1)
        f = [0.0] * (stop - start)
        for i, (inv, r) in enumerate(steps):
            if inv is not None:
                g = carries[i]
                last = f[-1]
                f = [g / -start] + [(g := (c + g) * inv) / m for c, m in
                                    zip(f, range(-start - 1, -stop, -1))]
                carries[i] = (last + g) * inv
            if r == 1:
                f = list(map(truediv, f, range(start, stop)))
            elif r:
                f = [c * m ** -r for c, m in zip(f, range(start, stop))]
            sums[i + 1] += sum(reversed(f))
    return sums


def _index_cost(steps: list[tuple]) -> int:
    """The rounding, in units of _U, that one unit of a term's outer index
    m costs in :func:`_series`: a term passes m sums and m products by a
    letter's inverse, and carries m powers of the letters.  A product by a
    power of two is exact, one by another real rounds once, and one by a
    complex number, computed itself to within _LETTER, up to 2 sqrt 2."""
    invs = [inv for inv, _ in steps if inv is not None]
    if any(isinstance(inv, complex) for inv in invs):
        return 1 + 3 + _LETTER
    return 1 + any(abs(math.frexp(inv)[0]) != 0.5 for inv in invs)


def _chain(steps: list[tuple], terms: int,
           x: float) -> list[tuple[float | complex, float]]:
    """Each piece of a split chain as (its value, a bound on its error),
    the empty piece first.

    A piece of k nonzero letters, each of modulus >= 1/x, is a nested sum
    over m_1 > ... > m_k >= 1 whose term has modulus at most x^{m_1}
    prod 1/m_i: the letter powers telescope.  At most C(m-1, k-1) terms
    share m_1 = m, so the tail past ``terms`` is bound by
    :func:`_geometric_tail`.  Summed over all terms, those moduli are at
    most lambda^k/k!, lambda = -log(1 - x), and weighted by m_1 at most x
    lambda^{k-1}/((k-1)! (1 - x)).  The rounding is at most _U times the
    sum of each term's modulus and the roundings on its path: the index
    cost of :func:`_index_cost` per unit of m_1, one more for the final
    sum, and one per letter for the division by m.
    """
    sums = _series(steps, terms)
    index = _index_cost(steps) + 1
    blocks = -(-terms // _BLOCK)
    out = [(1.0, 0.0)]
    k = 0
    for level, ((inv, _), value) in enumerate(zip(steps, sums[1:]), 1):
        k += inv is not None
        mass, moment = _chain_moduli(k, x)
        rounding = index * moment + (level + blocks - 1) * mass
        out.append((value, _geometric_tail(terms, k, x) + _U * rounding))
    return out


def _own_chain(steps: list[tuple], terms: int, s: int,
               k: int) -> tuple[float | complex, float]:
    """The word's own series, with a bound on its error: leading exponent
    s >= 2, depth k, letters on the unit circle.

    A term of outer index m has modulus at most m^{-s} e_{k-1}(1, ...,
    1/(m-1)) <= m^{-s} H_{m-1}^{k-1}/(k-1)!, whose tail is bound by
    :func:`_power_tail`.  Summed, those are at most 1/(k-1)! plus the tail
    past 1; weighted by m, the same at s - 1, or ``terms`` times it at
    s = 2.  Rounding as in :func:`_chain`, with a run of r >= 2 zeros
    costing 3 (a power and a product) and a letter or a single zero 1.
    """
    value = _series(steps, terms)[-1]
    first = math.exp(-math.lgamma(k))
    mass = first + _power_tail(1, s, k)
    moment = terms * mass if s == 2 else first + _power_tail(1, s - 1, k)
    levels = sum(1 + (r == 1) + 3 * (r > 1) for _, r in steps)
    blocks = -(-terms // _BLOCK)
    rounding = (_index_cost(steps) + 1) * moment + (levels + blocks - 1) * mass
    return value, (_power_tail(terms, s, k) + _U * rounding) * _SAFETY


@lru_cache(maxsize=_CACHE_SIZE)
def _chain_moduli(k: int, x: float) -> tuple[float, float]:
    """For a piece of k letters in :func:`_chain`: lambda^k/k!, the sum of
    its terms' moduli, and x lambda^{k-1}/((k-1)! (1 - x)), that sum
    weighted by m_1, with lambda = -log(1 - x)."""
    log_lam = math.log(-math.log1p(-x))
    return (math.exp(k * log_lam - math.lgamma(k + 1)),
            x / (1 - x) * math.exp((k - 1) * log_lam - math.lgamma(k)))


@lru_cache(maxsize=_CACHE_SIZE)
def _geometric_tail(terms: int, k: int, x: float) -> float:
    """sum_{m > M} C(m-1, k-1) x^m, M = terms, bound by its first term over
    1 - rho, where rho, the ratio of that term to the next, bounds every
    later ratio; infinite while rho >= 1."""
    if terms < k - 1 or x * (terms + 1) >= terms + 2 - k:
        return math.inf
    log_first = (math.lgamma(terms + 1) - math.lgamma(k)
                 - math.lgamma(terms + 2 - k) + (terms + 1) * math.log(x))
    if log_first > 700:  # e^700 is near the largest double
        return math.inf
    return math.exp(log_first) / (1 - x * (terms + 1) / (terms + 2 - k))


@lru_cache(maxsize=_CACHE_SIZE)
def _power_tail(terms: int, s: int, k: int) -> float:
    """A bound on sum_{m > M} m^{-s} (1 + log m)^{k-1}/(k-1)!, M = terms,
    s >= 2: the first term, plus the integral from M + 1 on of
    x^{-s} (c + log x)^{k-1}/(k-1)! with c = 1 + 1/(M + 1), which bounds
    each later term over the unit interval below it.  That integral is
    (M+1)^{1-s} sum_j (c + log(M+1))^{k-1-j}/((k-1-j)! (s-1)^{j+1})."""
    log_n = math.log(terms + 1)
    log_c = math.log(1 + 1 / (terms + 1) + log_n)
    first = math.exp((k - 1) * math.log1p(log_n) - math.lgamma(k)
                     - s * log_n)
    rest = sum(math.exp((k - 1 - j) * log_c - math.lgamma(k - j)
                        - (j + 1) * math.log(s - 1) + (1 - s) * log_n)
               for j in range(k))
    return first + rest


def _least_terms(tail, cap: int) -> int | None:
    """The least M <= cap with tail(M) <= _TAIL, for a tail bound that
    falls with M, found by doubling, then by halving the bracket; None
    past cap.

    A search probes about 2 log2(M) term counts.  The two tail bounds are
    memoised, so the words of a stream that share a depth and a ratio or
    leading exponent, and the chains summed after the search, reuse its
    probes rather than recompute them."""
    high = 1
    while tail(high) > _TAIL:
        if high >= cap:
            return None
        high = min(2 * high, cap)
    low = high // 2
    while high - low > 1:
        mid = (low + high) // 2
        if tail(mid) > _TAIL:
            low = mid
        else:
            high = mid
    return high


def lambda_numeric(word: IndexedWord, n_terms: int,
                   allow_conditional: bool = False) -> NumericValue:
    """The same nested sum with the marks read in quotient coordinates,
    i.e. the value of the theta-transformed word."""
    return mpl_numeric(theta(word), n_terms, allow_conditional)


def verify_relation_numeric(rel: Relation, n_terms: int, tol: float,
                            allow_conditional: bool = False) -> VerificationReport:
    """Evaluate a relation with the values of :func:`mpl_numeric`.

    For product identities the residual is |prod(factors) - combination|;
    for zero sums it is |combination|.  The pass bound is ``tol`` plus a
    certified bound on the residual of a true relation: the values' error
    bounds carried through the combination and the product of the factors,
    and the rounding of that arithmetic.  Each word is looked up once, the
    terms and then the factors, so the first refused word raises after the
    words before it are cached.
    """
    terms = rel.combination.items()
    total = 0.0 + 0j
    error = mass = 0.0
    for word, c in terms:
        val = mpl_numeric(word, n_terms, allow_conditional)
        try:
            total += c * val.value
        except OverflowError:  # the int does not fit a float
            raise ValueError(f"coefficient of {word} is too large to "
                             "sum numerically") from None
        error += abs(c) * val.tail_estimate
        mass += abs(c) * abs(val.value)
    # c * value rounds once, twice when c does, and each sum after the first
    # once
    rounds = len(terms) + any(abs(c) > 2 ** 53 for _, c in terms)
    error += _U * rounds * mass
    lhs = 0.0 + 0j
    if not rel.is_zero_sum:
        lhs = 1.0 + 0j
        size = 1.0  # prod |v| over the factors so far
        spread = 0.0  # prod (|v| + e) - prod |v| over them
        for factor in rel.factors:
            val = mpl_numeric(factor, n_terms, allow_conditional)
            lhs *= val.value
            spread = (spread * (abs(val.value) + val.tail_estimate)
                      + size * val.tail_estimate)
            size *= abs(val.value)
        # each product after the first rounds, by up to 2 sqrt 2 units
        error += spread + _U * 3 * max(len(rel.factors) - 1, 0) * size
    residual = abs(lhs - total)
    bound = tol + error * _SAFETY
    return VerificationReport(residual=residual, bound=bound,
                              passed=residual <= bound, truncation_n=n_terms)
