"""Closed-form expansion of the transported interleaving products.

The products ``product_b``/``product_e`` of :mod:`doubleshuffle.maps` are
defined by a recursion; here the same products are computed directly as a
double sum over index pairs (order-preserving splittings of the target
positions) and compositions of the total weight, with an explicit binomial
coefficient per position.  Agreement of the two routes is the central
correctness property of the library and is enforced by the test suite.

The module also houses the coefficient calculus itself: the nonvanishing
predicate, the shift/prepend identities used by the inductive argument, the
bijections between restricted index pairs, and an equivalent formulation in
terms of shuffle permutations.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations, pairwise
from math import comb
from operator import getitem

from .core import (DomainError, GroupElement, IndexedWord, LinComb,
                   _unchecked_word, binomial)
from .maps import theta_inv_marks, theta_marks


class IndexPair(namedtuple("IndexPair", "k l phi_mask")):
    """A splitting of positions 1..k+l into a k-set (phi) and its complement (psi).

    ``phi_mask`` has bit ``i-1`` set iff position ``i`` lies in the image of
    phi; phi and psi themselves are the order-preserving enumerations of the
    two sets, so the mask determines the pair completely.  ``k``, ``l`` and
    ``phi_mask`` are ints.
    """

    __slots__ = ()

    def __new__(cls, k: int, l: int, phi_mask: int) -> "IndexPair":
        if k < 0 or l < 0:
            raise ValueError("k and l must be >= 0")
        if phi_mask < 0 or phi_mask >> (k + l):
            raise ValueError("mask has bits outside 1..k+l")
        if phi_mask.bit_count() != k:
            raise ValueError("mask size does not match k")
        return super().__new__(cls, k, l, phi_mask)

    @classmethod
    def from_phi_image(cls, k: int, l: int, positions: Iterator[int]) -> "IndexPair":
        mask = 0
        for i in positions:
            mask |= 1 << (i - 1)
        return cls(k, l, mask)

    @property
    def phi_image(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.k + self.l + 1)
                     if self.phi_mask >> (i - 1) & 1)

    @property
    def psi_image(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.k + self.l + 1)
                     if not self.phi_mask >> (i - 1) & 1)

    def in_phi(self, i: int) -> bool:
        return bool(self.phi_mask >> (i - 1) & 1)

    def route(self, a, b) -> tuple:
        """The k+l target positions in order, holding a_j at phi(j) and b_j
        at psi(j); ``a`` and ``b`` must have k and l entries."""
        ia, ib = iter(a), iter(b)
        mask = self.phi_mask
        return tuple([next(ia) if mask >> i & 1 else next(ib)
                      for i in range(self.k + self.l)])


def enum_index_pairs(k: int, l: int) -> Iterator[IndexPair]:
    """All C(k+l, k) index pairs, lexicographic in the phi image.

    For k = 0 (resp. l = 0) this is the single degenerate pair whose phi
    (resp. psi) is the empty map.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be >= 0")
    for positions in combinations(range(1, k + l + 1), k):
        yield IndexPair.from_phi_image(k, l, positions)


def enum_compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All C(n-1, m-1) vectors of m positive integers summing to n,
    lexicographic: the gaps between 0, m-1 cut points in 1..n-1, and n."""
    if m < 1 or n < m:
        return
    for cuts in combinations(range(1, n), m - 1):
        yield tuple([b - a for a, b in pairwise((0, *cuts, n))])


def h_value(pair: IndexPair, r: tuple[int, ...], s: tuple[int, ...], i: int) -> int:
    """The exponent routed to position i: r_j if i = phi(j), s_j if i = psi(j)."""
    if not 1 <= i <= pair.k + pair.l:
        raise DomainError(f"position {i} out of range 1..{pair.k + pair.l}")
    return pair.route(r, s)[i - 1]


def epsilon(pair: IndexPair, i: int) -> int:
    """+1 on the phi image, -1 on the psi image."""
    if not 1 <= i <= pair.k + pair.l:
        raise DomainError(f"position {i} out of range 1..{pair.k + pair.l}")
    return 1 if pair.in_phi(i) else -1


def coeff_factor(pair: IndexPair, r: tuple[int, ...], s: tuple[int, ...],
                 t: tuple[int, ...], i: int) -> int:
    """The i-th binomial factor of the expansion coefficient.

    Within a run of positions drawn from the same source (position 1
    opens one) the factor is C(t_i - 1, h_i - 1); at a source switch it is
    C(t_i - 1, T_i - H_i) with T, H the prefix sums of t and h.
    """
    h = pair.route(r, s)
    if epsilon(pair, i) == epsilon(pair, max(i - 1, 1)):
        return binomial(t[i - 1] - 1, h[i - 1] - 1)
    return binomial(t[i - 1] - 1, sum(t[:i]) - sum(h[:i]))


def coeff(pair: IndexPair, r: tuple[int, ...], s: tuple[int, ...],
          t: tuple[int, ...]) -> int:
    """Product of the position factors; the expansion coefficient of t."""
    c = 1
    for i in range(1, len(t) + 1):
        f = coeff_factor(pair, r, s, t, i)
        if not f:
            return 0
        c *= f
    return c


def coeff_nonzero(pair: IndexPair, r: tuple[int, ...], s: tuple[int, ...],
                  t: tuple[int, ...]) -> bool:
    """O(k+l) nonvanishing test, equivalent to ``coeff(...) != 0``.

    Same-source positions need t_i >= h_i; at a source switch the prefix
    sums must satisfy T_i >= H_i > T_{i-1}.
    """
    h, eps = pair.route(r, s), _sources(pair)
    tsum = hsum = 0
    prev_tsum = 0
    for i, ti in enumerate(t):
        prev_tsum = tsum
        tsum += ti
        hsum += h[i]
        if i == 0 or eps[i] == eps[i - 1]:
            if ti < h[i]:
                return False
        else:
            if not (tsum >= hsum > prev_tsum):
                return False
    return True


def merge_marks_b(pair: IndexPair, a: tuple[GroupElement, ...],
                  b: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """Route the two mark vectors into target positions: a_j at phi(j), b_j at psi(j)."""
    if len(a) != pair.k or len(b) != pair.l:
        raise DomainError("mark vectors do not match the arity of the pair")
    return pair.route(a, b)


def merge_marks_e(pair: IndexPair, w: tuple[GroupElement, ...],
                  z: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """Quotient-coordinate merge: the b-form merge read through theta,
    ``theta(merge_b(pair, theta^-1 w, theta^-1 z))``."""
    return theta_marks(merge_marks_b(pair, theta_inv_marks(w),
                                     theta_inv_marks(z)))


def _sources(pair: IndexPair) -> tuple[bool, ...]:
    """Per-position source flag: True on the phi image."""
    return pair.route((True,) * pair.k, (False,) * pair.l)


def _lattice(r: tuple[int, ...], s: tuple[int, ...], targets) -> None:
    """Add every index pair's nonzero ``(t, c)`` terms into ``targets[n]``,
    n the pair's number in :func:`enum_index_pairs` order; each pair's
    terms arrive in lexicographic order of t.

    A pair is a lattice path from (0, 0) to (k, l) whose steps take the
    next exponent of r (the phi image) or of s.  Write h for the routed
    exponents, T and H for the prefix sums of t and h, and d_i = T_i - H_i
    for the slack.  The nonvanishing criterion reads d_i >= d_{i-1} at a
    same-source position (t_i >= h_i), and d_{i-1} < h_i with d_i >= 0 at a
    source switch (T_{i-1} < H_i <= T_i); position 1 counts as same-source
    with d_0 = 0.  So d >= 0 throughout, d never decreases within a run of
    one source, d <= h_j - 1 just before a switch at j, and d ends at 0
    because T and H share the total weight.  A run of r's at node (a, b)
    can end only in a switch to s_b, so its slack is capped at s_b - 1
    (and a run of s's at r_a - 1); once one source is spent the last run
    is forced (t_j = h_j after its first position, factor 1 throughout),
    and every visited prefix extends to a term.  The coefficient is a
    running product, one binomial per position.

    The prefixes ``(t, d, c)`` are walked depth first on an explicit
    stack, the r step before the s step and each step by its slacks in
    increasing order, so pairs with a common first stretch share its
    states.  A path's number grows by the count of paths through the r
    step whenever it takes the s step instead.
    """
    k, l = len(r), len(s)
    if not k or not l:  # one run of one source, or the empty word
        t = r + s
        targets[0][t] = targets[0].get(t, 0) + 1
        return
    # (t, d, c, a, b, last source was r, n); with d = 0 the run and switch
    # readings of position 1 give the same slacks and factors
    stack = [((), 0, 1, 0, 0, True, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        t, d, c, a, b, left, n = pop()
        # The s step, pushed first so that the r step is walked first.  A
        # step's slack e starts at lo, d in a run and 0 at a switch, and its
        # factor is C(t_i - 1, e - lo): C(t_i - 1, h_i - 1) in a run and
        # C(t_i - 1, d_i) at a switch.  Where the step spends its source,
        # the next position starts the forced last run, at t = top - e.
        h, top, lo = s[b], r[a], 0 if left else d
        m = n + comb(k - a - 1 + l - b, l - b)
        if b + 1 == l:
            target, tail = targets[m], r[a + 1:]
            get = target.get
            for e in range(lo, top):
                ti = h + e - d
                u = t + (ti, top - e) + tail
                target[u] = get(u, 0) + c * comb(ti - 1, e - lo)
        else:
            for e in range(top - 1, lo - 1, -1):
                ti = h + e - d
                push((t + (ti,), e, c * comb(ti - 1, e - lo), a, b + 1, False, m))
        h, top, lo = r[a], s[b], d if left else 0
        if a + 1 == k:
            target, tail = targets[n], s[b + 1:]
            get = target.get
            for e in range(lo, top):
                ti = h + e - d
                u = t + (ti, top - e) + tail
                target[u] = get(u, 0) + c * comb(ti - 1, e - lo)
        else:
            for e in range(top - 1, lo - 1, -1):
                ti = h + e - d
                push((t + (ti,), e, c * comb(ti - 1, e - lo), a + 1, b, True, n))


@lru_cache(maxsize=1)
def _shape_walks(r: tuple[int, ...], s: tuple[int, ...]) -> tuple[dict, ...]:
    """Every index pair's walked ``{t: c}`` terms, in :func:`enum_index_pairs`
    order, for one pair of exponent vectors.  The marks play no part, so
    the mark variants of one shape, which the relation loops visit back to
    back, walk once."""
    walks = tuple({} for _ in range(comb(len(r) + len(s), len(r))))
    _lattice(r, s, walks)
    return walks


# Only merges of at most this many marks, C(k+l, k) vectors of k+l marks
# (64 KB of references), are kept across calls; a relation loop of depth 8
# meets at most C(8, 4) * 8 = 560.  A larger merge is made for its call.
_KEPT_MARKS = 2 ** 13


# The mark coordinates ``(read, rewrite)`` of each form: ``read`` takes a
# factor's marks to the b-form's, where a merge only routes them, and
# ``rewrite`` takes the routed vector back.
_B_COORDS = (tuple, tuple)
_E_COORDS = (theta_inv_marks, theta_marks)


@lru_cache(maxsize=512)
def _merged_marks(coords, a: tuple[GroupElement, ...], b: tuple[GroupElement, ...]
                  ) -> tuple[bool, tuple[tuple[tuple, tuple], ...]]:
    """``(marks, rows)`` for every index pair of ``(len(a), len(b))``, in
    :func:`enum_index_pairs` order: the merged marks, ``rewrite`` of the
    pair's routing of ``read(a)`` and ``read(b)`` for ``coords = (read,
    rewrite)``, and their pair rows (``GroupElement.pairs``), after a flag
    that is true when every pair merges to one and the same vector.  Each
    mark vector is read once per call.  The exponents play no part, so one
    mark vector pair merges, and reads its rows, once for all the shapes it
    meets."""
    read, rewrite = coords
    a, b = read(a), read(b)
    merged = tuple((marks, tuple([m.pairs for m in marks]))
                   for pair in enum_index_pairs(len(a), len(b))
                   for marks in (rewrite(pair.route(a, b)),))
    return len({marks for marks, _ in merged}) == 1, merged


def _closed_form(mu: IndexedWord, nu: IndexedWord, coords, walks) -> LinComb:
    """Sum c * (t; merged marks) over every index pair and its walked terms.

    ``coords = (read, rewrite)`` are the mark coordinates that
    :func:`_merged_marks` routes in, and ``walks(r, s)`` gives every index
    pair's nonzero ``{t: c}`` terms, in :func:`enum_index_pairs` order.  Two
    terms share a word exactly when they share the merged marks and the
    composition t, so the sum keeps one ``{t: c}`` dict per merged-mark
    vector, the first pair of each vector goes in whole, and each word is
    built once, at the end, as the one tuple of its vector's cached rows at
    t.  When every pair merges to one and the same vector (every product of
    unmarked words), the kernel's terms are walked straight into that
    vector's one dict; the permutation form keeps its per-pair terms, whose
    coefficients it recomputes.  Every walked coefficient is a product of
    nonzero binomials, so no sum vanishes.
    """
    r, s = mu.exponents, nu.exponents
    n = len(r) + len(s)
    if comb(n, len(r)) * n <= _KEPT_MARKS:
        one_class, merged = _merged_marks(coords, mu.marks, nu.marks)
    else:
        one_class, merged = _merged_marks.__wrapped__(coords, mu.marks, nu.marks)
    if one_class and walks is _shape_walks:
        acc: dict = {}
        _lattice(r, s, [acc] * len(merged))
        sums = ((merged[0][1], acc),)
    else:
        by_marks: dict = {}
        for (marks, rows), walked in zip(merged, walks(r, s)):
            entry = by_marks.get(marks)
            if entry is None:
                by_marks[marks] = (rows, walked.copy())
            else:
                acc = entry[1]
                get = acc.get
                for t, c in walked.items():
                    acc[t] = get(t, 0) + c
        sums = by_marks.values()
    return LinComb._wrap({_unchecked_word(map(getitem, rows, t)): c
                          for rows, acc in sums
                          for t, c in acc.items()})


def explicit_product_b(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Closed form of ``maps.product_b``: sum coeff * (t; merged marks) over
    all index pairs and all compositions t of the combined weight.

    An empty factor is absorbed by the degenerate pair convention, under
    which the coefficient collapses to a Kronecker delta.
    """
    return _closed_form(mu, nu, _B_COORDS, _shape_walks)


def explicit_product_e(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Closed form of ``maps.product_e``: same coefficients as the b-form,
    with the quotient-coordinate mark merge."""
    return _closed_form(mu, nu, _E_COORDS, _shape_walks)


# ---------------------------------------------------------------------------
# Shuffle-permutation formulation


def sigma_of_pair(pair: IndexPair) -> tuple[int, ...]:
    """The permutation with sigma(i) = phi^{-1}(i) on the phi image and
    k + psi^{-1}(i) on the psi image; inverse of :func:`pair_of_sigma`."""
    return pair.route(range(1, pair.k + 1),
                      range(pair.k + 1, pair.k + pair.l + 1))


def pair_of_sigma(sigma: tuple[int, ...], k: int) -> IndexPair:
    """Recover the index pair from a (k, l)-shuffle permutation."""
    n = len(sigma)
    l = n - k
    if not is_shuffle_perm(sigma, k):
        raise DomainError("sigma is not a (k, l)-shuffle permutation")
    low = [i for i in range(1, n + 1) if sigma[i - 1] <= k]
    return IndexPair.from_phi_image(k, l, low)


def is_shuffle_perm(sigma: tuple[int, ...], k: int) -> bool:
    """True when sigma is order preserving on values 1..k and on k+1..k+l."""
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        return False
    low = [v for v in sigma if v <= k]
    high = [v for v in sigma if v > k]
    return low == sorted(low) and high == sorted(high)


def enum_shuffle_perms(k: int, l: int) -> Iterator[tuple[int, ...]]:
    """All C(k+l, k) shuffle permutations, in index-pair order."""
    for pair in enum_index_pairs(k, l):
        yield sigma_of_pair(pair)


def perm_coeff(sigma: tuple[int, ...], r: tuple[int, ...], s: tuple[int, ...],
               t: tuple[int, ...]) -> int:
    """Expansion coefficient in permutation form.

    kappa is the concatenation (r, s); the i-th factor is
    C(t_i - 1, kappa_{sigma(i)} - 1 - [source switch] * sum_{j<i}(t_j - kappa_{sigma(j)}))
    with the convention that position 0 counts as the same source as position 1.
    """
    k = len(r)
    if not is_shuffle_perm(sigma, k):
        raise DomainError("sigma is not a (k, l)-shuffle permutation")
    return _perm_coeff_fast(sigma, r + s, k, t)


def _perm_coeff_fast(sigma: tuple[int, ...], kappa: tuple[int, ...], k: int,
                     t: tuple[int, ...]) -> int:
    c = 1
    drift = 0  # sum_{j<i} (t_j - kappa_{sigma(j)})
    prev_low = sigma[0] <= k if sigma else True
    for i, ti in enumerate(t):
        low = sigma[i] <= k
        arg = kappa[sigma[i] - 1] - 1
        if low != prev_low:
            arg -= drift
        f = binomial(ti - 1, arg)
        if not f:
            return 0
        c *= f
        drift += ti - kappa[sigma[i] - 1]
        prev_low = low
    return c


def _perm_walks(r: tuple[int, ...], s: tuple[int, ...]) -> list[dict]:
    """:func:`_shape_walks` with each walked coefficient recomputed by the
    permutation formula, an independent formula for the same number."""
    k, kappa = len(r), r + s
    return [{t: _perm_coeff_fast(sigma, kappa, k, t) for t in walked}
            for sigma, walked in zip(enum_shuffle_perms(k, len(s)),
                                     _shape_walks(r, s))]


def perm_product_b(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """The b-form product computed through the permutation formulation."""
    return _closed_form(mu, nu, _B_COORDS, _perm_walks)


# ---------------------------------------------------------------------------
# Shift maps on order-preserving injections and the induced bijections


def dagger(f: tuple[int, ...]) -> tuple[int, ...]:
    """Drop the first value and shift the rest down: x -> f(x+1) - 1."""
    return tuple(v - 1 for v in f[1:])


def sharp(f: tuple[int, ...]) -> tuple[int, ...]:
    """Shift all values down: x -> f(x) - 1."""
    return tuple(v - 1 for v in f)


def amp(f: tuple[int, ...]) -> tuple[int, ...]:
    """Prepend 1 and shift the rest up: 1, f(1)+1, ..., f(k)+1."""
    return (1,) + tuple(v + 1 for v in f)


def star(f: tuple[int, ...]) -> tuple[int, ...]:
    """Shift all values up: y -> f(y) + 1."""
    return tuple(v + 1 for v in f)


def restrict_phi_leading(pair: IndexPair) -> IndexPair:
    """(phi, psi) with phi(1) = 1  ->  (dagger phi, sharp psi); drops one phi slot."""
    if pair.k == 0 or not pair.in_phi(1):
        raise DomainError("pair does not have phi(1) = 1")
    return IndexPair.from_phi_image(pair.k - 1, pair.l, dagger(pair.phi_image))


def extend_phi_leading(pair: IndexPair) -> IndexPair:
    """Inverse of :func:`restrict_phi_leading`: (phi, psi) -> (amp phi, star psi)."""
    return IndexPair.from_phi_image(pair.k + 1, pair.l, amp(pair.phi_image))


def restrict_psi_leading(pair: IndexPair) -> IndexPair:
    """(phi, psi) with psi(1) = 1  ->  (sharp phi, dagger psi); drops one psi slot."""
    if pair.l == 0 or pair.in_phi(1):
        raise DomainError("pair does not have psi(1) = 1")
    return IndexPair.from_phi_image(pair.k, pair.l - 1, sharp(pair.phi_image))


def extend_psi_leading(pair: IndexPair) -> IndexPair:
    """Inverse of :func:`restrict_psi_leading`: (phi, psi) -> (star phi, amp psi)."""
    return IndexPair.from_phi_image(pair.k, pair.l + 1, star(pair.phi_image))
