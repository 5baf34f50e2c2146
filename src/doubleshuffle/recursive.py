"""Recursive word products: the interleaving product and its merging variant.

These are the reference implementations ("oracle path") that the
closed-form expansion in :mod:`doubleshuffle.explicit` is checked against.
Interleaving runs the recursion a.u sh b.v = a.(u sh b.v) + b.(a.u sh v) on
letter tuples, memoised within one call only: its summed letter tuples are
freed when the call returns, and its ``cache_info()`` sums the hits and
misses of every call, with ``currsize`` 0.  Merging sums explicitly over
the quasi-shuffle patterns of its two depths (pairs of order-preserving
injections whose images cover the target positions, merging the pairs that
land on one position), each pattern a tuple of indices into the call's own
pool of pairs; only small tables of patterns, which hold ints, are kept
across calls, in a bounded table that its ``cache_info()`` reports.  A
product of more patterns than ``_MAX_PATTERNS`` runs the interleaving
recursion with the merged pair as a third term instead, whose per-call memo
merges equal suffixes.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

from .core import (DomainError, GroupElement, IndexedWord, LinComb, ShuffleWord,
                   _unchecked_word)

# functools' cache_info() shape, for shuffle's summed counts
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
# hits and misses of every _shuffle_letters call so far, under the lock
_shuffle_counts = [0, 0]
_counting = threading.Lock()


def _interleave(u: tuple, v: tuple, merge=None, counts=None) -> dict:
    """a.u * b.v = a.(u * b.v) + b.(a.u * v) + merge(a, b).(u * v) on letter
    tuples, the last term only when ``merge`` is given, as a
    ``{letters: coefficient}`` dict the caller owns.  The memo is this
    call's only; clearing it when the call ends frees its summed tuples by
    refcount, rather than through the cycle between the recursion and its
    cache.  The memo's hits and misses are added to ``counts``, if given."""
    @lru_cache(maxsize=None)
    def product(u: tuple, v: tuple) -> dict:
        if not u or not v:
            return {u + v: 1}
        a, b = u[0], v[0]
        out = {(a,) + w: c for w, c in product(u[1:], v).items()}
        rests = ((b, u, v[1:]),)
        if merge is not None:
            rests += ((merge(a, b), u[1:], v[1:]),)
        for head, left, right in rests:
            for w, c in product(left, right).items():
                w = (head,) + w
                out[w] = out.get(w, 0) + c
        return out

    try:
        return product(u, v)
    finally:
        hits, misses, _, _ = product.cache_info()
        product.cache_clear()
        if counts is not None:
            with _counting:
                counts[0] += hits
                counts[1] += misses


def _shuffle_letters(u: tuple, v: tuple) -> dict:
    """The interleavings of two letter tuples as a ``{letters: coefficient}``
    dict the caller owns; ``shuffle.cache_info()`` counts its memo."""
    return _interleave(u, v, counts=_shuffle_counts)


def shuffle(u: ShuffleWord, v: ShuffleWord) -> LinComb:
    """All interleavings of ``u`` and ``v``, each keeping its letter order.

    Satisfies the recursion  a.u' sh b.v' = a.(u' sh b.v') + b.(a.u' sh v')
    with the empty word as unit; the coefficients of the result always sum
    to C(len(u)+len(v), len(u)).  ``shuffle.cache_info()`` sums the counts
    of every call's memo.
    """
    return LinComb._wrap({ShuffleWord(w): c for w, c
                          in _shuffle_letters(u.letters, v.letters).items()})


@lru_cache(maxsize=64)
def _delannoy(k: int, l: int) -> int:
    """D(k, l), the number of quasi-shuffle patterns of depths k and l."""
    return sum(comb(k, m) * comb(l, m) << m for m in range(min(k, l) + 1))


# A product of more patterns recurses instead: its memo merges equal
# suffixes, which words of repeated pairs have many of, and which a pattern
# sum cannot merge.  (2,...,2) times itself has F(2n+1) words but D(n, n)
# patterns, 610 against 48,639 at n = 7.
_MAX_PATTERNS = 2 ** 10
# Only tables of at most this many indices (64 KB) are kept across calls;
# a relation loop of depth d meets the (k, l) with k, l >= 1 and k + l <= d,
# (d - 1) * d / 2 of them, so every table up to depth 8 stays.
_KEPT_INDICES = 2 ** 13


@lru_cache(maxsize=32)
def _stuffle_patterns(k: int, l: int) -> tuple[tuple[int, ...], ...]:
    """The D(k, l) (Delannoy number) quasi-shuffle patterns of a depth-k
    word with a depth-l word.  A pattern lists, per target position, the
    index of its pair in the pool of :func:`quasi_shuffle`: i < k for left
    pair i, k + j for right pair j, k + l + i*l + j for the two merged.

    A pattern with m merges has k + l - m positions, of which it picks the
    m merged ones and then k - m of the rest for the left word.  The table
    is built from these choices, without recursion, so a deep word costs
    the size of its table and never meets the interpreter's recursion
    limit.
    """
    patterns = []
    for m in range(min(k, l) + 1):
        n = k + l - m
        for merged in combinations(range(n), m):
            rest = [p for p in range(n) if p not in merged]
            for left in combinations(rest, k - m):
                source = [1] * n  # 0 left, 1 right, 2 merged
                for p in merged:
                    source[p] = 2
                for p in left:
                    source[p] = 0
                i = j = 0
                pattern = []
                for src in source:
                    if src == 0:
                        pattern.append(i)
                        i += 1
                    elif src == 1:
                        pattern.append(k + j)
                        j += 1
                    else:
                        pattern.append(k + l + i * l + j)
                        i += 1
                        j += 1
                patterns.append(tuple(pattern))
    return tuple(patterns)


def _merge_pairs(a: tuple, b: tuple) -> tuple:
    """[(s, b), (t, c)] = (s + t, b*c), as the product mark's shared pair."""
    return (a[1] * b[1]).pairs[a[0] + b[0]]


def quasi_shuffle(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Interleavings where a pair of each word may also merge into one.

    Merging adds exponents and multiplies marks, so over the trivial group
    this is the classical sum-representation product rule.  Up to
    ``_MAX_PATTERNS`` patterns, the words are summed over the patterns of
    :func:`_stuffle_patterns`, each one tuple taken from the call's pool:
    the pairs of ``mu`` and ``nu``, then each merged pair, the mark's shared
    ``GroupElement.pairs`` entry.  Past it, the product recurses on its
    leading pairs with a memo for this call only, so a product too deep for
    the interpreter raises ``RecursionError``.  No word outlives the call;
    ``quasi_shuffle.cache_info()`` reports the kept tables of patterns.
    """
    k, l = len(mu), len(nu)
    size = _delannoy(k, l)
    if size > _MAX_PATTERNS:
        return LinComb._wrap({_unchecked_word(w): c for w, c
                              in _interleave(mu, nu, _merge_pairs).items()})
    if size * (k + l) <= _KEPT_INDICES:
        patterns = _stuffle_patterns(k, l)
    else:
        patterns = _stuffle_patterns.__wrapped__(k, l)
    pool = [*mu, *nu]
    pool += [(b * c).pairs[s + t] for s, b in mu for t, c in nu]
    get = pool.__getitem__
    out: dict = {}
    count = out.get
    for pattern in patterns:
        word = _unchecked_word(map(get, pattern))
        out[word] = count(word, 0) + 1
    return LinComb._wrap(out)


shuffle.cache_info = lambda: _CacheInfo(*_shuffle_counts, None, 0)
quasi_shuffle.cache_info = _stuffle_patterns.cache_info


def op_P(x: LinComb) -> LinComb:
    """Raise the leading exponent of every word by one.

    Defined only on combinations of nonempty words (the unit has no leading
    exponent to raise).
    """
    def bump(word: IndexedWord) -> IndexedWord:
        if not word:
            raise DomainError("exponent-raising operator is undefined on the empty word")
        (s1, b1) = word[0]
        return IndexedWord(((s1 + 1, b1),) + word[1:])

    return x.map_words(bump)


def op_Q(b: GroupElement, x: LinComb) -> LinComb:
    """Prepend the pair (1, b) to every word; sends the unit to ((1, b))."""
    return x.map_words(lambda word: IndexedWord(((1, b),) + word))
