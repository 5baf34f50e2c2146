"""Recursive word products: the interleaving product and its merging variant.

These recursions are the reference implementations ("oracle path") that the
closed-form expansion in :mod:`doubleshuffle.explicit` is checked against.
Both run one memoised quasi-shuffle recursion on letter tuples, each with its
own bracket of leading letters (zero for interleaving, (s,b),(t,c) ->
(s+t, b*c) for merging) and its own memo (``cache_info()``).  Merging keeps a
bounded LRU table across calls; it is idempotent, so sharing it between
threads is safe.  Interleaving memoises within one call only: its summed
letter tuples are freed when the call returns, and its ``cache_info()``
sums the hits and misses of every call, with ``currsize`` 0.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from functools import lru_cache

from .core import (DomainError, GroupElement, IndexedWord, LinComb, ShuffleWord,
                   _unchecked_word)

# Entries kept by quasi_shuffle's memo; the largest table a perfbench
# workload fills (relations-roots) holds 6,586, so it does not evict.  The
# interleaving memo lives for one call and needs no bound.
_MEMO_SIZE = 2 ** 15


def _quasi_shuffle(bracket, memo):
    """a.u * b.v = a.(u * b.v) + b.(a.u * v) + [a,b].(u * v) on letter tuples, as
    ``{letters: coefficient}`` dicts owned by ``memo``; ``bracket=None`` is the
    zero bracket (None, or 0 for int letters, is also a letter, the unmarked
    one)."""
    @memo
    def product(u: tuple, v: tuple) -> dict:
        if not u or not v:
            return {u + v: 1}
        a, b = u[0], v[0]
        out = {(a,) + w: c for w, c in product(u[1:], v).items()}
        rests = ((b, u, v[1:]),)
        if bracket is not None:
            rests += ((bracket(a, b), u[1:], v[1:]),)
        for head, left, right in rests:
            for w, c in product(left, right).items():
                w = (head,) + w
                out[w] = out.get(w, 0) + c
        return out
    return product


_stuffle_pairs = _quasi_shuffle(lambda a, b: (a[0] + b[0], a[1] * b[1]),
                                lru_cache(maxsize=_MEMO_SIZE))
# functools' cache_info() shape, also for values.mpl_numeric
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
# hits and misses of every _shuffle_letters call so far, under the lock
_shuffle_counts = [0, 0]
_counting = threading.Lock()


def _shuffle_letters(u: tuple, v: tuple) -> dict:
    """The interleavings of two letter tuples as a ``{letters: coefficient}``
    dict the caller owns, memoised for this call only.  Clearing the memo
    when the call ends frees its summed tuples by refcount, rather than
    through the cycle between the recursion and its cache."""
    product = _quasi_shuffle(None, lru_cache(maxsize=None))
    try:
        return product(u, v)
    finally:
        hits, misses, _, _ = product.cache_info()
        product.cache_clear()
        with _counting:
            _shuffle_counts[0] += hits
            _shuffle_counts[1] += misses


def shuffle(u: ShuffleWord, v: ShuffleWord) -> LinComb:
    """All interleavings of ``u`` and ``v``, each keeping its letter order.

    Satisfies the recursion  a.u' sh b.v' = a.(u' sh b.v') + b.(a.u' sh v')
    with the empty word as unit; the coefficients of the result always sum
    to C(len(u)+len(v), len(u)).  ``shuffle.cache_info()`` sums the counts
    of every call's memo.
    """
    return LinComb._wrap({ShuffleWord(w): c for w, c
                          in _shuffle_letters(u.letters, v.letters).items()})


def quasi_shuffle(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Interleavings where the two leading pairs may also merge into one.

    Merging adds exponents and multiplies marks, so over the trivial group
    this is the classical sum-representation product rule.
    """
    return LinComb._wrap({_unchecked_word(w): c
                          for w, c in _stuffle_pairs(mu, nu).items()})


shuffle.cache_info = lambda: _CacheInfo(*_shuffle_counts, None, 0)
quasi_shuffle.cache_info = _stuffle_pairs.cache_info


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
