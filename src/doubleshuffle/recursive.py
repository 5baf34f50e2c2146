"""Recursive word products: the interleaving product and its merging variant.

These recursions are the reference implementations ("oracle path") that the
closed-form expansion in :mod:`doubleshuffle.explicit` is checked against.
Both recursions are memoized on the word pair in a bounded least-recently-used
table (``cache_info()`` reports its use); repeated subproblems dominate the
cost from weight ~12 on, and the cache is idempotent so sharing it between
threads is safe.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (DomainError, GroupElement, IndexedWord, LinComb, ShuffleWord,
                   _unchecked_word)

# Entries kept per memo; the largest table a perfbench workload fills
# (relations-roots) holds 6,586, so none of them evicts.
_MEMO_SIZE = 2 ** 15


@lru_cache(maxsize=_MEMO_SIZE)
def _shuffle_letters(u: tuple, v: tuple) -> dict:
    """:func:`shuffle` on letter tuples, as ``{letters: coefficient}``; the
    dict is the memo's own, so callers read it and never change it."""
    if not u or not v:
        return {u + v: 1}
    out = {(u[0],) + w: c for w, c in _shuffle_letters(u[1:], v).items()}
    for w, c in _shuffle_letters(u, v[1:]).items():
        w = (v[0],) + w
        out[w] = out.get(w, 0) + c
    return out


def shuffle(u: ShuffleWord, v: ShuffleWord) -> LinComb:
    """All interleavings of ``u`` and ``v``, each keeping its letter order.

    Satisfies the recursion  a.u' sh b.v' = a.(u' sh b.v') + b.(a.u' sh v')
    with the empty word as unit; the coefficients of the result always sum
    to C(len(u)+len(v), len(u)).  ``shuffle.cache_info()`` reports the memo.
    """
    return LinComb._wrap({ShuffleWord(w): c for w, c
                          in _shuffle_letters(u.letters, v.letters).items()})


shuffle.cache_info = _shuffle_letters.cache_info


@lru_cache(maxsize=_MEMO_SIZE)
def quasi_shuffle(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Interleavings where the two leading pairs may also merge into one.

    Merging adds exponents and multiplies marks, so over the trivial group
    this is the classical sum-representation product rule.
    """
    if not mu:
        return LinComb.single(nu)
    if not nu:
        return LinComb.single(mu)
    (s1, b1), (s2, b2) = mu[0], nu[0]
    mu_tail, nu_tail = _unchecked_word(mu[1:]), _unchecked_word(nu[1:])
    merged = (s1 + s2, b1 * b2)
    return LinComb((_unchecked_word((head,) + w), c)
                   for head, left, right in ((mu[0], mu_tail, nu),
                                             (nu[0], mu, nu_tail),
                                             (merged, mu_tail, nu_tail))
                   for w, c in quasi_shuffle(left, right).iterterms())


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
