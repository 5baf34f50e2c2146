"""Recursive word products: the interleaving product and its merging variant.

These recursions are the reference implementations ("oracle path") that the
closed-form expansion in :mod:`doubleshuffle.explicit` is checked against.
Both run one memoised quasi-shuffle recursion on letter tuples, each with its
own bracket of leading letters (zero for interleaving, (s,b),(t,c) ->
(s+t, b*c) for merging) and its own bounded LRU table (``cache_info()``); the
tables are idempotent, so sharing them between threads is safe.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (DomainError, GroupElement, IndexedWord, LinComb, ShuffleWord,
                   _unchecked_word)

# Entries kept per memo; the largest table a perfbench workload fills
# (relations-roots) holds 6,586, so none of them evicts.
_MEMO_SIZE = 2 ** 15


def _quasi_shuffle(bracket):
    """a.u * b.v = a.(u * b.v) + b.(a.u * v) + [a,b].(u * v) on letter tuples, as
    memo-owned ``{letters: coefficient}`` dicts; ``bracket=None`` is the zero
    bracket (None is also a letter, the unmarked one)."""
    @lru_cache(maxsize=_MEMO_SIZE)
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


_shuffle_letters = _quasi_shuffle(None)
_stuffle_pairs = _quasi_shuffle(lambda a, b: (a[0] + b[0], a[1] * b[1]))


def shuffle(u: ShuffleWord, v: ShuffleWord) -> LinComb:
    """All interleavings of ``u`` and ``v``, each keeping its letter order.

    Satisfies the recursion  a.u' sh b.v' = a.(u' sh b.v') + b.(a.u' sh v')
    with the empty word as unit; the coefficients of the result always sum
    to C(len(u)+len(v), len(u)).  ``shuffle.cache_info()`` reports the memo.
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


shuffle.cache_info = _shuffle_letters.cache_info
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
