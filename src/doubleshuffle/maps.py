"""Bijections between the letter-word and index-word pictures.

``rho`` reads a letter word as blocks ``0^(s-1) [b]`` and records the pair
``(s, b)`` per block; it is defined exactly on words that end in a marked
letter.  ``theta`` rewrites the mark vector into consecutive quotients, and
``eta = theta . rho``.  Transporting the interleaving product through rho
(resp. eta) yields the two products ``product_b`` and ``product_e`` on index
words; these are the oracle counterparts of the closed-form expansion in
:mod:`doubleshuffle.explicit`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from operator import getitem, mul, sub, truediv

from .core import (ONE, DomainError, GroupElement, IndexedWord, LinComb,
                   ShuffleWord, _unchecked_word)
from .recursive import _shuffle_letters


def _rows(rewrite=tuple):
    """The pair rows (``GroupElement.pairs``) of a mark tuple passed
    through ``rewrite``, memoised by the mark tuple for one call."""
    @lru_cache(maxsize=None)
    def rows(marks: tuple) -> list[dict]:
        return [b.pairs for b in rewrite(marks)]
    return rows


def _encode(letters: tuple, rows) -> IndexedWord:
    """Block encoding of a letter tuple that is empty or ends in a marked
    letter, marks read by ``rows``; injective, as each exponent is the gap
    between the positions of two consecutive marked letters."""
    ends = [i for i, b in enumerate(letters, 1) if b]
    return _unchecked_word(map(getitem, rows(tuple(filter(None, letters))),
                               map(sub, ends, [0, *ends])))


def rho(u: ShuffleWord) -> IndexedWord:
    """Block encoding 0^(s1-1) [b1] ... 0^(sk-1) [bk]  ->  ((s1,b1),...,(sk,bk))."""
    if not u.encodes_index_word:
        raise DomainError(f"word {str(u)!r} ends in the unmarked letter; "
                          "it does not encode an index word")
    return _encode(u.letters, _rows())


def rho_inv(word: IndexedWord) -> ShuffleWord:
    """Inverse block encoding."""
    letters: list[GroupElement | None] = []
    for s, b in word:
        letters += (None,) * (s - 1)
        letters.append(b)
    return ShuffleWord(letters)


def theta_marks(marks: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """(b1, b2, ..., bk)  ->  (1/b1, b1/b2, ..., b_{k-1}/bk)."""
    return tuple(map(truediv, (ONE, *marks), marks))


def theta_inv_marks(marks: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """(z1, z2, ..., zk)  ->  (1/z1, 1/(z1 z2), ..., 1/(z1...zk))."""
    return tuple(map(truediv, repeat(ONE), accumulate(marks, mul)))


def theta(word: IndexedWord) -> IndexedWord:
    """Rewrite marks as consecutive quotients; exponents are unchanged."""
    return IndexedWord.from_parts(word.exponents, theta_marks(word.marks))


def theta_inv(word: IndexedWord) -> IndexedWord:
    """Inverse of :func:`theta`: marks become inverse prefix products."""
    return IndexedWord.from_parts(word.exponents, theta_inv_marks(word.marks))


def eta(u: ShuffleWord) -> IndexedWord:
    """Block encoding followed by the quotient rewrite of the marks."""
    return theta(rho(u))


def eta_inv(word: IndexedWord) -> ShuffleWord:
    return rho_inv(theta_inv(word))


def _transport(u: ShuffleWord, v: ShuffleWord, rewrite=tuple) -> LinComb:
    """Interleave two letter words and block-encode each summed letter
    tuple once, marks passed through ``rewrite``.  Both memos live for
    this call only."""
    rows = _rows(rewrite)
    return LinComb._wrap({_encode(w, rows): c for w, c
                          in _shuffle_letters(u.letters, v.letters).items()})


def product_b(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Interleaving product transported through the block encoding."""
    return _transport(rho_inv(mu), rho_inv(nu))


def product_e(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Interleaving product transported through eta (quotient coordinates)."""
    return _transport(eta_inv(mu), eta_inv(nu), theta_marks)
