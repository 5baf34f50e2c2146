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
from operator import sub

from .core import (DomainError, GroupElement, IndexedWord, LinComb,
                   ShuffleWord, _unchecked_word)
from .recursive import _MEMO_SIZE, _shuffle_letters


def _encode(letters: tuple, rewrite=tuple) -> IndexedWord:
    """Block encoding of a letter tuple that is empty or ends in a marked
    letter, marks passed through ``rewrite``; injective, as each exponent is
    the gap between the positions of two consecutive marked letters."""
    ends = [i for i, b in enumerate(letters, 1) if b is not None]
    marks = tuple([letters[i - 1] for i in ends])
    return _unchecked_word(zip(map(sub, ends, [0, *ends]), rewrite(marks)))


def rho(u: ShuffleWord) -> IndexedWord:
    """Block encoding 0^(s1-1) [b1] ... 0^(sk-1) [bk]  ->  ((s1,b1),...,(sk,bk))."""
    if not u.encodes_index_word:
        raise DomainError(f"word {str(u)!r} ends in the unmarked letter; "
                          "it does not encode an index word")
    return _encode(u.letters)


def rho_inv(word: IndexedWord) -> ShuffleWord:
    """Inverse block encoding."""
    letters: list[GroupElement | None] = []
    for s, b in word:
        letters += (None,) * (s - 1)
        letters.append(b)
    return ShuffleWord(letters)


@lru_cache(maxsize=_MEMO_SIZE)
def theta_marks(marks: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """(b1, b2, ..., bk)  ->  (1/b1, b1/b2, ..., b_{k-1}/bk); memoised for product_e."""
    out: list[GroupElement] = []
    prev: GroupElement | None = None
    for b in marks:
        out.append(b.inverse() if prev is None else prev / b)
        prev = b
    return tuple(out)


def theta_inv_marks(marks: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """(z1, z2, ..., zk)  ->  (1/z1, 1/(z1 z2), ..., 1/(z1...zk))."""
    out: list[GroupElement] = []
    acc: GroupElement | None = None
    for z in marks:
        acc = z if acc is None else acc * z
        out.append(acc.inverse())
    return tuple(out)


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


def product_b(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Interleaving product transported through the block encoding."""
    shuffled = _shuffle_letters(rho_inv(mu).letters, rho_inv(nu).letters)
    return LinComb._wrap({_encode(w): c for w, c in shuffled.items()})


def product_e(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Interleaving product transported through eta (quotient coordinates)."""
    shuffled = _shuffle_letters(eta_inv(mu).letters, eta_inv(nu).letters)
    return LinComb._wrap({_encode(w, theta_marks): c for w, c in shuffled.items()})
