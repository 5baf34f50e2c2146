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

from .core import DomainError, GroupElement, IndexedWord, Letter, LinComb, ShuffleWord
from .recursive import shuffle


def rho(u: ShuffleWord) -> IndexedWord:
    """Block encoding 0^(s1-1) [b1] ... 0^(sk-1) [bk]  ->  ((s1,b1),...,(sk,bk))."""
    if not u.encodes_index_word:
        raise DomainError(f"word {str(u)!r} ends in the unmarked letter; "
                          "it does not encode an index word")
    pairs: list[tuple[int, GroupElement]] = []
    zeros = 0
    for letter in u.letters:
        if letter.is_zero:
            zeros += 1
        else:
            pairs.append((zeros + 1, letter.mark))
            zeros = 0
    return IndexedWord(pairs)


def rho_inv(word: IndexedWord) -> ShuffleWord:
    """Inverse block encoding."""
    letters: list[Letter] = []
    for s, b in word:
        letters.extend([Letter(None)] * (s - 1))
        letters.append(Letter(b))
    return ShuffleWord(letters)


def theta_marks(marks: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """(b1, b2, ..., bk)  ->  (1/b1, b1/b2, ..., b_{k-1}/bk)."""
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
    return shuffle(rho_inv(mu), rho_inv(nu)).map_words(rho)


def product_e(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    """Interleaving product transported through eta (quotient coordinates)."""
    return shuffle(eta_inv(mu), eta_inv(nu)).map_words(eta)
