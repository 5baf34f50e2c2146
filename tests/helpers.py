"""Shared builders and enumerators for the test suite."""

from fractions import Fraction
from itertools import product as iter_product

from doubleshuffle import IndexedWord, ShuffleWord, group_elements
from doubleshuffle.values import indexed_words


def zw(*exponents):
    """Index word over the trivial group (a zeta-style word)."""
    return IndexedWord.from_parts(exponents)


def mw(exponents, marks):
    return IndexedWord.from_parts(exponents, marks)


def fraction_key(word):
    """The canonical word order, built apart from the package's keys: an
    index word by exponents, then by angles; a letter word letter by
    letter, the unmarked letter first.  Angles are exact ``Fraction``s."""
    if isinstance(word, ShuffleWord):
        return tuple((0,) if b is None else (1, Fraction(b.num, b.den))
                     for b in word.letters)
    return (word.exponents,
            tuple(Fraction(b.num, b.den) for b in word.marks))


def letter_alphabet(order):
    """The unmarked letter plus one marked letter per group element."""
    return [None, *group_elements(order)]


def all_shuffle_words(max_len, order=1):
    """Every letter word of length <= max_len, shortest first."""
    alphabet = letter_alphabet(order)
    out = []
    for length in range(max_len + 1):
        for combo in iter_product(alphabet, repeat=length):
            out.append(ShuffleWord(combo))
    return out


def all_indexed_words(max_weight, max_depth=None, order=1):
    """Every index word of weight <= max_weight (including the empty word)."""
    out = [IndexedWord()]
    for w in range(1, max_weight + 1):
        top = w if max_depth is None else min(w, max_depth)
        for d in range(1, top + 1):
            out.extend(indexed_words(w, d, order))
    return out
