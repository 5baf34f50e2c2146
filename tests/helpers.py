"""Shared builders and enumerators for the test suite."""

from fractions import Fraction
from itertools import product as iter_product

from doubleshuffle import (IndexedWord, Relation, ShuffleWord,
                           enum_compositions, explicit_product_e,
                           group_elements, hoffman_difference, quasi_shuffle)
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


def full_depth_relations(weight, depth, order=1, hoffman=False):
    """The relations of ``values.relation_stream``, enumerated as the stream
    first did: every weight class 1..weight-1 listed up front to the full
    depth, each word built by ``IndexedWord.from_parts``, and every
    unordered pair within the depth expanded both ways."""
    marks = group_elements(order)

    def admissible(w, max_depth):
        words = (IndexedWord.from_parts(comp, ms)
                 for d in range(1, min(w, max_depth) + 1)
                 for comp in enum_compositions(w, d)
                 for ms in iter_product(marks, repeat=d))
        return [word for word in words if word.is_admissible]

    by_weight = {w: admissible(w, depth) for w in range(1, weight)}
    out = []
    for wa in range(1, weight // 2 + 1):
        words_a, words_b = by_weight[wa], by_weight[weight - wa]
        for ia, mu in enumerate(words_a):
            for nu in words_b[ia if 2 * wa == weight else 0:]:
                if mu.depth + nu.depth <= depth:
                    diff = explicit_product_e(mu, nu) - quasi_shuffle(mu, nu)
                    if diff:
                        out.append(Relation("double-shuffle", (mu, nu), diff))
    if hoffman:
        rels = map(hoffman_difference, admissible(weight - 1, max(depth - 1, 1)))
        out += [rel for rel in rels if rel.combination]
    return out
