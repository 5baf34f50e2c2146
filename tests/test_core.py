"""Kernel types: group elements, binomials, words, linear combinations."""

import copy
import gc
import math
import pickle
import sys
import threading
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, strategies as st

from doubleshuffle import (MINUS_ONE, ONE, GroupElement, IndexedWord, LinComb,
                           ShuffleWord, bilinear, binomial,
                           explicit_product_b, explicit_product_e,
                           group_elements, perm_product_b, quasi_shuffle)
from doubleshuffle.core import _unchecked_word
from doubleshuffle.textio import RelationWriter
from doubleshuffle.values import Relation

from helpers import (all_indexed_words, all_shuffle_words, fraction_key,
                     zw)


class TestGroupElement:
    def test_identity_absorbs(self):
        for p, q in ((0, 1), (1, 2), (2, 5), (3, 7)):
            assert ONE * GroupElement(p, q) == GroupElement(p, q)

    def test_sign_involution(self):
        assert MINUS_ONE * MINUS_ONE == ONE

    def test_angle_addition(self):
        assert GroupElement(1, 5) * GroupElement(2, 5) == GroupElement(3, 5)

    def test_inverses(self):
        assert ONE.inverse() == ONE
        assert MINUS_ONE.inverse() == MINUS_ONE
        assert GroupElement(2, 5).inverse() == GroupElement(3, 5)

    def test_normalization(self):
        assert GroupElement(7, 5) == GroupElement(2, 5)
        assert GroupElement(2, 4) == GroupElement(1, 2)
        assert GroupElement(-1, 5) == GroupElement(4, 5)
        assert GroupElement(5, 5) == ONE
        assert ONE.den == 1

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            GroupElement(1, 0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_group_axioms_exhaustive(self, n):
        elems = group_elements(n)
        assert len(elems) == n
        for a in elems:
            assert a * ONE == a
            assert a * a.inverse() == ONE
            # finite order within the ambient group
            assert a.order <= n and n % a.order == 0
        for a, b in iter_product(elems, repeat=2):
            assert a * b == b * a
            assert (a * b) in elems or (a * b).den <= n
        for a, b, c in iter_product(elems, repeat=3):
            assert (a * b) * c == a * (b * c)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_order_is_exact_angle_order(self, n):
        elems = group_elements(n) + [GroupElement(1, 7), GroupElement(5, 11),
                                     GroupElement(3, 8), GroupElement(7, 12)]
        for a, b in iter_product(elems, repeat=2):
            assert (a < b) == (Fraction(a.num, a.den) < Fraction(b.num, b.den))

    def test_one_instance_per_angle(self):
        assert GroupElement(2, 6) is GroupElement(1, 3)
        assert GroupElement(-2, 3) is GroupElement(1, 3)
        assert GroupElement(1, 3) * GroupElement(1, 3) is GroupElement(2, 3)
        assert GroupElement(5, 5) is ONE and GroupElement(3, 6) is MINUS_ONE

    def test_intern_table_forgets_freed_angles(self):
        key = (1, 10 ** 9 + 7)
        mark = GroupElement(*key)
        assert GroupElement._interned.get(key) is mark
        del mark
        gc.collect()
        assert GroupElement._interned.get(key) is None
        assert GroupElement(*key).den == 10 ** 9 + 7

    def test_a_mark_without_pairs_is_freed_at_once(self):
        """Only the kernels make a mark's pairs, so a mark no kernel built a
        word from is in no cycle and leaves the table with its last
        reference, before any collection."""
        key = (3, 10 ** 9 + 7)
        mark = GroupElement(*key)
        word = IndexedWord(((2, mark), (1, ONE)))
        assert str(word) and copy.deepcopy(word) == word
        del mark, word
        assert GroupElement._interned.get(key) is None

    def test_pickle_and_copy_return_the_interned_instance(self):
        third = GroupElement(1, 3)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(third, protocol)) is third
        assert copy.copy(third) is third and copy.deepcopy(third) is third
        word = IndexedWord(((2, third), (1, ONE), (3, MINUS_ONE)))
        clone = copy.deepcopy(word)
        assert clone == word and hash(clone) == hash(word)
        assert all(a is b for (_, a), (_, b) in zip(clone, word))
        assert pickle.loads(pickle.dumps(word)) == word

    def test_complex_values(self):
        assert ONE.to_complex() == 1
        assert MINUS_ONE.to_complex() == -1
        assert GroupElement(1, 4).to_complex() == 1j
        z = GroupElement(1, 3).to_complex()
        assert abs(z - complex(-0.5, math.sqrt(3) / 2)) < 1e-15


class TestBinomial:
    def test_conventions(self):
        assert binomial(0, 0) == 1
        assert binomial(2, 1) == 2
        assert binomial(4, 2) == 6
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(-2, 0) == 0

    def test_pascal_recursion_exhaustive(self):
        for a in range(1, 41):
            for b in range(a + 1):
                assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


class TestWords:
    def test_shuffle_word_predicates(self):
        x0, x1, xm = None, ONE, MINUS_ONE
        assert ShuffleWord().encodes_index_word
        assert ShuffleWord().is_convergent
        assert ShuffleWord((x0, x1)).encodes_index_word
        assert not ShuffleWord((x1, x0)).encodes_index_word
        assert ShuffleWord((x0, x1)).is_convergent
        assert not ShuffleWord((x1, x1)).is_convergent
        assert ShuffleWord((xm, x1)).is_convergent

    def test_indexed_word_basics(self):
        w = zw(3, 1, 2)
        assert w.weight == 6
        assert w.depth == 3
        assert w.exponents == (3, 1, 2)
        assert all(b == ONE for b in w.marks)

    def test_admissibility(self):
        assert zw(2).is_admissible
        assert not zw(1, 2).is_admissible
        assert not IndexedWord().is_admissible
        assert IndexedWord(((1, MINUS_ONE),)).is_admissible

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            IndexedWord(((0, ONE),))

    def test_kernel_words_are_checked_words(self):
        third = GroupElement(1, 3)
        mu = IndexedWord(((2, third), (1, ONE)))
        nu = IndexedWord(((1, MINUS_ONE), (2, third)))
        for lc in (explicit_product_b(mu, nu), explicit_product_e(mu, nu),
                   perm_product_b(mu, nu), quasi_shuffle(mu, nu)):
            assert lc
            for word, c in lc.iterterms():
                checked = IndexedWord(word)
                assert type(word) is IndexedWord
                assert word == checked and checked == word
                assert hash(word) == hash(checked)
                assert lc.coeff(checked) == c

    def test_mark_length_validation(self):
        with pytest.raises(ValueError):
            IndexedWord.from_parts((2, 1), (ONE,))

    def test_word_is_the_tuple_of_its_pairs(self):
        third = GroupElement(1, 3)
        for p in ((), ((2, ONE),), ((2, third), (1, ONE), (3, MINUS_ONE))):
            assert IndexedWord(p) == p and p == IndexedWord(p)
            assert hash(IndexedWord(p)) == hash(p)
        assert IndexedWord() != ShuffleWord()
        assert ShuffleWord() != IndexedWord()

    def test_unpickling_checks_exponents(self):
        bad = _unchecked_word(((2, ONE), (0, MINUS_ONE)))
        good = IndexedWord(((2, GroupElement(1, 3)), (1, MINUS_ONE)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(bad, protocol)
            with pytest.raises(ValueError, match="exponent 0"):
                pickle.loads(data)
            clone = pickle.loads(pickle.dumps(good, protocol))
            assert type(clone) is IndexedWord and clone == good
            assert all(a is b for (_, a), (_, b) in zip(clone, good))

    def test_pickle_and_copy_keep_the_marks_pairs(self):
        fifth = GroupElement(2, 5)
        pairs, pair = fifth.pairs, fifth.pairs[3]
        assert pair == (3, fifth) and pairs.mark is fifth
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(fifth, protocol))
            assert clone is fifth and clone.pairs is pairs
            assert clone.pairs[3] is pair
        for clone in (copy.copy(fifth), copy.deepcopy(fifth)):
            assert clone is fifth and clone.pairs[3] is pair
        word = _unchecked_word((pair, fifth.pairs[1]))
        assert all(a is b for a, b in zip(copy.deepcopy(word), word))

    def test_letters_are_interned(self):
        """A letter is its mark (None when unmarked), so it is interned with
        the mark and keeps its identity through pickling and copying."""
        assert GroupElement(1, 3) is GroupElement(2, 6)
        for letter in (None, ONE, GroupElement(2, 5)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(letter, protocol)) is letter
            assert copy.copy(letter) is letter and copy.deepcopy(letter) is letter
        word = ShuffleWord((None, GroupElement(1, 3)))
        clone = copy.deepcopy(word)
        assert clone == word and hash(clone) == hash(word)
        assert all(a is b for a, b in zip(clone.letters, word.letters))

    def test_letter_words_and_combinations_pickle_at_every_protocol(self):
        third = GroupElement(1, 3)
        word = ShuffleWord((None, third, ONE))
        index_lc = explicit_product_e(IndexedWord(((2, third), (1, ONE))),
                                      IndexedWord(((1, MINUS_ONE),)))
        letter_lc = LinComb([(word, 3), (ShuffleWord(), -2)])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(word, protocol))
            assert type(clone) is ShuffleWord and clone == word
            assert all(a is b for a, b in zip(clone.letters, word.letters))
            for lc in (index_lc, letter_lc):
                clone = pickle.loads(pickle.dumps(lc, protocol))
                assert type(clone) is LinComb and clone == lc
                assert clone.items() == lc.items()

    def test_threads_share_one_mark_per_angle(self):
        """Four threads intern the same new angles at once; each angle is
        created under ``GroupElement._creating`` by one of them, and every
        thread gets that one instance."""
        dens = (1033, 1039, 1049, 1051, 1061)
        assert not any(GroupElement._interned.get((j, d))
                       for d in dens for j in range(1, d))
        made = [None] * 4

        def make(slot):
            made[slot] = [GroupElement(j, d) for d in dens for j in range(1, d)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=make, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(marks) == len(made[0]) > 5000 for marks in made)
        assert all(a is b for marks in made[1:] for a, b in zip(made[0], marks))


# Hypothesis strategies for small exact linear combinations.
_marks = st.sampled_from(group_elements(4))
_word = st.lists(st.tuples(st.integers(1, 3), _marks), max_size=3).map(IndexedWord)
_linc = st.lists(st.tuples(_word, st.integers(-9, 9)), max_size=6).map(LinComb)
# Terms over a pool of four words, so that words repeat, with every term
# followed by its negation at random, so that coefficients cancel.
_terms = st.lists(st.tuples(st.sampled_from([IndexedWord(), zw(2), zw(2, 1),
                                             IndexedWord(((2, MINUS_ONE),))]),
                            st.integers(-3, 3), st.booleans()),
                  max_size=12).map(
    lambda ts: [t for w, c, undo in ts
                for t in ([(w, c), (w, -c)] if undo else [(w, c)])])


class TestLinComb:
    def test_examples(self):
        x = LinComb.single(zw(2), 3)
        assert x + LinComb.zero() == x
        assert x - x == LinComb.zero()
        assert 2 * x == LinComb.single(zw(2), 6)
        assert not (x - x)

    def test_no_zero_coefficients_stored(self):
        x = LinComb([(zw(2), 1), (zw(2), -1), (zw(3), 2)])
        assert len(x) == 1
        assert x.coeff(zw(2)) == 0
        assert x.coeff(zw(3)) == 2
        pair = LinComb([(zw(2), 1), (zw(3), -1)])
        cancelled = (
            pair.map_words(lambda w: zw(4)),
            pair.apply(lambda w: LinComb.single(zw(4), 2)),
            bilinear(lambda u, v: LinComb.single(zw(5)), pair, LinComb.single(zw(1))),
        )
        for z in cancelled:
            assert len(z) == 0
            assert z == LinComb.zero()

    @given(_terms)
    def test_construction_sums_per_word_and_drops_zeros(self, terms):
        sums: dict = {}
        for word, c in terms:
            sums[word] = sums.get(word, 0) + c
        expected = {w: c for w, c in sums.items() if c}
        for x in (LinComb(terms), LinComb(sums)):
            assert dict(x.iterterms()) == expected
            assert len(x) == len(expected)

    def test_canonical_item_order(self):
        x = LinComb([(zw(3, 1), 1), (zw(2, 2), 1), (zw(2), 1),
                     (IndexedWord(((2, MINUS_ONE),)), 1)])
        words = x.words()
        keys = [w.sort_key() for w in words]
        assert keys == sorted(keys)
        # identity angle sorts before the half turn at equal exponents
        assert words.index(zw(2)) < words.index(IndexedWord(((2, MINUS_ONE),)))

    def test_item_order_matches_angle_fractions(self):
        marks = group_elements(12)
        words = [IndexedWord(((s1, marks[j1]), (s2, marks[j2])))
                 for s1, s2 in ((2, 1), (1, 2), (2, 2))
                 for j1 in range(0, 12, 5) for j2 in range(12)]
        words += [IndexedWord(((3, b),)) for b in marks]
        x = LinComb((w, i + 1) for i, w in enumerate(words))
        by_fractions = lambda kv: fraction_key(kv[0])  # noqa: E731
        assert x.items() == sorted(x.iterterms(), key=by_fractions)
        letters = [None, *reversed(marks)]
        y = LinComb((ShuffleWord(p), 1) for p in iter_product(letters, repeat=2))
        assert y.items() == sorted(y.iterterms(), key=by_fractions)

    def test_sort_key_orders_as_the_fraction_reference(self):
        """Both word types, over the empty word, prefixes and mixed depths,
        and two angles that round to one float: the tie at position 1 is
        settled by the marks there, although position 2 orders the other
        way."""
        lo = GroupElement(2 ** 60, 2 ** 60 + 1)
        hi = GroupElement(2 ** 60 + 1, 2 ** 60 + 2)
        assert lo.num / lo.den == hi.num / hi.den and lo < hi
        marks = group_elements(12)[::5] + [lo, hi]
        tied = [IndexedWord(((1, lo), (2, GroupElement(5, 12)))),
                IndexedWord(((1, hi), (2, ONE)))]
        assert tied[0].sort_key() < tied[1].sort_key()
        words = [IndexedWord(zip(exps, ms))
                 for exps in ((), (1,), (2,), (4,), (1, 2), (2, 1), (2, 2),
                              (3, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2))
                 for ms in iter_product(marks, repeat=len(exps))]
        assert set(tied) <= set(words)
        letters = [None, *marks]
        letter_words = [ShuffleWord(p) for n in range(4)
                        for p in iter_product(letters, repeat=n)]
        for ws in (words, letter_words):
            assert sorted(ws, key=lambda w: w.sort_key()) == \
                sorted(ws, key=fraction_key)

    def test_sorting_without_float_ties_compares_no_marks_in_python(
            self, monkeypatch):
        """Over root:12 every mark comparison is settled by the angle
        floats; ``GroupElement.__lt__`` runs only on a float tie."""
        calls = []
        exact = GroupElement.__lt__

        def counting(a, b):
            calls.append((a, b))
            return exact(a, b)

        monkeypatch.setattr(GroupElement, "__lt__", counting)
        x = LinComb((w, 1) for w in all_indexed_words(5, 3, 12))
        y = LinComb((w, 1) for w in all_shuffle_words(2, 12))
        rel = Relation("double-shuffle", (), x)
        assert x.items() and y.items() and RelationWriter().text(rel)
        assert calls == []
        tie = LinComb((IndexedWord(((1, GroupElement(n, n + 1)),)), 1)
                      for n in (2 ** 60 + 1, 2 ** 60))
        assert [w[0][1].num for w in tie.words()] == [2 ** 60, 2 ** 60 + 1]
        assert calls

    @given(_linc, _linc, _linc)
    def test_addition_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(_linc, _linc)
    def test_addition_commutative(self, x, y):
        assert x + y == y + x

    @given(_linc)
    def test_module_identities(self, x):
        assert 1 * x == x
        assert 0 * x == LinComb.zero()
        assert x + LinComb.zero() == x
        assert x - x == LinComb.zero()

    @given(_linc, _linc)
    def test_subtraction_adds_the_negative(self, x, y):
        # (x + y) - x and x - (x + y) cancel every word of x that y lacks
        for a, b in ((x, y), (x + y, x), (x, x + y)):
            a_terms, b_terms = dict(a.iterterms()), dict(b.iterterms())
            diff = a - b
            assert diff == a + (-b)
            assert all(c for _, c in diff.iterterms())
            for word in a_terms.keys() | b_terms.keys():
                c = a_terms.get(word, 0) - b_terms.get(word, 0)
                assert diff.coeff(word) == c
                assert (word in diff) == bool(c)
            assert dict(a.iterterms()) == a_terms
            assert dict(b.iterterms()) == b_terms
        assert x + y - x == y

    @given(_linc, st.integers(-5, 5), st.integers(-5, 5))
    def test_scalar_distributes(self, x, a, b):
        assert (a + b) * x == a * x + b * x
