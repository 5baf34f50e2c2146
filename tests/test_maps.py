"""Encoding bijections and the two transported products."""

import gc
import weakref

import pytest

from doubleshuffle import (MINUS_ONE, ONE, DomainError, GroupElement,
                           IndexedWord, LinComb, ShuffleWord,
                           binomial, eta, eta_inv, explicit_product_b,
                           explicit_product_e, perm_product_b, product_b,
                           product_e, rho, rho_inv, shuffle, theta, theta_inv)
from doubleshuffle.explicit import _merged_marks

from bruteforce import brute_shuffle
from helpers import all_indexed_words, all_shuffle_words, mw, zw

X0, X1 = None, ONE


class TestRho:
    def test_block_encoding(self):
        assert rho(ShuffleWord((X0, X1, X1))) == zw(2, 1)

    def test_empty(self):
        assert rho(ShuffleWord()) == IndexedWord()
        assert rho_inv(IndexedWord()) == ShuffleWord()

    def test_inverse_expansion(self):
        b = MINUS_ONE
        assert rho_inv(IndexedWord(((3, b),))) == ShuffleWord((X0, X0, b))

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            rho(ShuffleWord((X1, X0)))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_round_trips(self, order):
        for w in all_indexed_words(6, order=order):
            assert rho(rho_inv(w)) == w
        for u in all_shuffle_words(6, order):
            if u.encodes_index_word:
                assert rho_inv(rho(u)) == u


class TestTheta:
    def test_trivial_group_is_identity(self):
        for w in all_indexed_words(5):
            assert theta(w) == w
            assert theta_inv(w) == w

    def test_equal_marks_collapse(self):
        b = GroupElement(1, 3)
        got = theta(IndexedWord(((2, b), (1, b))))
        assert got == IndexedWord(((2, b.inverse()), (1, ONE)))

    def test_fifth_roots(self):
        w = IndexedWord(((2, GroupElement(1, 5)), (1, GroupElement(3, 5))))
        got = theta(w)
        assert got == IndexedWord(((2, GroupElement(4, 5)), (1, GroupElement(3, 5))))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_round_trips(self, order):
        for w in all_indexed_words(6, order=order):
            assert theta_inv(theta(w)) == w
            assert theta(theta_inv(w)) == w


class TestEta:
    def test_composition(self):
        b = GroupElement(1, 3)
        assert eta(ShuffleWord((X0, b))) == IndexedWord(((2, b.inverse()),))

    def test_empty(self):
        assert eta(ShuffleWord()) == IndexedWord()

    def test_inverse_last_letter(self):
        w = IndexedWord(((2, GroupElement(1, 5)), (1, GroupElement(2, 5))))
        u = eta_inv(w)
        acc = ONE
        for z in w.marks:
            acc = acc * z
        assert u.letters[-1] == acc.inverse()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_diagram_commutes(self, order):
        for u in all_shuffle_words(5, order):
            if u.encodes_index_word:
                assert eta(u) == theta(rho(u))
        for w in all_indexed_words(5, order=order):
            assert eta(eta_inv(w)) == w


class TestTransportedProducts:
    def test_b_depth_one_square(self):
        assert product_b(zw(2), zw(2)) == LinComb([(zw(2, 2), 2), (zw(3, 1), 4)])

    def test_b_unit(self):
        nu = zw(2, 1)
        assert product_b(IndexedWord(), nu) == LinComb.single(nu)

    def test_b_depth_one_times_two(self):
        got = product_b(zw(2), zw(2, 1))
        assert got == LinComb([(zw(2, 2, 1), 3), (zw(2, 1, 2), 1), (zw(3, 1, 1), 6)])

    def test_e_matches_b_over_trivial_group(self):
        for mu in all_indexed_words(4):
            for nu in all_indexed_words(4):
                if mu.weight + nu.weight <= 6:
                    assert product_e(mu, nu) == product_b(mu, nu)

    def test_e_unit(self):
        nu = IndexedWord(((2, MINUS_ONE),))
        assert product_e(IndexedWord(), nu) == LinComb.single(nu)

    def test_e_mass_preserved(self):
        m = IndexedWord(((2, MINUS_ONE),))
        assert product_e(m, m).mass() == binomial(4, 2)

    @pytest.mark.parametrize("order", [1, 2])
    def test_theta_intertwines_the_products(self, order):
        words = [w for w in all_indexed_words(4, order=order) if w.weight <= 3]
        for mu in words:
            for nu in words:
                lhs = product_e(theta(mu), theta(nu))
                rhs = product_b(mu, nu).map_words(theta)
                assert lhs == rhs

    def test_match_bruteforce_over_cube_roots(self):
        """Every pair of root:3 words whose product has weight <= 5, so each
        word of weight <= 4 takes part; the reference enumerates
        interleavings without the recursion's memo."""
        words = all_indexed_words(4, order=3)
        for mu in words:
            for nu in words:
                if mu.weight + nu.weight > 5:
                    continue
                b_ref = brute_shuffle(rho_inv(mu), rho_inv(nu)).map_words(rho)
                e_ref = brute_shuffle(eta_inv(mu), eta_inv(nu)).map_words(eta)
                assert product_b(mu, nu) == b_ref, (mu, nu)
                assert product_e(mu, nu) == e_ref, (mu, nu)


class TestSharedMemosAndPairs:
    """The letter shuffle memoises within one call on int letters, and
    every route builds its words from the marks' shared pairs."""

    def test_routes_build_words_from_the_shared_pairs(self):
        fifth = [GroupElement(j, 5) for j in range(5)]
        mu, nu = mw((2, 1), fifth[1:3]), mw((1, 3), fifth[3:5])
        routes = {"b": (explicit_product_b, perm_product_b, product_b),
                  "e": (explicit_product_e, product_e)}
        for form, products in routes.items():
            results = [product(mu, nu) for product in products]
            assert results[0] and all(r == results[0] for r in results), form
            for result in results:
                for word in result.words():
                    for pair in word:
                        s, b = pair
                        assert pair is b.pairs[s], (form, word)
            first = {w: w for w in results[0].words()}
            for result in results[1:]:
                for word in result.words():
                    assert all(p is q for p, q in zip(word, first[word]))

    def test_a_mark_used_only_by_the_products_is_freed(self):
        key = (2, 10 ** 9 + 9)
        mark = GroupElement(*key)
        mu, nu = mw((2, 1), (mark, MINUS_ONE)), mw((1, 2), (mark.inverse(), mark))
        for closed, oracle in ((explicit_product_b, product_b),
                               (perm_product_b, product_b),
                               (explicit_product_e, product_e)):
            assert closed(mu, nu) == oracle(mu, nu)
        freed = weakref.ref(mark)
        del mark, mu, nu
        _merged_marks.cache_clear()
        gc.collect()
        assert freed() is None
        assert GroupElement._interned.get(key) is None

    def test_theta_keeps_no_mark_alive(self):
        key = (1, 10 ** 9 + 7)
        mark = GroupElement(*key)
        word = IndexedWord(((2, mark), (1, mark.inverse())))
        assert theta_inv(theta(word)) == word and eta(eta_inv(word)) == word
        freed = weakref.ref(mark)
        del mark, word
        gc.collect()
        assert freed() is None
        assert GroupElement._interned.get(key) is None

    def test_shuffle_counts_every_call_and_keeps_no_entry(self):
        mu, nu = mw((2, 1), (GroupElement(1, 5), ONE)), mw((3,), (MINUS_ONE,))
        seen = shuffle.cache_info()
        for _ in range(3):
            product_b(mu, nu)
            info = shuffle.cache_info()
            assert info.hits + info.misses > seen.hits + seen.misses
            assert info.currsize == 0
            seen = info

    def test_letter_codes_are_renamed_per_call(self):
        """Both calls code their marks as 1 and 2, so a memo keyed by codes
        that outlived its call would decode the second call's words with
        the first call's marks."""
        fifth = [GroupElement(j, 5) for j in range(5)]
        for a, b in ((fifth[1], fifth[2]), (fifth[3], fifth[4])):
            mu, nu = mw((2,), (a,)), mw((1,), (b,))
            b_ref = brute_shuffle(rho_inv(mu), rho_inv(nu)).map_words(rho)
            e_ref = brute_shuffle(eta_inv(mu), eta_inv(nu)).map_words(eta)
            assert product_b(mu, nu) == b_ref, (mu, nu)
            assert product_e(mu, nu) == e_ref, (mu, nu)
