"""Encoding bijections and the two transported products."""

import pytest

from doubleshuffle import (MINUS_ONE, ONE, DomainError, GroupElement,
                           IndexedWord, LinComb, ShuffleWord,
                           binomial, eta, eta_inv, product_b, product_e, rho,
                           rho_inv, theta, theta_inv)

from bruteforce import brute_shuffle
from helpers import all_indexed_words, all_shuffle_words, zw

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
