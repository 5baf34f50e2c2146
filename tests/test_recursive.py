"""Recursive products against brute-force enumeration, plus the operator laws."""

import pytest

from doubleshuffle import (MINUS_ONE, ONE, DomainError, IndexedWord, LinComb,
                           ShuffleWord, bilinear, binomial, group_elements,
                           op_P, op_Q, quasi_shuffle, shuffle)
from doubleshuffle.maps import product_b
from doubleshuffle.recursive import (_KEPT_INDICES, _MAX_PATTERNS, _delannoy,
                                     _interleave, _merge_pairs, _stuffle_patterns)

from bruteforce import brute_quasi_shuffle, brute_shuffle
from helpers import all_indexed_words, all_shuffle_words, zw

X0, X1 = None, ONE


def sword(*letters):
    return ShuffleWord(letters)


class TestShuffle:
    def test_unit_law(self):
        w = sword(X0, X1)
        assert shuffle(ShuffleWord(), w) == LinComb.single(w)
        assert shuffle(w, ShuffleWord()) == LinComb.single(w)

    def test_square_of_01(self):
        w = sword(X0, X1)
        expected = LinComb([(sword(X0, X1, X0, X1), 2),
                            (sword(X0, X0, X1, X1), 4)])
        assert shuffle(w, w) == expected
        assert brute_shuffle(w, w) == expected

    def test_01_with_1(self):
        expected = LinComb([(sword(X0, X1, X1), 2), (sword(X1, X0, X1), 1)])
        assert shuffle(sword(X0, X1), sword(X1)) == expected
        assert brute_shuffle(sword(X0, X1), sword(X1)) == expected

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_bruteforce(self, order):
        words = all_shuffle_words(3, order)
        for u in words:
            for v in words:
                assert shuffle(u, v) == brute_shuffle(u, v), (u, v)

    def test_terms_are_shuffle_words(self):
        lc = shuffle(sword(X0, X1), sword(X1))
        assert lc and all(type(w) is ShuffleWord for w in lc.words())

    def test_results_do_not_share_the_memo(self):
        u, v = sword(X0, X1), sword(MINUS_ONE, X1)
        first = shuffle(u, v)
        expected = brute_shuffle(u, v)
        assert first == expected
        for changed in (-first, first - expected, first - first, first * 3):
            assert changed != expected
            assert shuffle(u, v) == expected
        assert first == expected

    def test_coefficient_mass(self):
        for order in (1, 2):
            words = all_shuffle_words(3, order)
            for u in words:
                for v in words:
                    assert shuffle(u, v).mass() == binomial(len(u) + len(v), len(u))


class TestQuasiShuffle:
    def test_depth_one_product(self):
        # the classical three-term expansion of a product of two single sums
        assert quasi_shuffle(zw(2), zw(3)) == LinComb(
            [(zw(2, 3), 1), (zw(3, 2), 1), (zw(5), 1)])

    def test_unit_law(self):
        nu = zw(2, 1)
        assert quasi_shuffle(IndexedWord(), nu) == LinComb.single(nu)
        assert quasi_shuffle(nu, IndexedWord()) == LinComb.single(nu)

    def test_sign_marks_multiply(self):
        m = IndexedWord(((1, MINUS_ONE),))
        expected = LinComb([(IndexedWord(((1, MINUS_ONE), (1, MINUS_ONE))), 2),
                            (IndexedWord(((2, ONE),)), 1)])
        assert quasi_shuffle(m, m) == expected

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_bruteforce(self, order):
        # order 3 is the first where a mark is not its own inverse, so it
        # tells a product of marks from a quotient; the empty word is first.
        # A depth-4 word is met up to combined weight 5, which reaches the
        # (4, 0), (4, 1) and (1, 4) tables.
        words = all_indexed_words(6, max_depth=4, order=order)
        for mu in words:
            for nu in words:  # in order of weight
                if mu.weight + nu.weight > 6:
                    break
                if max(len(mu), len(nu)) == 4 and mu.weight + nu.weight > 5:
                    continue
                assert quasi_shuffle(mu, nu) == brute_quasi_shuffle(mu, nu), \
                    (mu, nu)

    @pytest.mark.parametrize("order", [1, 3])
    def test_leading_pair_recursion(self, order):
        # (a.u) * (b.v) = a.(u * b.v) + b.(a.u * v) + [a,b].(u * v), with
        # [(s,b),(t,c)] = (s+t, b*c): the recursion that defines the product
        def prepend(pair, x):
            return x.map_words(lambda w: IndexedWord((pair,) + w))

        words = all_indexed_words(4, max_depth=2, order=order)
        heads = [(s, b) for s in (1, 2) for b in group_elements(order)]
        for u in words:
            for v in words:
                if u.weight + v.weight > 4:
                    break
                for a in heads:
                    for b in heads:
                        au, bv = IndexedWord((a,) + u), IndexedWord((b,) + v)
                        merged = (a[0] + b[0], a[1] * b[1])
                        assert quasi_shuffle(au, bv) == \
                            prepend(a, quasi_shuffle(u, bv)) + \
                            prepend(b, quasi_shuffle(au, v)) + \
                            prepend(merged, quasi_shuffle(u, v)), (au, bv)

    def test_pattern_tables_are_delannoy_sized_and_hold_only_ints(self):
        def delannoy(k, l):
            return sum(binomial(k, m) * binomial(l, m) * 2 ** m
                       for m in range(min(k, l) + 1))

        assert [delannoy(n, n) for n in (1, 2, 3)] == [3, 13, 63]
        for k in range(5):
            for l in range(5):
                assert _delannoy(k, l) == delannoy(k, l)
                table = _stuffle_patterns(k, l)
                assert len(table) == len(set(table)) == delannoy(k, l)
                assert type(table) is tuple
                assert all(type(p) is tuple and all(type(i) is int for i in p)
                           for p in table), (k, l)

    def test_tables_of_a_relation_loop_up_to_depth_8_are_kept(self):
        for k in range(1, 8):
            for l in range(1, 9 - k):
                assert _delannoy(k, l) * (k + l) <= _KEPT_INDICES, (k, l)
        assert _stuffle_patterns.cache_info().maxsize >= 7 * 8 // 2

    @pytest.mark.parametrize("shape", [(300, 1), (7, 7)])
    def test_large_products_keep_no_table(self, shape):
        # (300, 1) has 601 patterns, summed from a table built for the call;
        # (7, 7) has 48,639 and recurses
        k, l = shape
        mu, nu = zw(*[2] * k), zw(*[2] * l)
        before = quasi_shuffle.cache_info()
        lc = quasi_shuffle(mu, nu)
        assert quasi_shuffle.cache_info() == before
        assert lc.mass() == _delannoy(k, l)
        assert len(lc) == {(300, 1): 301, (7, 7): 610}[shape]

    @pytest.mark.parametrize("order", [1, 3])
    def test_recursion_matches_the_pattern_sum(self, order):
        # the recursion serves products past _MAX_PATTERNS; below it the
        # two routes must agree
        words = all_indexed_words(5, max_depth=3, order=order)
        for mu in words:
            for nu in words:
                if mu.weight + nu.weight > 5:
                    break
                assert _delannoy(len(mu), len(nu)) <= _MAX_PATTERNS
                recursed = LinComb(_interleave(mu, nu, _merge_pairs).items())
                assert recursed == quasi_shuffle(mu, nu), (mu, nu)

    @pytest.mark.parametrize("order", [1, 3])
    def test_past_the_pattern_limit_matches_bruteforce(self, order):
        marks = group_elements(order)
        mu = IndexedWord((s, marks[s % order]) for s in (1, 2, 3, 4, 5))
        nu = IndexedWord((s, marks[(s + 1) % order]) for s in (2, 1, 2, 3, 1))
        assert _delannoy(5, 5) > _MAX_PATTERNS
        assert quasi_shuffle(mu, nu) == brute_quasi_shuffle(mu, nu)

    def test_terms_are_index_words(self):
        lc = quasi_shuffle(zw(2, 1), IndexedWord(((1, MINUS_ONE),)))
        assert lc and all(type(w) is IndexedWord for w in lc.words())

    def test_results_do_not_share_the_memo(self):
        mu, nu = zw(2, 1), IndexedWord(((1, MINUS_ONE), (2, ONE)))
        first = quasi_shuffle(mu, nu)
        expected = brute_quasi_shuffle(mu, nu)
        assert first == expected
        for changed in (-first, first - expected, first - first, first * 3):
            assert changed != expected
            assert quasi_shuffle(mu, nu) == expected
        assert first == expected

    def test_products_keep_separate_memos(self):
        mu, nu = zw(3, 1), IndexedWord(((2, MINUS_ONE), (1, ONE)))
        u, v = sword(X0, MINUS_ONE, X1), sword(X1, X0, X1)
        for product, a, b, other in ((quasi_shuffle, mu, nu, shuffle),
                                     (shuffle, u, v, quasi_shuffle)):
            own, untouched = product.cache_info(), other.cache_info()
            product(a, b)
            assert product.cache_info() != own
            assert other.cache_info() == untouched


class TestProductLaws:
    @pytest.mark.parametrize("order", [1, 2])
    def test_shuffle_commutative_and_associative(self, order):
        words = all_shuffle_words(4, order)
        pool = [w for w in words if len(w) <= 3]
        for u in pool:
            for v in pool:
                if len(u) + len(v) <= 6:
                    assert shuffle(u, v) == shuffle(v, u)
        small = [w for w in words if len(w) <= 2]
        for u in small:
            for v in small:
                for w in small:
                    if len(u) + len(v) + len(w) <= 6:
                        left = bilinear(shuffle, shuffle(u, v), LinComb.single(w))
                        right = bilinear(shuffle, LinComb.single(u), shuffle(v, w))
                        assert left == right

    @pytest.mark.parametrize("order", [1, 2])
    def test_quasi_shuffle_commutative_and_associative(self, order):
        words = all_indexed_words(4, order=order)
        for mu in words:
            for nu in words:
                if mu.weight + nu.weight <= 6:
                    assert quasi_shuffle(mu, nu) == quasi_shuffle(nu, mu)
        small = [w for w in words if w.weight <= 2]
        for u in small:
            for v in small:
                for w in small:
                    if u.weight + v.weight + w.weight <= 6:
                        left = bilinear(quasi_shuffle, quasi_shuffle(u, v),
                                        LinComb.single(w))
                        right = bilinear(quasi_shuffle, LinComb.single(u),
                                         quasi_shuffle(v, w))
                        assert left == right


class TestOperators:
    def test_exponent_raise(self):
        assert op_P(LinComb.single(zw(2, 1))) == LinComb.single(zw(3, 1))

    def test_prepend_on_unit(self):
        b = MINUS_ONE
        assert op_Q(b, LinComb.single(IndexedWord())) == \
            LinComb.single(IndexedWord(((1, b),)))

    def test_prepend_marked(self):
        got = op_Q(MINUS_ONE, LinComb.single(IndexedWord(((2, ONE),))))
        assert got == LinComb.single(IndexedWord(((1, MINUS_ONE), (2, ONE))))

    def test_raise_rejects_unit(self):
        with pytest.raises(DomainError):
            op_P(LinComb.single(IndexedWord()))

    @pytest.mark.parametrize("order", [1, 2])
    def test_rota_baxter_relations(self, order):
        # the four splitting identities characterizing the transported product
        prod = lambda x, y: bilinear(product_b, x, y)
        words = all_indexed_words(2, order=order)
        nonempty = [w for w in words if w.depth > 0]
        singles = {w: LinComb.single(w) for w in words}
        marks = group_elements(order)
        for mu in nonempty:
            for nu in nonempty:
                if mu.weight + nu.weight + 2 > 6:
                    continue
                x, y = singles[mu], singles[nu]
                assert prod(op_P(x), op_P(y)) == \
                    op_P(prod(x, op_P(y))) + op_P(prod(op_P(x), y))
        for mu in words:
            for nu in words:
                if mu.weight + nu.weight + 2 > 6:
                    continue
                x, y = singles[mu], singles[nu]
                for a in marks:
                    for b in marks:
                        lhs = prod(op_Q(a, x), op_Q(b, y))
                        rhs = op_Q(a, prod(x, op_Q(b, y))) + \
                            op_Q(b, prod(op_Q(a, x), y))
                        assert lhs == rhs
        for mu in nonempty:
            for nu in words:
                if mu.weight + nu.weight + 2 > 6:
                    continue
                x, y = singles[mu], singles[nu]
                for b in marks:
                    lhs = prod(op_P(x), op_Q(b, y))
                    rhs = op_Q(b, prod(op_P(x), y)) + op_P(prod(x, op_Q(b, y)))
                    assert lhs == rhs
                    lhs = prod(op_Q(b, y), op_P(x))
                    rhs = op_Q(b, prod(y, op_P(x))) + op_P(prod(op_Q(b, y), x))
                    assert lhs == rhs
