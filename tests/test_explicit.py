"""Coefficient calculus, index-pair machinery, and the closed-form products."""

import tracemalloc
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from doubleshuffle import (MINUS_ONE, ONE, DomainError, GroupElement,
                           IndexedWord, binomial, coeff, coeff_factor,
                           coeff_nonzero, enum_compositions, enum_index_pairs,
                           enum_shuffle_perms, epsilon, explicit_product_b,
                           explicit_product_e, group_elements, h_value,
                           merge_marks_b, merge_marks_e, op_Q, pair_of_sigma,
                           perm_coeff, perm_product_b, product_b, product_e,
                           sigma_of_pair)
from doubleshuffle import explicit
from doubleshuffle.core import LinComb
from doubleshuffle.explicit import (_B_COORDS, _E_COORDS, IndexPair, _lattice,
                                    _merged_marks, _perm_walks, _shape_walks,
                                    amp, dagger,
                                    extend_phi_leading, extend_psi_leading,
                                    restrict_phi_leading,
                                    restrict_psi_leading, sharp, star)
from doubleshuffle.maps import theta_marks

from helpers import all_indexed_words, mw, zw


def pair_at(k, l, *positions):
    return IndexPair.from_phi_image(k, l, positions)


class TestEnumerations:
    def test_index_pairs_1_1(self):
        pairs = list(enum_index_pairs(1, 1))
        assert [p.phi_image for p in pairs] == [(1,), (2,)]

    def test_index_pairs_2_2(self):
        pairs = list(enum_index_pairs(2, 2))
        assert len(pairs) == 6
        images = [p.phi_image for p in pairs]
        assert images == sorted(images)

    def test_degenerate_pair(self):
        pairs = list(enum_index_pairs(0, 3))
        assert len(pairs) == 1
        assert pairs[0].phi_image == ()
        assert pairs[0].psi_image == (1, 2, 3)

    def test_counts(self):
        for k in range(5):
            for l in range(5):
                assert len(list(enum_index_pairs(k, l))) == binomial(k + l, k)

    def test_compositions_4_2(self):
        assert list(enum_compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]

    def test_compositions_tight(self):
        assert list(enum_compositions(3, 3)) == [(1, 1, 1)]

    def test_compositions_count(self):
        assert len(list(enum_compositions(5, 3))) == 6
        for n in range(1, 9):
            for m in range(1, n + 1):
                assert len(list(enum_compositions(n, m))) == binomial(n - 1, m - 1)

    def test_compositions_empty_when_infeasible(self):
        assert list(enum_compositions(2, 3)) == []


class TestRouting:
    def test_h_basic(self):
        p = pair_at(1, 1, 1)
        assert h_value(p, (2,), (3,), 1) == 2
        assert h_value(p, (2,), (3,), 2) == 3

    def test_h_degenerate(self):
        p = pair_at(0, 3)
        s = (4, 1, 2)
        assert [h_value(p, (), s, i) for i in (1, 2, 3)] == [4, 1, 2]

    def test_h_interleaved(self):
        p = pair_at(2, 1, 1, 3)
        assert [h_value(p, (5, 7), (4,), i) for i in (1, 2, 3)] == [5, 4, 7]

    def test_route_places_each_source_at_its_image(self):
        for k in range(4):
            for l in range(4):
                a = tuple(f"a{j}" for j in range(1, k + 1))
                b = tuple(f"b{j}" for j in range(1, l + 1))
                for pair in enum_index_pairs(k, l):
                    routed = pair.route(a, b)
                    assert len(routed) == k + l
                    for j, i in enumerate(pair.phi_image, 1):
                        assert routed[i - 1] == a[j - 1]
                    for j, i in enumerate(pair.psi_image, 1):
                        assert routed[i - 1] == b[j - 1]

    def test_h_out_of_range(self):
        with pytest.raises(DomainError):
            h_value(pair_at(1, 1, 1), (2,), (3,), 3)

    def test_epsilon(self):
        p = pair_at(2, 1, 1, 3)
        assert [epsilon(p, i) for i in (1, 2, 3)] == [1, -1, 1]
        assert epsilon(pair_at(0, 2), 1) == -1
        assert epsilon(pair_at(1, 0, 1), 1) == 1
        with pytest.raises(DomainError):
            epsilon(p, 0)


class TestCoefficient:
    def test_factor_hand_values(self):
        p = pair_at(1, 1, 1)
        r, s = (2,), (2,)
        assert coeff_factor(p, r, s, (3, 1), 1) == 2
        assert coeff_factor(p, r, s, (3, 1), 2) == 1
        assert coeff_factor(p, r, s, (2, 2), 1) == 1
        assert coeff_factor(p, r, s, (2, 2), 2) == 1
        assert coeff_factor(p, r, s, (1, 3), 1) == 0

    def test_coeff_hand_values(self):
        p = pair_at(1, 1, 1)
        assert coeff(p, (2,), (2,), (3, 1)) == 2
        assert coeff(p, (2,), (2,), (1, 3)) == 0

    def test_degenerate_is_kronecker_delta(self):
        p = pair_at(0, 2)
        assert coeff(p, (), (2, 1), (2, 1)) == 1
        assert coeff(p, (), (2, 1), (1, 2)) == 0
        q = pair_at(2, 0, 1, 2)
        assert coeff(q, (3, 1), (), (3, 1)) == 1
        assert coeff(q, (3, 1), (), (2, 2)) == 0

    def test_nonzero_predicate_examples(self):
        p = pair_at(1, 1, 1)
        assert coeff_nonzero(p, (2,), (2,), (3, 1))
        assert not coeff_nonzero(p, (2,), (2,), (1, 3))
        # leading part smaller than both leading exponents kills every pair
        for pr in enum_index_pairs(2, 1):
            assert not coeff_nonzero(pr, (2, 1), (3,), (1, 4, 1))

    def _instances(self, max_weight, max_arity):
        for k in range(1, max_arity):
            for l in range(1, max_arity - k + 1):
                for w in range(k + l, max_weight + 1):
                    for wr in range(k, w - l + 1):
                        for r in enum_compositions(wr, k):
                            for s in enum_compositions(w - wr, l):
                                for pair in enum_index_pairs(k, l):
                                    for t in enum_compositions(w, k + l):
                                        yield pair, r, s, t

    def test_nonzero_predicate_matches_coefficient(self):
        for pair, r, s, t in self._instances(10, 4):
            assert coeff_nonzero(pair, r, s, t) == (coeff(pair, r, s, t) != 0)

    def test_vanishing_conditions(self):
        for pair, r, s, t in self._instances(8, 4):
            if t[0] < min(r[0], s[0]):
                assert coeff(pair, r, s, t) == 0
            if pair.in_phi(1) and s[0] == 1 and t[0] > r[0]:
                assert coeff(pair, r, s, t) == 0
            if not pair.in_phi(1) and r[0] == 1 and t[0] > s[0]:
                assert coeff(pair, r, s, t) == 0


class TestCoefficientRecursions:
    def test_shift_invariance_of_factors(self):
        # shifting the leading exponent of one source and of the target
        # together leaves every later factor unchanged
        for pair, r, s, t in TestCoefficient()._instances(8, 4):
            n = len(t)
            for a in range(-1, min(t[0], r[0])):
                ra = (r[0] - a,) + r[1:]
                ta = (t[0] - a,) + t[1:]
                for i in range(2, n + 1):
                    assert coeff_factor(pair, ra, s, ta, i) == \
                        coeff_factor(pair, r, s, t, i)
            for b in range(-1, min(t[0], s[0])):
                sb = (s[0] - b,) + s[1:]
                tb = (t[0] - b,) + t[1:]
                for i in range(2, n + 1):
                    assert coeff_factor(pair, r, sb, tb, i) == \
                        coeff_factor(pair, r, s, t, i)

    def test_leading_slot_removal(self):
        for pair, r, s, t in TestCoefficient()._instances(8, 4):
            n = len(t)
            if pair.in_phi(1) and r[0] == 1 and t[0] == 1:
                dropped = restrict_phi_leading(pair)
                for i in range(1, n):
                    assert coeff_factor(pair, r, s, t, i + 1) == \
                        coeff_factor(dropped, r[1:], s, t[1:], i)
            if not pair.in_phi(1) and s[0] == 1 and t[0] == 1:
                dropped = restrict_psi_leading(pair)
                for i in range(1, n):
                    assert coeff_factor(pair, r, s, t, i + 1) == \
                        coeff_factor(dropped, r, s[1:], t[1:], i)

    def test_pascal_recursion(self):
        for pair, r, s, t in TestCoefficient()._instances(8, 4):
            if r[0] >= 2 and s[0] >= 2:
                if t[0] >= 2:
                    down_t = (t[0] - 1,) + t[1:]
                    assert coeff(pair, r, s, t) == \
                        coeff(pair, (r[0] - 1,) + r[1:], s, down_t) + \
                        coeff(pair, r, (s[0] - 1,) + s[1:], down_t)
                else:
                    assert coeff(pair, r, s, t) == 0

    def test_both_leading_ones(self):
        for pair, r, s, t in TestCoefficient()._instances(8, 4):
            if r[0] == 1 and s[0] == 1:
                if t[0] == 1:
                    if pair.in_phi(1):
                        assert coeff(pair, r, s, t) == \
                            coeff(restrict_phi_leading(pair), r[1:], s, t[1:])
                    else:
                        assert coeff(pair, r, s, t) == \
                            coeff(restrict_psi_leading(pair), r, s[1:], t[1:])
                else:
                    assert coeff(pair, r, s, t) == 0

    def test_mixed_leading(self):
        for pair, r, s, t in TestCoefficient()._instances(8, 4):
            if r[0] == 1 and s[0] >= 2:
                if t[0] == 1:
                    if pair.in_phi(1):
                        assert coeff(pair, r, s, t) == \
                            coeff(restrict_phi_leading(pair), r[1:], s, t[1:])
                    else:
                        assert coeff(pair, r, s, t) == 0
                else:
                    assert coeff(pair, r, s, t) == \
                        coeff(pair, r, (s[0] - 1,) + s[1:], (t[0] - 1,) + t[1:])


class TestMerges:
    def test_merge_b_orders(self):
        a, b = (GroupElement(1, 5),), (GroupElement(2, 5),)
        assert merge_marks_b(pair_at(1, 1, 1), a, b) == (a[0], b[0])
        assert merge_marks_b(pair_at(1, 1, 2), a, b) == (b[0], a[0])

    def test_merge_b_trivial_group(self):
        for pair in enum_index_pairs(2, 2):
            assert merge_marks_b(pair, (ONE, ONE), (ONE, ONE)) == (ONE,) * 4

    def test_merge_b_arity_mismatch(self):
        with pytest.raises(DomainError):
            merge_marks_b(pair_at(1, 1, 1), (ONE, ONE), (ONE,))

    def test_merge_e_depth_one(self):
        w, z = GroupElement(1, 5), GroupElement(2, 5)
        assert merge_marks_e(pair_at(1, 1, 1), (w,), (z,)) == (w, z / w)
        assert merge_marks_e(pair_at(1, 1, 2), (w,), (z,)) == (z, w / z)

    def test_merge_e_trailing_switch(self):
        w = (GroupElement(1, 7),)
        z = (GroupElement(2, 7), GroupElement(3, 7))
        got = merge_marks_e(pair_at(1, 2, 3), w, z)
        assert got == (z[0], z[1], w[0] / (z[0] * z[1]))

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_theta_intertwines_merges(self, order):
        marks = group_elements(order)
        for k in (1, 2):
            for l in (1, 2):
                for pair in enum_index_pairs(k, l):
                    for a in _tuples(marks, k):
                        for b in _tuples(marks, l):
                            lhs = theta_marks(merge_marks_b(pair, a, b))
                            rhs = merge_marks_e(pair, theta_marks(a),
                                                theta_marks(b))
                            assert lhs == rhs


def quotient_rule(pair, w, z):
    """The e-form merge position by position: a same-source run copies
    its mark, and a source switch takes the quotient of the two sources'
    prefix products so far, the switching source's on top."""
    sources = pair.route((True,) * pair.k, (False,) * pair.l)
    prod = {True: ONE, False: ONE}
    out = []
    for i, (mark, src) in enumerate(zip(pair.route(w, z), sources)):
        prod[src] *= mark
        out.append(prod[src] / prod[not src]
                   if i and sources[i - 1] != src else mark)
    return tuple(out)


# orders 4 and 5 stop at k + l = 4: their depths 3 and 3 alone have 20
# and 32 times the index pairs of the cases they keep
@pytest.mark.parametrize("order, most", [(1, 6), (2, 6), (3, 6), (4, 4), (5, 4)])
def test_kernel_merges_match_the_spec_forms(order, most):
    """Every pair of mark vectors of depths k, l <= 3 with k + l <= most,
    the empty vector included: the kernel's merged marks and rows equal the
    spec merges pair by pair, and its e-form equals the per-position
    quotient rule, which does not go through theta."""
    vectors = [v for n in range(4) for v in _tuples(group_elements(order), n)]
    for a in vectors:
        for b in (v for v in vectors if len(a) + len(v) <= most):
            pairs = list(enum_index_pairs(len(a), len(b)))
            for coords, merge in ((_B_COORDS, merge_marks_b),
                                  (_E_COORDS, merge_marks_e)):
                merged = _merged_marks.__wrapped__(coords, a, b)[1]
                assert len(merged) == len(pairs)
                for pair, (marks, rows) in zip(pairs, merged):
                    assert marks == merge(pair, a, b), (pair, a, b)
                    assert all(row is m.pairs for row, m in zip(rows, marks))
                    if coords is _E_COORDS:
                        assert marks == quotient_rule(pair, a, b), (pair, a, b)


def _tuples(pool, n):
    from itertools import product
    return product(pool, repeat=n)


class TestExplicitProducts:
    def test_depth_one_square(self):
        assert explicit_product_b(zw(2), zw(2)) == \
            LinComb([(zw(2, 2), 2), (zw(3, 1), 4)])

    def test_depth_one_times_two(self):
        assert explicit_product_b(zw(2), zw(2, 1)) == \
            LinComb([(zw(2, 2, 1), 3), (zw(2, 1, 2), 1), (zw(3, 1, 1), 6)])

    def test_unit_convention(self):
        nu = zw(2, 1)
        assert explicit_product_b(IndexedWord(), nu) == LinComb.single(nu)
        assert explicit_product_b(nu, IndexedWord()) == LinComb.single(nu)
        assert explicit_product_e(IndexedWord(), nu) == LinComb.single(nu)
        unit = IndexedWord()
        assert explicit_product_b(unit, unit) == LinComb.single(unit)

    def test_e_form_trivial_group(self):
        for mu in all_indexed_words(4):
            for nu in all_indexed_words(4):
                if mu.weight + nu.weight <= 5:
                    assert explicit_product_e(mu, nu) == explicit_product_b(mu, nu)

    def test_e_form_sign_square(self):
        m = IndexedWord(((2, MINUS_ONE),))
        expected = LinComb(
            [(IndexedWord(((2, MINUS_ONE), (2, ONE))), 2),
             (IndexedWord(((3, MINUS_ONE), (1, ONE))), 4)])
        assert explicit_product_e(m, m) == expected
        assert product_e(m, m) == expected

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_oracle_small(self, order):
        words = all_indexed_words(5, max_depth=3, order=order)
        for mu in words:
            for nu in words:
                if mu.weight + nu.weight <= 6:
                    assert explicit_product_b(mu, nu) == product_b(mu, nu)
                    assert explicit_product_e(mu, nu) == product_e(mu, nu)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_random_roots(self, data):
        marks = group_elements(3)
        def draw_word():
            depth = data.draw(st.integers(0, 3))
            pairs = tuple((data.draw(st.integers(1, 3)),
                           data.draw(st.sampled_from(marks)))
                          for _ in range(depth))
            return IndexedWord(pairs)
        mu, nu = draw_word(), draw_word()
        assert explicit_product_b(mu, nu) == product_b(mu, nu)
        assert explicit_product_e(mu, nu) == product_e(mu, nu)

    def test_mass_identity(self):
        for mu in all_indexed_words(4):
            for nu in all_indexed_words(4):
                got = explicit_product_b(mu, nu)
                assert got.mass() == binomial(mu.weight + nu.weight, mu.weight)


def exponent_vectors(weight, n):
    """All n-vectors of positive integers summing to weight; () for n = 0."""
    if n == 0:
        return [()] if weight == 0 else []
    return list(enum_compositions(weight, n))


@lru_cache(maxsize=None)
def unpruned_coefficients(r, s):
    """Per index pair, every composition t of the total weight with its
    coefficient, zeros dropped; the marks play no part."""
    total, n = sum(r) + sum(s), len(r) + len(s)
    return [(pair, [(t, c) for t in enum_compositions(total, n)
                    if (c := coeff(pair, r, s, t))])
            for pair in enum_index_pairs(len(r), len(s))]


def unpruned_terms(mu, nu, merge):
    """The closed-form terms by the definition: every index pair, every
    composition of the total weight, the coefficient of each, zeros dropped."""
    for pair, terms in unpruned_coefficients(mu.exponents, nu.exponents):
        marks = merge(pair, mu.marks, nu.marks)
        for t, c in terms:
            yield IndexedWord(tuple(zip(t, marks))), c


def closed_form_words(mu, nu, coords, walks=_shape_walks):
    """The terms the closed form sums, index pair by index pair, as
    ``(word, c)``: each pair's merged marks zipped with its walked terms,
    each word built through the checking ``IndexedWord`` constructor."""
    return [(IndexedWord(zip(t, marks)), c)
            for (marks, _), walked in zip(
                _merged_marks(coords, mu.marks, nu.marks)[1],
                walks(mu.exponents, nu.exponents))
            for t, c in walked.items()]


class TestPrunedWalk:
    def test_walk_is_the_nonzero_set(self):
        for k in range(4):
            for l in range(4):
                for w in range(max(k + l, 1), 10):
                    for wr in range(w + 1):
                        for r in exponent_vectors(wr, k):
                            for s in exponent_vectors(w - wr, l):
                                pairs = list(enum_index_pairs(k, l))
                                targets = [{} for _ in pairs]
                                _lattice(r, s, targets)
                                for pair, terms in zip(pairs, targets):
                                    walked = list(terms.items())
                                    assert [t for t, _ in walked] == [
                                        t for t in enum_compositions(w, k + l)
                                        if coeff_nonzero(pair, r, s, t)]
                                    for t, c in walked:
                                        assert c == coeff(pair, r, s, t)

    def test_terms_match_unpruned_sum_root_3(self):
        third, two_thirds = GroupElement(1, 3), GroupElement(2, 3)
        words = [IndexedWord(((2, third), (1, ONE), (3, two_thirds))),
                 IndexedWord(((1, two_thirds), (2, two_thirds))),
                 IndexedWord(((3, ONE), (1, third))),
                 IndexedWord(((2, third),))]
        for mu in words:
            for nu in words:
                for merge, coords in ((merge_marks_b, _B_COORDS),
                                      (merge_marks_e, _E_COORDS)):
                    assert closed_form_words(mu, nu, coords) == \
                        list(unpruned_terms(mu, nu, merge))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_summed_products_match_unpruned_sum(self, order):
        """Every pair of words of total weight <= 6: terms that share their
        merged marks, within one index pair or across pairs, sum as in the
        definition, on all three closed-form routes."""
        by_weight = [[] for _ in range(7)]
        for w in all_indexed_words(6, order=order):
            by_weight[w.weight].append(w)
        # the unpruned sum has no composition of 0; unit * unit is checked
        # in TestExplicitProducts
        pairs = [(mu, nu) for wa in range(7) for wb in range(7 - wa)
                 if wa + wb for mu in by_weight[wa] for nu in by_weight[wb]]
        for mu, nu in pairs:
            want_b = LinComb(unpruned_terms(mu, nu, merge_marks_b))
            want_e = LinComb(unpruned_terms(mu, nu, merge_marks_e))
            assert explicit_product_b(mu, nu) == want_b, (mu, nu)
            assert perm_product_b(mu, nu) == want_b, (mu, nu)
            assert explicit_product_e(mu, nu) == want_e, (mu, nu)

    def test_perm_coefficients_match_e_form_term_by_term(self):
        mu = IndexedWord(((2, GroupElement(1, 3)), (1, ONE), (3, ONE)))
        nu = IndexedWord(((1, GroupElement(2, 3)), (2, GroupElement(1, 3))))
        perm = closed_form_words(mu, nu, _B_COORDS, _perm_walks)
        e_form = closed_form_words(mu, nu, _E_COORDS)
        assert len(perm) == len(e_form) > 0
        for (pw, pc), (ew, ec) in zip(perm, e_form):
            assert pw.exponents == ew.exponents
            assert pc == ec


    def test_mixed_shape_call_sequences_match_the_oracle(self):
        third, two_thirds = GroupElement(1, 3), GroupElement(2, 3)
        shape_a = [(IndexedWord(((2, m1), (1, ONE))), IndexedWord(((3, m2),)))
                   for m1, m2 in ((third, ONE), (MINUS_ONE, two_thirds))]
        # same depths and weight as shape A, other exponents
        shape_b = [(IndexedWord(((1, two_thirds), (3, third))),
                    IndexedWord(((2, MINUS_ONE),)))]
        _shape_walks.cache_clear()
        routes = ((explicit_product_b, product_b), (explicit_product_e, product_e),
                  (perm_product_b, product_b))
        for mu, nu in (shape_a[0], shape_b[0], shape_a[1], shape_a[0]):
            for closed, oracle in routes:
                assert closed(mu, nu) == oracle(mu, nu), (closed.__name__, mu, nu)
        assert _shape_walks.cache_info().hits > 0

    def test_mark_variant_call_sequences_match_the_oracle(self):
        # one exponent shape, (2, 1) times (3); the marks change between
        # calls in both factors, in only the left and in only the right
        third, two_thirds = GroupElement(1, 3), GroupElement(2, 3)
        variant_a = ((third, ONE), (ONE,))
        variant_b = ((MINUS_ONE, two_thirds), (third,))
        only_right = ((third, ONE), (two_thirds,))
        only_left = ((ONE, third), (ONE,))
        _shape_walks.cache_clear()
        _merged_marks.cache_clear()
        routes = ((explicit_product_b, product_b), (explicit_product_e, product_e),
                  (perm_product_b, product_b))
        for a, b in (variant_a, variant_b, variant_a, only_right, only_left,
                     variant_a):
            mu = IndexedWord.from_parts((2, 1), a)
            nu = IndexedWord.from_parts((3,), b)
            for closed, oracle in routes:
                assert closed(mu, nu) == oracle(mu, nu), (closed.__name__, mu, nu)
            for coords in (_B_COORDS, _E_COORDS):
                for marks, rows in _merged_marks(coords, a, b)[1]:
                    assert len(rows) == len(marks)
                    assert all(row is m.pairs for row, m in zip(rows, marks))
        assert _merged_marks.cache_info().hits > 0


def words_up_to(weight, marks=None):
    """Every pair of nonempty words of total weight <= ``weight``; with
    ``marks``, each word of depth k carries ``marks(k)``, and otherwise
    the trivial marks."""
    words = [w for w in all_indexed_words(weight - 1) if w]
    if marks is not None:
        words = [IndexedWord.from_parts(w.exponents, marks(len(w)))
                 for w in words]
    return [(mu, nu) for mu in words for nu in words
            if mu.weight + nu.weight <= weight]


class TestOneSumRoute:
    """A product whose index pairs all merge to one mark vector is walked
    straight into one ``{t: c}`` sum; it must equal the per-pair sum."""

    def check_one_sum(self, mu, nu, merge, coords, closed):
        one_class, _ = _merged_marks(coords, mu.marks, nu.marks)
        assert one_class, (mu, nu)
        got = closed(mu, nu)
        assert got == LinComb(closed_form_words(mu, nu, coords)), (mu, nu)
        assert got == LinComb(unpruned_terms(mu, nu, merge)), (mu, nu)
        return got

    def test_trivial_group_matches_the_per_pair_sums(self):
        for mu, nu in words_up_to(7):
            got_b = self.check_one_sum(mu, nu, merge_marks_b, _B_COORDS,
                                       explicit_product_b)
            got_e = self.check_one_sum(mu, nu, merge_marks_e, _E_COORDS,
                                       explicit_product_e)
            assert got_b == got_e == perm_product_b(mu, nu), (mu, nu)

    @pytest.mark.parametrize("mark", [GroupElement(1, 3), GroupElement(2, 3)])
    def test_equal_marks_root_3_b_form(self, mark):
        for mu, nu in words_up_to(6, marks=lambda k: (mark,) * k):
            got = self.check_one_sum(mu, nu, merge_marks_b, _B_COORDS,
                                     explicit_product_b)
            assert got == perm_product_b(mu, nu) == product_b(mu, nu), (mu, nu)

    def test_perm_form_recomputes_every_walked_coefficient(self, monkeypatch):
        mu, nu = zw(3, 1, 2), zw(2, 2)
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return real(*args)
        real = explicit._perm_coeff_fast
        monkeypatch.setattr(explicit, "_perm_coeff_fast", counted)
        got = perm_product_b(mu, nu)
        walked = _shape_walks(mu.exponents, nu.exponents)
        assert calls == [t for terms in walked for t in terms]
        assert got == explicit_product_b(mu, nu)

    def test_no_route_recurses_per_position(self):
        # far deeper than the interpreter's recursion limit
        depth = 1100
        ones = zw(*(1,) * depth)
        want_ones = LinComb.single(zw(*(1,) * (depth + 1)), depth + 1)
        # a -1 mark: each pair merges to its own vector, with the -1 at the
        # pair's psi position
        minus = ((1, MINUS_ONE),)
        marked = IndexedWord(minus)
        want_marked = LinComb({IndexedWord(ones[:i] + minus + ones[i:]): 1
                               for i in range(depth + 1)})
        assert not _merged_marks.__wrapped__(_B_COORDS, ones.marks,
                                             marked.marks)[0]
        try:
            assert explicit_product_e(ones, zw(1)) == want_ones
            assert explicit_product_b(zw(1), ones) == want_ones
            tracemalloc.start()
            try:
                assert explicit_product_b(ones, marked) == want_marked
                # a multi-class product moves the one-entry shape cache on;
                # the deep merge, past _KEPT_MARKS, was never kept
                explicit_product_b(zw(2), mw((2,), (MINUS_ONE,)))
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held < 2 ** 20
            assert perm_product_b(ones, marked) == want_marked
        finally:
            _shape_walks.cache_clear()

    def test_only_small_merges_are_kept(self):
        minus = mw((1,) * 4, (MINUS_ONE,) * 4)
        _merged_marks.cache_clear()
        try:
            # C(12, 4) * 12 = 5,940 marks are kept, C(13, 4) * 13 = 9,295 not
            assert comb(12, 4) * 12 <= explicit._KEPT_MARKS < comb(13, 4) * 13
            explicit_product_e(zw(*(1,) * 8), minus)
            assert _merged_marks.cache_info().currsize == 1
            explicit_product_e(zw(*(1,) * 9), minus)
            assert _merged_marks.cache_info().currsize == 1
        finally:
            _merged_marks.cache_clear()
            _shape_walks.cache_clear()


class TestPermutationForm:
    def test_enumeration_count(self):
        assert len(list(enum_shuffle_perms(2, 2))) == 6

    def test_depth_one_identity_perm(self):
        sigma = (1, 2)
        assert perm_coeff(sigma, (2,), (2,), (3, 1)) == 2
        assert pair_of_sigma(sigma, 1).phi_image == (1,)

    def test_no_switch_factors(self):
        # order-preserving block permutation: every factor is C(t_i-1, kappa_i-1)
        sigma = (1, 2, 3, 4)
        r, s = (2, 1), (3, 1)
        t = (2, 1, 3, 1)
        expected = 1
        for ti, ki in zip(t, r + s):
            expected *= binomial(ti - 1, ki - 1)
        assert perm_coeff(sigma, r, s, t) == expected

    def test_round_trip_2_2(self):
        for pair in enum_index_pairs(2, 2):
            assert pair_of_sigma(sigma_of_pair(pair), 2) == pair

    def test_round_trip_general(self):
        for k in range(0, 5):
            for l in range(0, 5 - k):
                for pair in enum_index_pairs(k, l):
                    sigma = sigma_of_pair(pair)
                    assert pair_of_sigma(sigma, k) == pair

    def test_epsilon_preserved(self):
        for k in (1, 2):
            for l in (1, 2):
                for pair in enum_index_pairs(k, l):
                    sigma = sigma_of_pair(pair)
                    for i in range(1, k + l + 1):
                        eps_sigma = 1 if sigma[i - 1] <= k else -1
                        assert eps_sigma == epsilon(pair, i)

    def test_rejects_non_shuffle(self):
        with pytest.raises(DomainError):
            perm_coeff((2, 1, 3), (1, 2), (1,), (1, 1, 2))

    def test_coefficients_agree(self):
        for k in (1, 2):
            for l in (1, 2):
                for wr in range(k, 5):
                    for ws in range(l, 5):
                        for r in enum_compositions(wr, k):
                            for s in enum_compositions(ws, l):
                                for pair in enum_index_pairs(k, l):
                                    sigma = sigma_of_pair(pair)
                                    for t in enum_compositions(wr + ws, k + l):
                                        assert perm_coeff(sigma, r, s, t) == \
                                            coeff(pair, r, s, t)

    def test_product_path(self):
        for mu in all_indexed_words(4, max_depth=2):
            for nu in all_indexed_words(4, max_depth=2):
                if mu.weight + nu.weight <= 5:
                    assert perm_product_b(mu, nu) == explicit_product_b(mu, nu)


class TestIndexMapBijections:
    def test_shift_maps(self):
        assert dagger((1, 3, 4)) == (2, 3)
        assert sharp((2, 4)) == (1, 3)
        assert amp((2, 3)) == (1, 3, 4)
        assert star((1, 2)) == (2, 3)
        assert dagger((1,)) == ()

    def test_round_trips(self):
        for k in range(0, 6):
            for l in range(0, 6 - k):
                for pair in enum_index_pairs(k, l):
                    if k >= 1 and pair.in_phi(1):
                        assert amp(dagger(pair.phi_image)) == pair.phi_image
                        down = restrict_phi_leading(pair)
                        assert extend_phi_leading(down) == pair
                        assert down.psi_image == sharp(pair.psi_image)
                    if l >= 1 and not pair.in_phi(1):
                        down = restrict_psi_leading(pair)
                        assert extend_psi_leading(down) == pair
                        assert down.phi_image == sharp(pair.phi_image)
                        assert down.psi_image == dagger(pair.psi_image)

    def test_restricted_cardinalities(self):
        for k in range(1, 6):
            for l in range(0, 6 - k):
                constrained = [p for p in enum_index_pairs(k, l) if p.in_phi(1)]
                assert len(constrained) == binomial(k + l - 1, k - 1)
                assert len(constrained) == len(list(enum_index_pairs(k - 1, l)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            restrict_phi_leading(pair_at(1, 1, 2))
        with pytest.raises(DomainError):
            restrict_psi_leading(pair_at(1, 1, 1))

    @pytest.mark.parametrize("order", [1, 2])
    def test_prepend_identity(self, order):
        # prepending (1, a1) to a merged word re-routes through the extended pair
        marks = group_elements(order)
        for k in (1, 2):
            for l in (1, 2):
                for wt in (k + l - 1, k + l + 1):
                    for t in enum_compositions(wt, k + l - 1):
                        for a in _tuples(marks, k):
                            for b in _tuples(marks, l):
                                for pair in enum_index_pairs(k - 1, l):
                                    merged = merge_marks_b(pair, a[1:], b)
                                    word = IndexedWord(tuple(zip(t, merged)))
                                    lhs = op_Q(a[0], LinComb.single(word))
                                    ext = extend_phi_leading(pair)
                                    rhs = IndexedWord(tuple(zip(
                                        (1,) + t, merge_marks_b(ext, a, b))))
                                    assert lhs == LinComb.single(rhs)
                                for pair in enum_index_pairs(k, l - 1):
                                    merged = merge_marks_b(pair, a, b[1:])
                                    word = IndexedWord(tuple(zip(t, merged)))
                                    lhs = op_Q(b[0], LinComb.single(word))
                                    ext = extend_psi_leading(pair)
                                    rhs = IndexedWord(tuple(zip(
                                        (1,) + t, merge_marks_b(ext, a, b))))
                                    assert lhs == LinComb.single(rhs)
