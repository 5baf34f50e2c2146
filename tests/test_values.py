"""Relation generators, numeric values and their verification."""

import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
from itertools import product as iter_product

import pytest

from doubleshuffle import (MINUS_ONE, ONE, DomainError, GroupElement,
                           IndexedWord, LinComb, Relation, binomial,
                           double_shuffle_relations, enum_compositions,
                           euler_relation, explicit_product_e, group_elements,
                           hoffman_difference, lambda_numeric, mpl_numeric,
                           quasi_shuffle, textio, theta, values,
                           verify_relation_numeric, worked_examples)
from doubleshuffle.explicit import IndexPair
from doubleshuffle.maps import theta_inv_marks
from doubleshuffle.values import (NumericValue, VerificationReport,
                                  admissible_words, indexed_words,
                                  relation_stream)

from bruteforce import loop_mpl, loop_partial_sums
from helpers import full_depth_relations, mw, zw

N = 100_000


class TestEulerRelation:
    def test_square(self):
        rel = euler_relation(2, 2)
        assert rel.combination == LinComb([(zw(2, 2), 2), (zw(3, 1), 4)])
        assert rel.factors == (zw(2), zw(2))
        assert not rel.is_zero_sum

    def test_2_3(self):
        rel = euler_relation(2, 3)
        assert rel.combination == LinComb(
            [(zw(2, 3), 1), (zw(3, 2), 3), (zw(4, 1), 6)])

    def test_mass(self):
        assert euler_relation(2, 3).combination.mass() == binomial(5, 2) == 10

    def test_rejects_divergent_arguments(self):
        with pytest.raises(DomainError):
            euler_relation(1, 3)
        with pytest.raises(DomainError):
            euler_relation(3, 1)

    def test_matches_closed_form(self):
        for r in range(2, 5):
            for s in range(2, 5):
                assert euler_relation(r, s).combination == \
                    explicit_product_e(zw(r), zw(s))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_two_marks_match_closed_form(self, order):
        """The generalized decomposition of zeta(r; w) zeta(s; z), whose
        second marks are the quotients z/w and w/z, for every pair of marks
        of the order, exponent 1 included."""
        marks = group_elements(order)
        for w in marks:
            for z in marks:
                for r in range(1, 6):
                    for s in range(1, 6):
                        rel = values._depth_1_1_marked(r, s, w, z)
                        assert rel.combination == \
                            explicit_product_e(*rel.factors), (r, s, w, z)

    def test_two_marks_numeric(self):
        rel = values._depth_1_1_marked(2, 3, MINUS_ONE, GroupElement(1, 3))
        assert verify_relation_numeric(rel, N, 1e-3).passed


class TestDoubleShuffleRelations:
    def test_weight_four(self):
        rels = double_shuffle_relations(4, 2)
        assert len(rels) == 1
        rel = rels[0]
        assert rel.factors == (zw(2), zw(2))
        assert rel.combination == LinComb([(zw(3, 1), 4), (zw(4), -1)])

    def test_weight_five_contains_classic(self):
        rels = double_shuffle_relations(5, 2)
        by_factors = {r.factors: r.combination for r in rels}
        assert by_factors[(zw(2), zw(3))] == LinComb(
            [(zw(3, 2), 2), (zw(4, 1), 6), (zw(5), -1)])

    def test_empty_differences_are_dropped(self):
        for rels in (double_shuffle_relations(4, 2),
                     double_shuffle_relations(6, 3)):
            assert all(r.combination for r in rels)

    def test_deterministic(self):
        assert double_shuffle_relations(6, 3) == double_shuffle_relations(6, 3)

    def test_list_of_the_stream_then_hoffman_differences(self):
        rels = double_shuffle_relations(6, 3, order=3)
        assert isinstance(rels, list) and rels
        stream = relation_stream(6, 3, 3, hoffman=True)
        assert iter(stream) is stream, "relations are yielded, not collected"
        streamed = list(stream)
        assert streamed[:len(rels)] == rels
        hoffman = [hoffman_difference(nu) for nu in admissible_words(5, 2, 3)]
        assert streamed[len(rels):] == [r for r in hoffman if r.combination]

    @pytest.mark.parametrize("weight, depth, order",
                             [(w, d, order) for order in (1, 2, 3)
                              for w in range(1, 10) for d in range(1, 6)])
    def test_every_unordered_pair_within_the_depth(self, weight, depth, order):
        # against every weight class listed up front to the full depth, with
        # the Hoffman differences on and off in a checkerboard
        hoffman = (weight + depth) % 2 == 0
        expected = full_depth_relations(weight, depth, order, hoffman)
        assert list(relation_stream(weight, depth, order, hoffman)) == expected
        pairs = [r for r in expected if r.kind == "double-shuffle"]
        if depth == 1 or weight == 1:
            assert not pairs
        elif weight == 2:
            # only pairs of weight-one words, which need a nontrivial mark
            assert bool(pairs) == (order > 1)
        elif weight >= 4:
            assert pairs

    def test_stream_builds_no_word_list(self, monkeypatch):
        def refused(*args):
            raise AssertionError("relation_stream listed its words")

        expected = full_depth_relations(6, 3, 3, hoffman=True)
        monkeypatch.setattr(values, "admissible_words", refused)
        monkeypatch.setattr(values, "indexed_words", refused)
        assert list(relation_stream(6, 3, 3, hoffman=True)) == expected

    def test_first_relation_builds_three_words(self, monkeypatch):
        # (1|0/1) is not admissible, (1|1/3) is, and (8) is its first partner
        built = []
        words = values._words

        def recorded(*args):
            for word in words(*args):
                built.append(word)
                yield word

        monkeypatch.setattr(values, "_words", recorded)
        first = next(relation_stream(9, 5, 3))
        assert first.factors == (mw((1,), (GroupElement(1, 3),)), zw(8))
        assert built == [mw((1,), (ONE,)), *first.factors]

    def test_first_relation_of_a_huge_stream_at_once(self):
        # listing the words of weight 19 to depth 7 over the cube roots would
        # build 47.7 M of them
        tracemalloc.start()
        try:
            first = next(relation_stream(20, 8, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.factors == (mw((1,), (GroupElement(1, 3),)), zw(19))
        assert peak < 2 ** 20

    @pytest.mark.parametrize("depth", [0, -3])
    def test_no_relation_below_depth_one(self, depth):
        assert list(relation_stream(5, depth, hoffman=True)) == []
        assert list(relation_stream(5, depth, 3, hoffman=True)) == []
        assert admissible_words(4, depth) == []

    @pytest.mark.parametrize("weight, depth, order",
                             [(5, 3, 3), (6, 2, 4), (4, 4, 1), (7, 1, 2),
                              (2, 3, 2), (3, 0, 1)])
    def test_indexed_words_are_the_marks_shared_pairs(self, weight, depth,
                                                       order):
        marks = group_elements(order)
        words = indexed_words(weight, depth, order)
        assert words == [IndexedWord.from_parts(comp, ms)
                         for comp in enum_compositions(weight, depth)
                         for ms in iter_product(marks, repeat=depth)]
        assert bool(words) == (1 <= depth <= weight)
        for word in words:
            assert type(word) is IndexedWord
            assert all(word[i] is mark.pairs[s]
                       for i, (s, mark) in enumerate(word))

    def test_sign_group_runs(self):
        rels = double_shuffle_relations(4, 2, order=2)
        assert rels
        assert all(r.combination for r in rels)


class TestHoffmanDifference:
    def test_classic_instance(self):
        rel = hoffman_difference(zw(2))
        assert rel.combination == LinComb([(zw(2, 1), 1), (zw(3), -1)])

    def test_weight_four_instance(self):
        # by hand: interleaving side (1,3)+(2,2)+2(3,1), merge side (1,3)+(3,1)+(4)
        rel = hoffman_difference(zw(3))
        assert rel.combination == LinComb(
            [(zw(2, 2), 1), (zw(3, 1), 1), (zw(4), -1)])
        assert all(w.is_admissible for w in rel.combination.words())

    def test_outputs_admissible_up_to_weight_six(self):
        for w in range(2, 7):
            for nu in admissible_words(w, w):
                rel = hoffman_difference(nu)
                assert all(word.is_admissible for word in rel.combination.words())

    def test_rejects_inadmissible(self):
        with pytest.raises(DomainError):
            hoffman_difference(zw(1, 2))


class TestWorkedExamples:
    def test_all_match_closed_form(self):
        for name, rel in worked_examples().items():
            got = explicit_product_e(*rel.factors)
            assert rel.combination == got, name

    def test_depth_1_2_frozen_value(self):
        rel = worked_examples()["zeta-1x2"]
        assert rel.factors == (zw(2), zw(2, 1))
        assert rel.combination == LinComb(
            [(zw(2, 2, 1), 3), (zw(2, 1, 2), 1), (zw(3, 1, 1), 6)])

    def test_alternating_frozen_value(self):
        rel = worked_examples()["alternating-1x1"]
        assert rel.combination == LinComb(
            [(IndexedWord(((2, MINUS_ONE), (2, ONE))), 2),
             (IndexedWord(((3, MINUS_ONE), (1, ONE))), 4)])


class TestNumeric:
    def test_zeta_two(self):
        got = mpl_numeric(zw(2), N)
        assert abs(got.value - math.pi ** 2 / 6) <= got.tail_estimate <= 1e-13
        assert abs(got.value.imag) == 0.0

    def test_alternating_depth_one(self):
        got = mpl_numeric(IndexedWord(((2, MINUS_ONE),)), N)
        assert abs(got.value.real + math.pi ** 2 / 12) < 1e-9

    def test_empty_word(self):
        got = mpl_numeric(IndexedWord(), 10)
        assert got.value == 1.0
        assert got.tail_estimate == 0.0

    def test_monotone_in_truncation(self):
        """A larger cap on the terms never loosens the bound, and every
        bound covers the true error."""
        zeta3 = 1.2020569031595942
        for word, want in ((zw(2), math.pi ** 2 / 6), (zw(2, 1), zeta3),
                           (zw(3, 1, 1), None)):
            got = [mpl_numeric(word, n) for n in (10, 100, 1000, 5000)]
            bounds = [v.tail_estimate for v in got]
            assert all(a >= b for a, b in zip(bounds, bounds[1:])), bounds
            for v in got:
                assert abs(v.value - (want or got[-1].value)) <= \
                    v.tail_estimate + bounds[-1]

    def test_rejects_inadmissible(self):
        with pytest.raises(DomainError):
            mpl_numeric(zw(1, 2), 100)

    def test_conditional_gate(self):
        word = IndexedWord(((1, MINUS_ONE),))
        with pytest.raises(DomainError):
            mpl_numeric(word, 10_000)
        got = mpl_numeric(word, 10_000, allow_conditional=True)
        assert abs(got.value + math.log(2)) <= got.tail_estimate <= 1e-13
        # its own series has no tail bound, so the split must fit the cap
        with pytest.raises(DomainError, match="too slowly"):
            mpl_numeric(word, 10, allow_conditional=True)

    def test_exponent_past_float_range_sums_to_one(self):
        """The value is 1 to within 2**-(10**400), and the word's own series
        reaches it in one term, with only rounding in the bound."""
        for n_terms in (1, 1000):
            got = mpl_numeric.__wrapped__(zw(10 ** 400), n_terms, False)
            assert got.value == 1.0
            assert got.truncation_n == 1
            assert abs(got.value - 1.0) <= got.tail_estimate < 1e-15

    @pytest.mark.parametrize("num", (1, 10 ** 400 - 1), ids=("one", "den-1"))
    def test_denominator_past_float_range_is_near_the_identity(self, num):
        """The mark is within 1e-399 of 1, so the value is zeta(2) to double
        precision.  The split would need far more than 1000 terms, so the
        word's own series is summed to 1000, with a tail of about 1/1000."""
        got = mpl_numeric(mw((2,), (GroupElement(num, 10 ** 400),)), 1000)
        assert got.truncation_n == 1000
        assert abs(got.value - math.pi ** 2 / 6) <= got.tail_estimate < 1.1e-3

    def test_lambda_trivial_group(self):
        assert lambda_numeric(zw(2, 1), 1000) == mpl_numeric(zw(2, 1), 1000)

    def test_lambda_two_paths(self):
        word = IndexedWord(((2, MINUS_ONE),))
        via_transform = lambda_numeric(word, 10_000)
        # independent direct series for the transformed marks
        z = [b.to_complex() for b in theta(word).marks]
        direct = sum(z[0] ** n / n ** 2 for n in range(1, 10_001))
        assert abs(via_transform.value - direct) < 1e-8
        assert lambda_numeric(IndexedWord(), 10).value == 1.0


def own_series(word, n_terms):
    """The word's own series truncated at ``n_terms``, as the library's
    series kernel sums it from the reduced angles of the marks."""
    steps = values._own_steps(values._parts(word))
    return (-1) ** word.depth * values._series(steps, n_terms)[-1]


# Truncations at, and on either side of, the kernel's block boundaries.
B = values._BLOCK
ORACLE_N = (1, 2 * B - 1, 2 * B, 2 * B + 1, 6 * B + 5)
ORACLE_WORDS = [w for order in (2, 3) for k in range(1, 4)
                for w in admissible_words(k, k, order)
                if order == 3 or w.marks.count(MINUS_ONE)]


@pytest.fixture(scope="module")
def oracle_values():
    """N -> the per-word loop's value of every oracle word truncated at N,
    read off one loop over n <= max(ORACLE_N) per word."""
    table = [loop_partial_sums(w, ORACLE_N) for w in ORACLE_WORDS]
    return {n: [row[i] for row in table] for i, n in enumerate(ORACLE_N)}


# Words whose marks are all +-1 give real letters: an odd number of
# suffixes of length 1, and some of lengths 2 and 3.
PAIRED_WORDS = [zw(2), zw(3, 1), mw((2,), (MINUS_ONE,)),
                mw((2, 1), (MINUS_ONE, ONE)), zw(2, 1, 1),
                mw((3, 2, 1), (ONE, MINUS_ONE, ONE))]
# Marks of order 3 over real inner letters, and a sign over a root:3 one.
ROOT_OVER_PAIRED = [mw((2, 1), (GroupElement(1, 3), ONE)),
                    mw((2, 2, 1), (GroupElement(2, 3), MINUS_ONE, ONE)),
                    mw((2, 1), (MINUS_ONE, GroupElement(1, 3)))]


class TestSweep:
    """The value cache: each word summed once, the least recently used
    evicted first, and the cache shared between threads; and the word's own
    series, summed a block of terms at a time, against the per-word loop."""

    @pytest.mark.parametrize("n_terms", ORACLE_N)
    def test_matches_per_word_loop(self, n_terms, oracle_values):
        for word, want in zip(ORACLE_WORDS, oracle_values[n_terms]):
            assert abs(own_series(word, n_terms) - want) <= 1e-13, word

    def test_shared_suffixes_in_one_call_then_cached(self, monkeypatch):
        """One round of calls sums each distinct word once; a second round
        is answered by the cache and sums nothing."""
        third = GroupElement(1, 3)
        words = [zw(2, 1, 1), zw(3, 1, 1), mw((1, 1), (MINUS_ONE, ONE)),
                 zw(2, 1, 1), mw((2, 1, 1), (third, ONE, ONE)),
                 mw((1, 2, 1), (MINUS_ONE, third, ONE)),
                 mw((3, 2, 1), (third, third, ONE)), IndexedWord(), zw(4)]
        n_terms = 2 * B + 3
        want = [mpl_numeric.__wrapped__(w, n_terms, True) for w in words]
        mpl_numeric.cache_clear()
        sums = []
        real_sum = values._sum
        monkeypatch.setattr(values, "_sum", lambda w, n:
                            sums.append(w) or real_sum(w, n))
        got = [mpl_numeric(w, n_terms, True) for w in words]
        assert got == want
        assert sums == list(dict.fromkeys(words))
        assert mpl_numeric.cache_info().currsize == len(set(words))
        assert [mpl_numeric(w, n_terms, True) for w in words] == want
        assert len(sums) == len(set(words)), "a cached value was summed again"

    @pytest.mark.parametrize("n_terms", (2 * B - 1, 2 * B + 1, 6 * B + 5))
    @pytest.mark.parametrize("words", [PAIRED_WORDS, PAIRED_WORDS + ROOT_OVER_PAIRED],
                             ids=["real", "root-3-over-real"])
    def test_paired_real_nodes_match_per_word_loop(self, words, n_terms):
        real = {w[i:] for w in words for i in range(w.depth)
                if all(m.den <= 2 for m in w.marks[i:])}
        per_length = [sum(len(u) == d for u in real) for d in (1, 2, 3)]
        assert per_length[0] % 2 and all(per_length), per_length
        got = [own_series(w, n_terms) for w in words]
        for word, value in zip(words, got):
            assert abs(value - loop_mpl(word, n_terms)) <= 1e-13, word
        for word, value in zip(words, got):
            if all(m.den <= 2 for m in word.marks):
                assert isinstance(value, float), word
                assert mpl_numeric(word, n_terms).value.imag == 0.0, word

    def test_cache_keeps_the_most_recently_used(self, monkeypatch):
        """The cache holds at most _CACHE_SIZE values: after that many newer
        words, the oldest is summed again, while a word used since is not."""
        mpl_numeric.cache_clear()
        sums = []
        real_sum = values._sum
        monkeypatch.setattr(values, "_sum", lambda w, n:
                            sums.append(w) or real_sum(w, n))
        size = values._CACHE_SIZE
        a, b = zw(2), zw(3)
        newer = [zw(s) for s in range(4, size + 3)]
        for w in [a, b, a] + newer:  # the hit on a makes b the oldest
            mpl_numeric(w, 3, False)
        info = mpl_numeric.cache_info()
        assert info.maxsize == size == 4096
        assert info.currsize == size
        assert len(sums) == size + 1
        mpl_numeric(a, 3, False)
        assert len(sums) == size + 1
        mpl_numeric(b, 3, False)
        assert sums[-1] == b and len(sums) == size + 2
        assert mpl_numeric.cache_info().currsize == size

    def test_cache_shared_between_threads(self):
        """Four threads over one cache, with a fifth clearing it, switching
        as often as the interpreter allows, so clears race lookups and
        stores; each thread gets the values one thread gets."""
        words = [IndexedWord(((s, ONE),)) for s in range(2, 40)]
        want = {w: mpl_numeric.__wrapped__(w, 3, False) for w in words}
        errors = []
        got = [{} for _ in range(4)]
        done = threading.Event()

        def run(i):
            mine = words[i % 2::2]
            try:
                for _ in range(100):
                    for w in mine:
                        got[i][w] = mpl_numeric(w, 3, False)
            except Exception as exc:
                errors.append(exc)

        def clear():
            while not done.is_set():
                mpl_numeric.cache_clear()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        clearer = threading.Thread(target=clear)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clearer.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            done.set()
            clearer.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [clearer])
        assert errors == []
        assert mpl_numeric.cache_info().currsize <= values._CACHE_SIZE
        for seen in got:
            assert len(seen) == len(words) // 2
            for w, val in seen.items():
                assert val == want[w]

    def test_memory_bounded_in_truncation(self):
        """Also for a mark too close to 1 to split, whose own series takes
        all its terms, a block at a time."""
        third = GroupElement(1, 3)
        for word, n_terms in (
                (mw((3, 1, 2, 1), (third, ONE, third * third, third)), 10 ** 6),
                (mw((2,), (GroupElement(1, 10 ** 400),)), 10 ** 5)):
            tracemalloc.start()
            try:
                got = mpl_numeric.__wrapped__(word, n_terms, False)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20
            assert got.tail_estimate < 1.1 / n_terms

    @pytest.mark.parametrize("num, den", [(999_999_999_989, 10 ** 12),
                                          (10 ** 29 + 7, 10 ** 30)])
    def test_large_denominator_phases_are_exact(self, num, den):
        # num * n overflows int64 at den = 10**30; the oracle's residues
        # are Python integers, the library's angle is reduced exactly
        mark = GroupElement(num, den)
        word = mw((2, 1, 3), (mark, GroupElement(1, 3), mark))
        n_terms = 2 * B + 3
        assert abs(own_series(word, n_terms) - loop_mpl(word, n_terms)) <= 1e-13

    def test_overflowing_powers_warn_nothing_and_sum_as_before(self):
        """n ** s is past the largest double from n = 7,100 at s = 80, and
        from n = 35 at s = 200; its reciprocal 0.0 is the right double, so
        the series takes it quietly, and the values are the nearest ones."""
        words = [zw(80), mw((80,), (MINUS_ONE,)),
                 mw((200, 80), (GroupElement(1, 3), ONE))]
        n_terms = 2 * B + 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [own_series(w, n_terms) for w in words]
            vals = [mpl_numeric(w, n_terms) for w in words]
        for word, value in zip(words, got):
            assert abs(value - loop_mpl(word, n_terms)) <= 1e-15, word
        for val, want in zip(vals, (1.0, -1.0, 0.0)):
            assert abs(val.value - want) <= val.tail_estimate < 1e-14

    def test_large_denominator_memory_stays_small(self):
        """A mark of order 10**7: its split would need far more than 10
        terms, so the word's own series is summed to 10."""
        word = mw((2,), (GroupElement(1, 10 ** 7),))
        tracemalloc.start()
        try:
            got = mpl_numeric(word, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert got.truncation_n == 10
        assert abs(got.value - loop_mpl(word, 10)) <= 1e-15


def mp_value(word, mp, y):
    """(-1)^k I(1; a) at the precision of ``mp``, apart from the library:
    split at y, each piece summed from its power series, built letter by
    letter from the inside, to enough terms that its tail is below 1e-20."""
    a = []
    for (s, _), b in zip(word, theta_inv_marks(word.marks)):
        a += [0] * (s - 1) + [mp.mpf(1 - 2 * b.num) if b.den <= 2 else
                              mp.expjpi(2 * mp.mpf(b.num) / b.den)]
    upper = [(1 - c) / (1 - y) for c in a]  # U_j: the first j, reversed
    lower = [c / y for c in reversed(a)]    # L_j: the last n - j, reversed
    ratio = max(abs(1 / c) for c in upper + lower if c != 0)
    terms = int(60 / -mp.log(ratio)) + 6 * len(a)

    def pieces(letters):
        """I(1; piece) for the empty piece and after each letter added
        outside, the innermost letter first."""
        f = [mp.mpf(1)] + [0] * terms
        out = [mp.mpf(1)]
        for c in letters:
            if c == 0:
                f = [0] + [f[m] / m for m in range(1, terms + 1)]
            else:
                g, new = 0, [0]
                for m in range(terms):
                    g = (f[m] + g) / c
                    new.append(-g / (m + 1))
                f = new
            out.append(mp.fsum(f))
        return out

    us, ls = pieces(upper), pieces(lower)[::-1]
    value = mp.fsum((-1) ** j * u * low for j, (u, low) in enumerate(zip(us, ls)))
    return complex((-1) ** word.depth * value)


ZETA3 = 1.2020569031595942
CLOSED_FORMS = [
    (zw(3), ZETA3),
    (zw(2, 1), ZETA3),
    (zw(3, 1), math.pi ** 4 / 360),
    (zw(2, 2), math.pi ** 4 / 120),
    (zw(2, 2, 2), math.pi ** 6 / math.factorial(7)),
    (mw((1,), (MINUS_ONE,)), -math.log(2)),
    (mw((2,), (MINUS_ONE,)), -math.pi ** 2 / 12),
    (mw((1, 1), (MINUS_ONE, MINUS_ONE)),
     (math.log(2) ** 2 - math.pi ** 2 / 6) / 2),
]
# Words of weight <= 6 over root:1..4 and <= 3 over root:13, with a second
# split point: any y' in (1 - d, 1), d the least |1 - b| of the letters.
SPLIT_WORDS = [(order, weight, y) for order, top, y in
               ((1, 6, 0.75), (2, 6, 0.75), (3, 6, 0.75), (4, 6, 0.75),
                (13, 3, 0.88))
               for weight in range(1, top + 1)]


class TestEvaluator:
    """Values and bounds of the Hölder convolution."""

    @pytest.mark.parametrize("word, want", CLOSED_FORMS,
                             ids=[str(w) for w, _ in CLOSED_FORMS])
    def test_closed_forms(self, word, want):
        got = mpl_numeric(word, N, allow_conditional=True)
        assert abs(got.value - want) <= got.tail_estimate <= 1e-13
        assert got.truncation_n < 100

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath").mp
        third = GroupElement(1, 3)

        def lerch(n):  # sum_{i >= 0} (-1)^i / (n + i)
            return (mp.digamma((n + 1) / mp.mpf(2))
                    - mp.digamma(n / mp.mpf(2))) / 2

        with mp.workdps(30):
            # Li_{2,1}(z, -1) = sum_n z^n / n^2 sum_{j<n} (-1)^j / j, summed
            # over each residue of n mod 6, where z^n and (-1)^n are constant
            z = mp.expjpi(mp.mpf(2) / 3)
            li21 = sum(z ** r * mp.nsum(
                lambda q, r=r: (-mp.log(2) - (-1) ** r * lerch(6 * q + r))
                / (6 * q + r) ** 2, [0, mp.inf]) for r in range(1, 7))
            cases = [(mw((2,), (GroupElement(1, 4),)), mp.polylog(2, 1j)),
                     (mw((3,), (GroupElement(1, 6),)),
                      mp.polylog(3, mp.expjpi(mp.mpf(1) / 3))),
                     (mw((2, 1), (third, MINUS_ONE)), li21)]
            for word, want in cases:
                got = mpl_numeric(word, N)
                assert abs(got.value - complex(want)) <= \
                    got.tail_estimate <= 1e-13

    @pytest.mark.parametrize("order, weight, y", SPLIT_WORDS)
    def test_two_split_points_agree(self, order, weight, y):
        for word in admissible_words(weight, weight, order):
            got = values._sum(word, N)
            other, error = values._convolve(
                *values._split(values._parts(word), y, N))
            other *= (-1) ** word.depth
            assert abs(got.value - other) <= got.tail_estimate + error, word

    def test_bounds_cover_the_true_error(self):
        """Against a 30-digit evaluation split at a third point: all words
        of weight <= 3 over root:1..4, and every 200th of the others above."""
        mp = pytest.importorskip("mpmath").mp
        cases = []
        for order, weight, _ in SPLIT_WORDS:
            words = admissible_words(weight, weight, order)
            cases += words if order <= 4 and weight <= 3 else words[::200]
        with mp.workdps(30):
            for word in cases:
                y = mp.mpf(0.8) if any(m.den == 13 for m in word.marks) \
                    else mp.mpf(0.625)
                got = values._sum(word, N)
                assert abs(got.value - mp_value(word, mp, y)) <= \
                    got.tail_estimate, word

    def test_own_series_is_the_truncated_sum(self):
        """With too few terms for the split, a word is its own series
        truncated at the cap, as summed from the definition."""
        third = GroupElement(1, 3)
        for word in (zw(2, 1), mw((2, 1), (third, ONE)),
                     mw((3, 2), (MINUS_ONE, GroupElement(1, 4)))):
            got = mpl_numeric(word, 20)
            assert got.truncation_n == 20
            assert abs(got.value - loop_mpl(word, 20)) < 1e-14

    def test_threads_sum_identical_values(self):
        """Four threads evaluating at once, switching as often as the
        interpreter allows, get the values one thread gets."""
        words = admissible_words(5, 3, 3)[::7]
        evaluate = mpl_numeric.__wrapped__
        want = [evaluate(w, N, True) for w in words]
        got = [None] * 4

        def run(i):
            got[i] = [evaluate(w, N, True) for w in words]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4


def _bits(val):
    """A NumericValue as exact bits: float.hex tells -0.0 from 0.0."""
    return (val.value.real.hex(), val.value.imag.hex(), val.truncation_n,
            val.tail_estimate.hex())


class TestMemos:
    """The tail bounds, the chain moduli and the parsed words are memoised;
    the memos change no bit of a value and stay bounded."""

    TAILS = (values._geometric_tail, values._power_tail, values._chain_moduli)

    @pytest.mark.parametrize("weight, order", [(6, 2), (5, 3)])
    def test_values_equal_with_the_tail_memos_cold_and_warm(
            self, monkeypatch, weight, order):
        words = {}
        for rel in relation_stream(weight, 3, order, hoffman=True):
            for word in list(rel.factors) + [w for w, _ in
                                             rel.combination.items()]:
                if word.is_admissible:
                    words[word] = None
        evaluate = mpl_numeric.__wrapped__
        cold = {}
        for word in words:
            for tail in self.TAILS:
                tail.cache_clear()
            cold[word] = _bits(evaluate(word, N, True))
        warm = {word: _bits(evaluate(word, N, True)) for word in words}
        for tail in self.TAILS:
            assert tail.cache_info().hits > 0
            monkeypatch.setattr(values, tail.__name__, tail.__wrapped__)
        bare = {word: _bits(evaluate(word, N, True)) for word in words}
        assert len(words) > 40
        assert cold == warm == bare

    def test_every_memo_is_bounded(self):
        for memo in self.TAILS + (textio._word,):
            maxsize = memo.cache_info().maxsize
            assert isinstance(maxsize, int) and maxsize > 0, memo


class TestVerification:
    def test_euler_2_3(self):
        report = verify_relation_numeric(euler_relation(2, 3), N, 1e-3)
        assert report.passed
        assert report.residual < 1e-3

    def test_sum_representation_product(self):
        rel = Relation("product", (zw(2), zw(3)),
                       quasi_shuffle(zw(2), zw(3)))
        report = verify_relation_numeric(rel, N, 1e-3)
        assert report.passed
        assert report.residual < 1e-3

    def test_weight_four_double_shuffle(self):
        rel = double_shuffle_relations(4, 2)[0]
        report = verify_relation_numeric(rel, N, 1e-3)
        assert report.passed
        assert report.residual < 1e-3

    def test_alternating_example(self):
        rel = worked_examples()["alternating-1x1"]
        report = verify_relation_numeric(rel, N, 1e-3)
        assert report.passed
        assert report.residual < 1e-3

    def test_wrong_relation_fails(self):
        bogus = Relation("double-shuffle", (zw(2), zw(2)),
                         LinComb.single(zw(2)))
        report = verify_relation_numeric(bogus, N, 1e-3)
        assert not report.passed

    def test_every_word_goes_through_mpl_numeric(self, monkeypatch):
        rel = euler_relation(2, 3)
        seen = []
        real = values.mpl_numeric
        monkeypatch.setattr(values, "mpl_numeric",
                            lambda w, n, a: seen.append(w) or real(w, n, a))
        verify_relation_numeric(rel, 1000, 1e-3)
        assert seen == [w for w, _ in rel.combination.items()] + list(rel.factors)

    def test_cache_info_counts_summed_words_then_hits(self):
        """A first verify misses once per uncached word and hits only the
        cached ones; a second verify hits every word."""
        mpl_numeric.cache_clear()
        rel = euler_relation(2, 3)
        calls = len(rel.combination) + len(rel.factors)
        mpl_numeric(zw(2), 1000, False)  # one factor, summed now
        mpl_numeric(zw(2), 1000, False)
        cached = mpl_numeric.cache_info()
        assert (cached.hits, cached.misses) == (1, 1)
        verify_relation_numeric(rel, 1000, 1e-3)
        first = mpl_numeric.cache_info()
        assert first.misses - cached.misses == len(rel.combination) + 1
        assert first.hits - cached.hits == 1
        assert (first.maxsize, first.currsize) == (values._CACHE_SIZE, calls)
        verify_relation_numeric(rel, 1000, 1e-3)
        second = mpl_numeric.cache_info()
        assert second.misses == first.misses
        assert second.hits - first.hits == calls

    def test_verify_stops_at_the_first_refused_word(self, monkeypatch):
        """A product whose terms are summable but whose first factor
        converges only conditionally: verify caches the terms, raises on
        that factor, and neither caches it nor sums the factor after it."""
        mpl_numeric.cache_clear()
        refused = mw((1,), (MINUS_ONE,))
        rel = Relation("product", (refused, zw(3)),
                       LinComb([(zw(2, 2), 1), (zw(4), 2)]))
        sums = []
        real_sum = values._sum
        monkeypatch.setattr(values, "_sum", lambda w, n:
                            sums.append(w) or real_sum(w, n))
        with pytest.raises(DomainError, match="conditionally"):
            verify_relation_numeric(rel, 100, 1e-3)
        assert sums == [w for w, _ in rel.combination.items()]
        info = mpl_numeric.cache_info()
        assert (info.misses, info.currsize) == (len(sums) + 1, len(sums))
        with pytest.raises(DomainError):
            mpl_numeric(refused, 100, False)
        assert mpl_numeric.cache_info().misses == info.misses + 1

    def test_uncached_evaluation_counts_nothing(self):
        word = zw(5, 1, 2)
        before = mpl_numeric.cache_info()
        mpl_numeric.__wrapped__(word, 100, False)
        assert mpl_numeric.cache_info() == before

    def test_inevaluable_word_raises(self):
        bad = Relation("double-shuffle", (), LinComb.single(zw(1, 2)))
        with pytest.raises(DomainError):
            verify_relation_numeric(bad, 100, 1e-3)

    def test_generated_relations_verify_up_to_weight_eight(self):
        for weight in range(4, 9):
            for rel in double_shuffle_relations(weight, 3):
                report = verify_relation_numeric(rel, N, 1e-3)
                assert report.passed, (rel.label, report)


# Each record, two equal copies of it, an unequal one, and its repr.
RECORDS = {
    "IndexPair": (lambda: IndexPair(2, 1, 3), IndexPair(2, 1, 5),
                  "IndexPair(k=2, l=1, phi_mask=3)"),
    "Relation": (lambda: euler_relation(2, 3), euler_relation(3, 2),
                 "Relation(kind='euler', factors=(IndexedWord('(2)'), "
                 "IndexedWord('(3)')), combination=LinComb(1*(2,3) + "
                 "3*(3,2) + 6*(4,1)))"),
    "NumericValue": (lambda: NumericValue(1.5 + 0j, 61, 2.5e-15),
                     NumericValue(1.5 + 0j, 62, 2.5e-15),
                     "NumericValue(value=(1.5+0j), truncation_n=61, "
                     "tail_estimate=2.5e-15)"),
    "VerificationReport": (lambda: VerificationReport(
                               residual=0.0, bound=1e-3, passed=True,
                               truncation_n=1000),
                           VerificationReport(0.5, 1e-3, False, 1000),
                           "VerificationReport(residual=0.0, bound=0.001, "
                           "passed=True, truncation_n=1000)"),
}


class TestRecords:
    """The four records keep the repr, equality, hash, immutability and
    validation they had as frozen dataclasses, and pickle."""

    @pytest.mark.parametrize("name", RECORDS)
    def test_repr_and_equality(self, name):
        make, other, text = RECORDS[name]
        one, two = make(), make()
        assert type(one).__name__ == name
        assert repr(one) == text
        assert one == two and not one != two
        assert one != other

    @pytest.mark.parametrize("name", ["IndexPair", "NumericValue",
                                      "VerificationReport"])
    def test_hash_is_the_field_tuple_hash(self, name):
        make, other, _ = RECORDS[name]
        one = make()
        fields = tuple(getattr(one, f) for f in one.__match_args__)
        assert hash(one) == hash(make()) == hash(fields)
        assert len({one, make(), other}) == 2

    def test_relation_is_unhashable_like_its_combination(self):
        with pytest.raises(TypeError):
            hash(euler_relation(2, 3))

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_cannot_be_assigned(self, name):
        one = RECORDS[name][0]()
        for field in one.__match_args__:
            with pytest.raises(AttributeError):
                setattr(one, field, None)
        with pytest.raises(AttributeError):
            one.extra = 1

    @pytest.mark.parametrize("name", RECORDS)
    def test_pickle_round_trip(self, name):
        one = RECORDS[name][0]()
        back = pickle.loads(pickle.dumps(one))
        assert type(back) is type(one)
        assert back == one and repr(back) == repr(one)

    @pytest.mark.parametrize("args, message", [
        ((-1, 0, 0), "k and l must be >= 0"),
        ((1, -1, 1), "k and l must be >= 0"),
        ((1, 1, 4), "mask has bits outside 1..k+l"),
        ((1, 1, -1), "mask has bits outside 1..k+l"),
        ((1, 1, 3), "mask size does not match k"),
    ])
    def test_index_pair_validation(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IndexPair(*args)

    def test_relation_validation(self):
        with pytest.raises(ValueError,
                           match=r"^unknown relation kind 'bogus'$"):
            Relation("bogus", (zw(2),), LinComb.single(zw(2)))
        with pytest.raises(ValueError):
            Relation(kind="bogus", factors=(), combination=LinComb())

    def test_euler_relation_keeps_its_type(self):
        rel = euler_relation(2, 3)
        assert type(rel) is Relation and rel.kind == "euler"
