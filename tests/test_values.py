"""Relation generators and truncated-sum verification."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from doubleshuffle import (MINUS_ONE, ONE, DomainError, GroupElement,
                           IndexedWord, LinComb, Relation, binomial,
                           double_shuffle_relations, euler_relation,
                           explicit_product_e, group_elements,
                           hoffman_difference, lambda_numeric, mpl_numeric,
                           quasi_shuffle, theta, values,
                           verify_relation_numeric, worked_examples)
from doubleshuffle.values import CHUNK, admissible_words, relation_stream

from bruteforce import loop_mpl, loop_partial_sums
from helpers import mw, zw

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
                             [(7, 3, 2), (6, 4, 3), (8, 2, 1), (5, 1, 2)])
    def test_every_unordered_pair_within_the_depth(self, weight, depth, order):
        expected = []
        for wa in range(1, weight // 2 + 1):
            words_a = admissible_words(wa, depth, order)
            words_b = admissible_words(weight - wa, depth, order)
            for ia, mu in enumerate(words_a):
                for nu in words_b[ia if 2 * wa == weight else 0:]:
                    if mu.depth + nu.depth <= depth:
                        diff = explicit_product_e(mu, nu) - quasi_shuffle(mu, nu)
                        if diff:
                            expected.append(
                                Relation("double-shuffle", (mu, nu), diff))
        assert expected or depth == 1
        assert double_shuffle_relations(weight, depth, order) == expected

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
        assert abs(got.value.real - math.pi ** 2 / 6) < 1.1e-5
        assert abs(got.value.imag) == 0.0
        assert got.tail_estimate == pytest.approx(1 / N)

    def test_alternating_depth_one(self):
        got = mpl_numeric(IndexedWord(((2, MINUS_ONE),)), N)
        assert abs(got.value.real + math.pi ** 2 / 12) < 1e-9

    def test_empty_word(self):
        got = mpl_numeric(IndexedWord(), 10)
        assert got.value == 1.0
        assert got.tail_estimate == 0.0

    def test_monotone_in_truncation(self):
        for word in (zw(2), zw(2, 1), zw(3, 1, 1)):
            values = [mpl_numeric(word, n).value.real
                      for n in (10, 100, 1000, 5000)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_inadmissible(self):
        with pytest.raises(DomainError):
            mpl_numeric(zw(1, 2), 100)

    def test_conditional_gate(self):
        word = IndexedWord(((1, MINUS_ONE),))
        with pytest.raises(DomainError):
            mpl_numeric(word, 10_000)
        got = mpl_numeric(word, 10_000, allow_conditional=True)
        assert abs(got.value.real + math.log(2)) < 1e-3
        assert got.tail_estimate == 0.0

    def test_exponent_past_float_range_sums_to_one(self):
        """n ** s is inf for every n >= 2 long before s = 10**400, so the
        sum is its n = 1 term, and the tail estimate is all but 0."""
        for n_terms in (1, 1000):
            got = values._evaluate(zw(10 ** 400), n_terms, False)
            assert got.value == 1.0
            assert 0.0 <= got.tail_estimate < 1e-300

    @pytest.mark.parametrize("num", (1, 10 ** 400 - 1), ids=("one", "den-1"))
    def test_denominator_past_float_range_is_near_the_identity(self, num):
        got = mpl_numeric(mw((2,), (GroupElement(num, 10 ** 400),)), 1000)
        assert abs(got.value - mpl_numeric(zw(2), 1000).value) < 1e-12

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


ORACLE_WORDS = [w for order in (1, 2, 3) for k in range(1, 7)
                for w in admissible_words(k, k, order)]
ORACLE_N = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)


@pytest.fixture(scope="module")
def oracle_values():
    """N -> the per-word loop's value of every oracle word truncated at N,
    read off one loop over n <= max(ORACLE_N) per word."""
    at = [n - 1 for n in ORACLE_N]
    table = [loop_partial_sums(w, max(ORACLE_N))[at] for w in ORACLE_WORDS]
    return {n: [complex(row[i]) for row in table]
            for i, n in enumerate(ORACLE_N)}


# Words whose marks are all +-1 give real nodes: an odd number of length 1,
# and some of lengths 2 and 3.
PAIRED_WORDS = [zw(2), zw(3, 1), mw((2,), (MINUS_ONE,)),
                mw((2, 1), (MINUS_ONE, ONE)), zw(2, 1, 1),
                mw((3, 2, 1), (ONE, MINUS_ONE, ONE))]
# Marks of order 3 over real inner nodes, and a sign over a root:3 node.
ROOT_OVER_PAIRED = [mw((2, 1), (GroupElement(1, 3), ONE)),
                    mw((2, 2, 1), (GroupElement(2, 3), MINUS_ONE, ONE)),
                    mw((2, 1), (MINUS_ONE, GroupElement(1, 3)))]


class TestSweep:
    """The chunked suffix-trie sweep against the per-word loop, exactly."""

    @pytest.mark.parametrize("n_terms", ORACLE_N)
    def test_matches_per_word_loop(self, n_terms, oracle_values):
        assert values._sweep(ORACLE_WORDS, n_terms) == oracle_values[n_terms]

    def test_shared_suffixes_in_one_call_then_cached(self, monkeypatch):
        third = GroupElement(1, 3)
        words = [zw(2, 1, 1), zw(3, 1, 1), mw((1, 1), (MINUS_ONE, ONE)),
                 zw(2, 1, 1), mw((2, 1, 1), (third, ONE, ONE)),
                 mw((1, 2, 1), (MINUS_ONE, third, ONE)),
                 mw((3, 2, 1), (third, third, ONE)), IndexedWord(), zw(4)]
        n_terms = 2 * CHUNK + 3
        monkeypatch.setattr(values, "_cache", {})
        sweeps = []
        real_sweep = values._sweep
        monkeypatch.setattr(values, "_sweep",
                            lambda ws, n: sweeps.append(ws) or real_sweep(ws, n))
        values._prefill(words, n_terms, allow_conditional=True)
        assert len(sweeps) == 1 and len(values._cache) == len(set(words))
        got = [mpl_numeric(w, n_terms, True) for w in words]
        assert [v.value for v in got] == [
            loop_mpl(w, n_terms) if w.depth else 1.0 for w in words]
        assert len(sweeps) == 1, "a cached value was summed again"
        values._prefill(words, n_terms, True)
        assert len(sweeps) == 1

    @pytest.mark.parametrize("n_terms", (CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5))
    @pytest.mark.parametrize("words", [PAIRED_WORDS, PAIRED_WORDS + ROOT_OVER_PAIRED],
                             ids=["real", "root-3-over-real"])
    def test_paired_real_nodes_match_per_word_loop(self, words, n_terms):
        real = {w[i:] for w in words for i in range(w.depth)
                if all(m.den <= 2 for m in w.marks[i:])}
        per_length = [sum(len(u) == d for u in real) for d in (1, 2, 3)]
        assert per_length[0] % 2 and all(per_length), per_length
        got = values._sweep(words, n_terms)
        assert got == [loop_mpl(w, n_terms) for w in words]
        assert all(v.imag == 0.0 for w, v in zip(words, got)
                   if all(m.den <= 2 for m in w.marks))

    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_real_nodes_of_one_length_share_rows(self, k, monkeypatch):
        words = [mw((s,), (mark,)) for s in (2, 3, 4) for mark in (ONE, MINUS_ONE)]
        calls = []
        cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum",
                            lambda *a, **kw: calls.append(1) or cumsum(*a, **kw))
        values._sweep(words[:k], 2 * CHUNK + 1)  # three chunks
        assert len(calls) == 3 * -(-k // 2)

    def test_cache_keeps_the_most_recently_used(self, monkeypatch):
        monkeypatch.setattr(values, "_cache", {})
        monkeypatch.setattr(values, "_CACHE_SIZE", 3)
        a, b, c, d = zw(2), zw(3), zw(4), zw(5)
        for w in (a, b, c, a, d):  # the hit on a makes b the oldest
            mpl_numeric(w, 10)
        assert [key[0] for key in values._cache] == [c, a, d]

    def test_cache_shared_between_threads(self, monkeypatch):
        """Four threads over one four-entry cache, switching as often as
        the interpreter allows, so evictions race lookups and stores."""
        monkeypatch.setattr(values, "_cache", {})
        monkeypatch.setattr(values, "_CACHE_SIZE", 4)
        words = [IndexedWord(((s, ONE),)) for s in range(2, 40)]
        errors, sizes = [], []
        got = [{} for _ in range(4)]

        def run(i):
            mine = words[i % 2::2]
            try:
                for _ in range(500):
                    for w in mine:
                        got[i][w] = mpl_numeric(w, 3)
                        sizes.append(len(values._cache))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert max(sizes) <= 4
        for seen in got:
            for w, val in seen.items():
                assert val == values._evaluate(w, 3, False)

    def test_prefill_stops_at_the_first_refused_word(self, monkeypatch):
        monkeypatch.setattr(values, "_cache", {})
        words = [zw(2), mw((1, 2), (MINUS_ONE, ONE)), zw(3)]
        values._prefill(words, 100, allow_conditional=False)
        assert [key[0] for key in values._cache] == [zw(2)]

    def test_prefill_leaves_cached_keys_in_place(self, monkeypatch):
        """A cached word is only probed: its key object and its place in
        the use order stay, even when the caller's word is another object."""
        monkeypatch.setattr(values, "_cache", {})
        for w in (zw(2), zw(3), zw(4)):
            mpl_numeric(w, 100)
        before = list(values._cache)
        values._prefill([zw(4), zw(2)], 100, False)
        after = list(values._cache)
        assert after == before
        assert all(a is b for a, b in zip(after, before))

    @pytest.mark.parametrize("num, den", [(999_999_999_989, 10 ** 12),
                                          (10 ** 29 + 7, 10 ** 30)])
    def test_large_denominator_phases_are_exact(self, num, den):
        # num * n overflows int64 at den = 10**30; the oracle's residues
        # are Python integers
        mark = GroupElement(num, den)
        word = mw((2, 1, 3), (mark, GroupElement(1, 3), mark))
        n_terms = 2 * CHUNK + 3
        assert values._sweep([word], n_terms) == [loop_mpl(word, n_terms)]

    def test_overflowing_powers_warn_nothing_and_sum_as_before(self):
        """n ** s is inf past about 1e308 (from n = 7,100 at s = 80, from
        n = 35 at s = 200); its reciprocal 0.0 is the right double, so the
        sweep takes it quietly."""
        words = [zw(80), mw((80,), (MINUS_ONE,)),
                 mw((200, 80), (GroupElement(1, 3), ONE))]
        n_terms = 2 * CHUNK + 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = values._sweep(words, n_terms)
        with np.errstate(over="ignore"):
            assert got == [loop_mpl(w, n_terms) for w in words]

    def test_large_denominator_memory_stays_small(self):
        word = mw((2,), (GroupElement(1, 10 ** 7),))
        tracemalloc.start()
        try:
            value = values._sweep([word], 10)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert value == loop_mpl(word, 10)

    def test_memory_bounded_in_truncation(self):
        third = GroupElement(1, 3)
        word = mw((3, 1, 2, 1), (third, ONE, third * third, third))
        tracemalloc.start()
        try:
            values._sweep([word], 10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


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

    def test_cache_info_counts_summed_words_then_hits(self, monkeypatch):
        monkeypatch.setattr(values, "_cache", {})
        rel = euler_relation(2, 3)
        calls = len(rel.combination) + len(rel.factors)
        start = mpl_numeric.cache_info()
        mpl_numeric(zw(2), 1000)  # one factor, summed now
        mpl_numeric(zw(2), 1000)
        cached = mpl_numeric.cache_info()
        assert (cached.hits - start.hits, cached.misses - start.misses) == (1, 1)
        verify_relation_numeric(rel, 1000, 1e-3)
        first = mpl_numeric.cache_info()
        assert first.misses - cached.misses == len(rel.combination) + 1
        assert first.hits - cached.hits == calls
        assert (first.maxsize, first.currsize) == (values._CACHE_SIZE, calls)
        verify_relation_numeric(rel, 1000, 1e-3)
        second = mpl_numeric.cache_info()
        assert second.misses == first.misses
        assert second.hits - first.hits == calls

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
