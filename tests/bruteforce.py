"""Independent brute-force oracles, kept free of the library's recursions.

``brute_shuffle`` enumerates interleavings by choosing the positions of the
first word among all slots.  ``brute_quasi_shuffle`` enumerates pairs of
order-preserving injections with covering images, merging the pairs that
land on a shared slot.  Both are plain exhaustive enumerations, so they can
be trusted as ground truth for small words.

``loop_mpl`` is the definitional numeric evaluation: the truncated nested
sum, term by term, with each mark's power taken from its exact angle;
``loop_partial_sums`` reads it off at several truncations.
"""

import cmath
from itertools import combinations

from doubleshuffle import ONE, IndexedWord, LinComb, ShuffleWord


def brute_shuffle(u: ShuffleWord, v: ShuffleWord) -> LinComb:
    n = len(u) + len(v)
    data = {}
    for slots in combinations(range(n), len(u)):
        letters = [None] * n
        vi = iter(v.letters)
        ui = iter(u.letters)
        chosen = set(slots)
        for p in range(n):
            letters[p] = next(ui) if p in chosen else next(vi)
        word = ShuffleWord(letters)
        data[word] = data.get(word, 0) + 1
    return LinComb(data)


def brute_quasi_shuffle(mu: IndexedWord, nu: IndexedWord) -> LinComb:
    k, l = mu.depth, nu.depth
    if k == 0:
        return LinComb.single(nu)
    if l == 0:
        return LinComb.single(mu)
    data = {}
    for n in range(max(k, l), k + l + 1):
        for f_im in combinations(range(n), k):
            for g_im in combinations(range(n), l):
                if len(set(f_im) | set(g_im)) != n:
                    continue
                f_at = {p: j for j, p in enumerate(f_im)}
                g_at = {p: j for j, p in enumerate(g_im)}
                pairs = []
                for p in range(n):
                    s, mark = 0, ONE
                    if p in f_at:
                        sp, bp = mu[f_at[p]]
                        s, mark = s + sp, mark * bp
                    if p in g_at:
                        sp, bp = nu[g_at[p]]
                        s, mark = s + sp, mark * bp
                    pairs.append((s, mark))
                word = IndexedWord(pairs)
                data[word] = data.get(word, 0) + 1
    return LinComb(data)


def loop_mpl(word: IndexedWord, n_terms: int) -> complex:
    """The nested sum of a nonempty word over N >= n1 > ... > nk >= 1,
    N = ``n_terms``."""
    return loop_partial_sums(word, [n_terms])[0]


def loop_partial_sums(word: IndexedWord, stops) -> list[complex]:
    """:func:`loop_mpl` at each N in ``stops``, ascending, read off one loop.

    ``sums[i]`` holds the sum of the suffix from letter i over indices
    below the current n, so the outer letters are updated first.  A power
    n ** -s too small for a double is 0.0, its correct rounding.
    """
    sums = [0j] * word.depth + [1.0]
    out = []
    n = 0
    for stop in stops:
        for n in range(n + 1, stop + 1):
            for i, (s, mark) in enumerate(word):
                turn = mark.num * n % mark.den / mark.den  # exact residue
                sums[i] += cmath.exp(2j * cmath.pi * turn) * n ** -s * sums[i + 1]
        n = stop
        out.append(sums[0])
    return out
