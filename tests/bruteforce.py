"""Independent brute-force oracles, kept free of the library's recursions.

``brute_shuffle`` enumerates interleavings by choosing the positions of the
first word among all slots.  ``brute_quasi_shuffle`` enumerates pairs of
order-preserving injections with covering images, merging the pairs that
land on a shared slot.  Both are plain exhaustive enumerations, so they can
be trusted as ground truth for small words.

``loop_partial_sums`` (and ``loop_mpl``, its last entry) is the definitional
numeric evaluation: each word on its own, every level a full-length vector
over n with its own cumulative sum.  The library's chunked suffix-trie sweep
must reproduce its values exactly.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from doubleshuffle import ONE, GroupElement, IndexedWord, LinComb, ShuffleWord


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


@lru_cache(maxsize=None)
def mark_powers(mark: GroupElement, n_terms: int) -> np.ndarray:
    """The vector (z^1, ..., z^N) for z = exp(2 pi i num/den); shared
    between calls, so callers must not write to it."""
    if mark.den == 1:
        return np.ones(n_terms, dtype=np.complex128)
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    if mark.den == 2:
        return np.where(n % 2 == 0, 1.0, -1.0).astype(np.complex128)
    angles = np.array([mark.num * m % mark.den for m in range(1, n_terms + 1)],
                      dtype=np.float64)  # exact residues, in Python integers
    return np.exp(2j * np.pi * angles / mark.den)


def loop_mpl(word: IndexedWord, n_terms: int) -> complex:
    """The truncated nested sum of a nonempty word at N = ``n_terms``."""
    return complex(loop_partial_sums(word, n_terms)[-1])


def loop_partial_sums(word: IndexedWord, n_terms: int) -> np.ndarray:
    """The truncated nested sums of a nonempty word at every N <= n_terms,
    one word at a time.

    Each level is a full-length vector over n = 1..N: the innermost pair's
    terms z^n / n^s, then, going outward, the base times the inner
    cumulative sum shifted by one, summed by its own ``cumsum``.  Entry
    N - 1 of the outermost sum is the value truncated at N.
    """
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    acc = None
    for s, mark in reversed(word):
        base = mark_powers(mark, n_terms) / n ** s
        if acc is None:
            term = base
        else:
            shifted = np.empty_like(acc)
            shifted[0] = 0
            shifted[1:] = acc[:-1]
            term = base * shifted
        acc = np.cumsum(term)
    return acc
