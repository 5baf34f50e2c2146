"""Exact arithmetic kernel: roots of unity, words, integer linear combinations.

Everything in this module is an immutable value with structural equality.
Coefficients are plain Python ints, so linear combinations stay exact at any
weight; group marks are reduced fractions of a full turn with one interned
instance per angle, so word equality is exact as well.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import partial
from itertools import chain


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), zero whenever b < 0, a < 0 or b > a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


class _Pairs(dict):
    """exponent -> the one ``(exponent, mark)`` pair of a mark, made on first
    use.  Two threads that miss at once make equal pairs, and either may
    stay."""

    __slots__ = ("mark",)

    def __init__(self, mark: "GroupElement"):
        self.mark = mark

    def __missing__(self, s: int) -> tuple:
        pair = self[s] = (s, self.mark)
        return pair


class GroupElement:
    """A root of unity exp(2*pi*i * num/den).

    The angle num/den is kept reduced with 0 <= num < den, and each angle
    has one live instance, so equality and hashing are identity (done
    in C, also inside the tuple hashes of words).  Multiplication adds
    angles mod 1; every element has finite order.

    ``pairs[s]`` is the mark's shared pair ``(s, mark)``: the kernels build
    words from these, so a word of depth k allocates one tuple, not k + 1.
    The pairs are made the first time a kernel asks for them and live and
    die with their mark.
    """

    __slots__ = ("num", "den", "_pairs", "__weakref__")

    # (num, den) in lowest terms -> the live instance of that angle.  The
    # table is weak, so an angle's entry goes with its last instance and
    # parsing ever-new marks (a long ``verify`` stream) does not grow it.
    # A mark whose pairs were made is in a cycle with them, so its entry
    # goes at the next collection after its last use instead.
    _interned: "weakref.WeakValueDictionary[tuple[int, int], GroupElement]" \
        = weakref.WeakValueDictionary()
    # held only to create an instance, so two threads never make two
    _creating = threading.Lock()

    def __new__(cls, num: int, den: int = 1) -> "GroupElement":
        if den <= 0:
            raise ValueError("denominator must be positive")
        num %= den
        g = math.gcd(num, den)
        key = (num // g, den // g)
        self = cls._interned.get(key)
        if self is None:
            with cls._creating:
                self = cls._interned.get(key)
                if self is None:
                    self = object.__new__(cls)
                    self.num, self.den = key
                    cls._interned[key] = self
        return self

    @property
    def pairs(self) -> _Pairs:
        """exponent -> the shared pair ``(s, self)``, made on first use."""
        try:
            return self._pairs
        except AttributeError:
            with self._creating:
                if not hasattr(self, "_pairs"):
                    self._pairs = _Pairs(self)
            return self._pairs

    def __reduce__(self):
        """Pickle and copy through the constructor, which returns the
        interned instance."""
        return GroupElement, (self.num, self.den)

    @property
    def order(self) -> int:
        return self.den

    @property
    def is_identity(self) -> bool:
        return self.num == 0

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def inverse(self) -> "GroupElement":
        return GroupElement(-self.num, self.den)

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.num * other.den - other.num * self.den,
                            self.den * other.den)

    def to_complex(self) -> complex:
        """Value on the unit circle; exact for the 1st, 2nd and 4th roots."""
        if self.den == 1:
            return 1 + 0j
        if self.den == 2:
            return -1 + 0j
        if self.den == 4:
            return 1j if self.num == 1 else -1j
        return complex(math.cos(2 * math.pi * self.num / self.den),
                       math.sin(2 * math.pi * self.num / self.den))

    def __lt__(self, other: "GroupElement") -> bool:
        """Order by angle, compared exactly by cross-multiplication."""
        return self.num * other.den < other.num * self.den

    def __repr__(self) -> str:
        return f"GroupElement({self.num}, {self.den})"

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


ONE = GroupElement(0, 1)
MINUS_ONE = GroupElement(1, 2)


def group_elements(order: int) -> list[GroupElement]:
    """The cyclic group of the given order, listed by increasing angle."""
    if order < 1:
        raise ValueError("group order must be >= 1")
    return [GroupElement(j, order) for j in range(order)]


class ShuffleWord:
    """A finite sequence of letters; the empty word is the algebra unit.

    A letter is its mark: ``None`` for the unmarked letter (written ``0``),
    else the interned ``GroupElement``, so letters hash and compare by
    identity, in C.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[GroupElement | None] = ()) -> None:
        self.letters = tuple(letters)

    def __reduce__(self):
        """Rebuild through the constructor at every pickle protocol."""
        return ShuffleWord, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def encodes_index_word(self) -> bool:
        """Empty, or ends in a marked letter (domain of the block encoding)."""
        return not self.letters or self.letters[-1] is not None

    @property
    def is_convergent(self) -> bool:
        """Additionally starts with a letter other than the identity-marked one."""
        if not self.letters:
            return True
        first = self.letters[0]
        leading_ok = first is None or not first.is_identity
        return leading_ok and self.letters[-1] is not None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShuffleWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"ShuffleWord({str(self)!r})"

    def __str__(self) -> str:
        return " ".join("0" if b is None else "1" if b.is_identity
                        else f"[{b}]" for b in self.letters)

    def sort_key(self):
        """Shaped like ``IndexedWord.sort_key``: per letter ``0`` when it is
        unmarked, else ``1``, the mark's angle as a float and the mark."""
        key = []
        for b in self.letters:
            key += (0,) if b is None else (1, b.num / b.den, b)
        return tuple(key)


class IndexedWord(tuple):
    """A word of (exponent, mark) pairs; the empty word is the unit.

    A word is the tuple of its pairs, so it hashes and compares in C and
    equals the plain tuple of its pairs: ``IndexedWord(p) == p``.  Weight is
    the sum of exponents, depth the number of pairs.  A nonempty word is
    admissible exactly when its leading pair is not ``(1, identity)``, which
    is the condition for the attached nested series to converge absolutely
    or conditionally.
    """

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, GroupElement]] = ()
                ) -> "IndexedWord":
        """Check every exponent; unpickling and copying come through here
        too (see ``__reduce__``)."""
        self = tuple.__new__(cls, pairs)
        for s, _ in self:
            if s < 1:
                raise ValueError(f"exponent {s} must be >= 1")
        return self

    def __reduce__(self):
        """Rebuild through ``__new__`` at every pickle protocol, 0 and 1 too."""
        return IndexedWord, (tuple(self),)

    @classmethod
    def from_parts(cls, exponents: Iterable[int],
                   marks: Iterable[GroupElement] | None = None) -> "IndexedWord":
        exponents = tuple(exponents)
        if marks is None:
            marks = (ONE,) * len(exponents)
        else:
            marks = tuple(marks)
        if len(marks) != len(exponents):
            raise ValueError("exponent and mark vectors differ in length")
        return cls(zip(exponents, marks))

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self)

    @property
    def marks(self) -> tuple[GroupElement, ...]:
        return tuple(b for _, b in self)

    @property
    def weight(self) -> int:
        return sum(s for s, _ in self)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def is_admissible(self) -> bool:
        if not self:
            return False
        s1, b1 = self[0]
        return not (s1 == 1 and b1.is_identity)

    def __repr__(self) -> str:
        return f"IndexedWord({str(self)!r})"

    def __str__(self) -> str:
        if not self:
            return "1"
        exps = ",".join(str(s) for s, _ in self)
        if all(b.is_identity for _, b in self):
            return f"({exps})"
        marks = ",".join(str(b) for _, b in self)
        return f"({exps}|{marks})"

    def sort_key(self):
        """The canonical order as one flat tuple that compares in C: the
        exponents, a ``0`` (exponents are >= 1, so a prefix sorts first),
        then per mark its angle as a float and the mark itself.  The mark
        settles exactly (``GroupElement.__lt__``), at its own position, two
        angles that round to one float."""
        key, tail = [], [0]
        for s, b in self:
            key.append(s)
            tail.append(b.num / b.den)
            tail.append(b)
        key += tail
        return tuple(key)


# The word of pairs whose exponents are already known to be >= 1, built in
# C without the check in ``IndexedWord.__new__``.  For the package's kernels.
_unchecked_word = partial(tuple.__new__, IndexedWord)


class LinComb:
    """A finite integer linear combination of basis words.

    Words must be hashable and expose ``sort_key()``; iteration via
    :meth:`items` is in that canonical order, so printed output is stable.
    Zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self,
                 terms: Mapping | Iterable[tuple[object, int]] = ()) -> None:
        """Sum the coefficients of repeated words and drop the zeros; every
        operation that can make two terms collide goes through here."""
        data: dict = {}
        get = data.get
        for word, c in (terms.items() if isinstance(terms, Mapping)
                        else terms):
            data[word] = get(word, 0) + c
        self._terms = {w: c for w, c in data.items() if c}

    def __reduce__(self):
        """Rebuild through the constructor at every pickle protocol."""
        return LinComb, (self._terms,)

    @classmethod
    def _wrap(cls, terms: dict) -> "LinComb":
        """Take ownership of a dict that holds no zero coefficient."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def single(cls, word, coeff: int = 1) -> "LinComb":
        return cls(((word, coeff),))

    def coeff(self, word) -> int:
        return self._terms.get(word, 0)

    def items(self) -> list[tuple[object, int]]:
        """Terms sorted by the canonical word order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def iterterms(self) -> Iterator[tuple[object, int]]:
        """Unordered view of the terms; prefer :meth:`items` for output."""
        return iter(self._terms.items())

    def words(self) -> list:
        return [w for w, _ in self.items()]

    def mass(self) -> int:
        """Sum of all coefficients."""
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __contains__(self, word) -> bool:
        return word in self._terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __add__(self, other: "LinComb") -> "LinComb":
        return LinComb(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        """Copy the left terms and walk only the subtrahend's."""
        data = dict(self._terms)
        get = data.get
        for word, c in other._terms.items():
            c0 = get(word, 0) - c
            if c0:
                data[word] = c0
            else:
                del data[word]  # c != 0, so the word was there
        return LinComb._wrap(data)

    def __neg__(self) -> "LinComb":
        return LinComb._wrap({w: -c for w, c in self._terms.items()})

    def __mul__(self, scalar: int) -> "LinComb":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return LinComb()
        return LinComb._wrap({w: scalar * c for w, c in self._terms.items()})

    __rmul__ = __mul__

    def map_words(self, f: Callable) -> "LinComb":
        """Relabel every basis word through ``f`` (a word-to-word map)."""
        return LinComb((f(word), c) for word, c in self._terms.items())

    def apply(self, f: Callable) -> "LinComb":
        """Linear extension of a word-to-LinComb map."""
        return LinComb((w2, c * c2) for word, c in self._terms.items()
                       for w2, c2 in f(word).iterterms())

    def __repr__(self) -> str:
        if not self._terms:
            return "LinComb(0)"
        body = " + ".join(f"{c}*{w}" for w, c in self.items())
        return f"LinComb({body})"


def bilinear(word_product: Callable, x: LinComb, y: LinComb) -> LinComb:
    """Extend a word-pair product (returning a LinComb) bilinearly."""
    return LinComb((w, cu * cv * c) for u, cu in x.iterterms()
                   for v, cv in y.iterterms()
                   for w, c in word_product(u, v).iterterms())
