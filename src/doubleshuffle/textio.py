"""Word grammar, linear-combination formatting, JSON and LaTeX emitters.

Grammar accepted by the parsers (whitespace between tokens is ignored):

* index words:   ``(s1,...,sk | p1/q1,...,pk/qk)`` with each exponent a
  positive integer and each mark a fraction of a full turn; ``(s1,...,sk)``
  abbreviates all-identity marks and ``1`` is the empty word;
* letter words:  a string of tokens ``0`` and ``[p/q]``, with ``1`` short
  for ``[0/1]``; the empty string is the empty word.

``parse . format`` is the identity on canonical forms.  JSON terms carry
coefficients as decimal strings so arbitrary-precision values survive the
round trip.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .core import ONE, GroupElement, IndexedWord, LinComb, ShuffleWord
from .values import RELATION_KINDS, Relation


class WordSyntaxError(ValueError):
    """A malformed word, with the offending position (0-based)."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        self.message = message
        self.text = text
        self.pos = pos
        super().__init__(f"column {pos}: {message}")


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.i = 0

    def error(self, message: str, pos: int | None = None) -> Exception:
        return WordSyntaxError(message, self.text, self.i if pos is None else pos)

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.i]
        self.i += 1
        return ch

    def at_end(self) -> bool:
        return self.peek() is None

    def read_int(self, what: str) -> int:
        self.skip_ws()
        start = self.i
        if self.i < len(self.text) and self.text[self.i] == "-":
            self.i += 1
        digits = self.i
        while self.i < len(self.text) and "0" <= self.text[self.i] <= "9":
            self.i += 1
        if self.i == digits:
            raise self.error(f"expected {what}", start)
        try:
            return int(self.text[start:self.i])
        except ValueError:  # more digits than int() converts
            raise self.error(f"too many digits in {what}", start) from None

    def read_fraction(self) -> GroupElement:
        start = self.i
        num = self.read_int("a fraction numerator")
        if self.peek() != "/":
            raise self.error("malformed fraction: expected '/'")
        self.take()
        den = self.read_int("a fraction denominator")
        if den < 1:
            raise self.error("malformed fraction: denominator must be positive", start)
        return GroupElement(num, den)


def parse_indexed_word(text: str) -> IndexedWord:
    """Parse the ``(s|m)`` grammar; ``1`` is the empty word."""
    sc = _Scanner(text)
    if sc.peek() == "1":
        sc.take()
        if not sc.at_end():
            raise sc.error("unexpected input after the empty word")
        return IndexedWord()
    if sc.peek() != "(":
        raise sc.error("expected '(' or the empty word '1'")
    sc.take()
    exponents: list[int] = []
    positions: list[int] = []
    while True:
        sc.skip_ws()
        positions.append(sc.i)
        exponents.append(sc.read_int("an exponent"))
        if sc.peek() == ",":
            sc.take()
            continue
        break
    for pos, s in zip(positions, exponents):
        if s < 1:
            raise sc.error(f"exponent {s} must be >= 1", pos)
    marks: list[GroupElement] | None = None
    if sc.peek() == "|":
        sc.take()
        marks = []
        while True:
            marks.append(sc.read_fraction())
            if sc.peek() == ",":
                sc.take()
                continue
            break
        if len(marks) != len(exponents):
            raise sc.error(f"{len(exponents)} exponents but {len(marks)} marks")
    if sc.peek() != ")":
        raise sc.error("unbalanced delimiters: expected ')'")
    sc.take()
    if not sc.at_end():
        raise sc.error("unexpected input after ')'")
    return IndexedWord.from_parts(exponents, marks)


def parse_shuffle_word(text: str) -> ShuffleWord:
    """Parse a string of letter tokens; the empty string is the empty word."""
    sc = _Scanner(text)
    letters: list[GroupElement | None] = []
    while not sc.at_end():
        ch = sc.peek()
        if ch == "0":
            sc.take()
            letters.append(None)
        elif ch == "1":
            sc.take()
            letters.append(ONE)
        elif ch == "[":
            sc.take()
            mark = sc.read_fraction()
            if sc.peek() != "]":
                raise sc.error("unbalanced delimiters: expected ']'")
            sc.take()
            letters.append(mark)
        else:
            raise sc.error(f"unexpected character {ch!r}")
    return ShuffleWord(letters)


def format_lincomb(lc: LinComb) -> str:
    """Byte-stable text: terms in canonical order, e.g. ``2*(2,2) + 4*(3,1)``."""
    return _format_items(lc.items())


def _format_items(items: list) -> str:
    return _signed_terms(items, lambda word, mag:
                         f"{mag}*{word}" if len(word) else str(mag))


def _signed_terms(items: list, body) -> str:
    """``body(word, |c|)`` per term, signed: a bare ``-`` before a negative
    first term, ``+ `` or ``- `` before each later one; ``0`` for none."""
    parts: list[str] = []
    for word, c in items:
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + body(word, abs(c)))
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# JSON


def word_to_json(word: IndexedWord) -> dict:
    return {"s": [s for s, _ in word], "m": [str(b) for _, b in word]}


def _word_fragment(word: IndexedWord) -> str:
    """``json.dumps(word_to_json(word))`` less its opening brace, formatted
    directly: ints and ``p/q`` marks never need escaping."""
    return '"s": [%s], "m": [%s]}' % (
        ", ".join([str(s) for s, _ in word]),
        ", ".join(['"%d/%d"' % (b.num, b.den) for _, b in word]))


def _field(d: dict, key: str, where: str):
    """``d[key]``; a missing key is a one-line error naming it and where."""
    try:
        return d[key]
    except KeyError:
        raise ValueError(f"{where} is missing key {key!r}") from None


def word_from_json(d: dict, where: str = "word") -> IndexedWord:
    """A word object; ``where`` names it in the error for a missing key."""
    exponents, marks = _field(d, "s", where), _field(d, "m", where)
    if not (isinstance(exponents, list)
            and all(type(s) is int for s in exponents)):
        raise WordSyntaxError("'s' must be a list of integers", str(d), 0)
    if not isinstance(marks, list):
        raise WordSyntaxError("'m' must be a list of 'p/q' strings", str(d), 0)
    if all(type(m) is str for m in marks):
        return _word(tuple(exponents), tuple(marks))
    return IndexedWord.from_parts(exponents,
                                  [_fraction_from_str(m) for m in marks])


@lru_cache(maxsize=4096)
def _word(exponents: tuple[int, ...], marks: tuple[str, ...]) -> IndexedWord:
    """:func:`word_from_json` of checked exponents and string marks,
    memoised by them: a stream repeats its words, and a refused one is not
    remembered.  Every exponent is an ``int`` by then, so ``True`` or
    ``2.0``, which hash as 1 and 2, never reach the table."""
    return IndexedWord.from_parts(exponents, [_mark(m) for m in marks])


def _fraction_from_str(text: str) -> GroupElement:
    """A JSON mark ``"p/q"``, each side in the integer syntax of words."""
    if not isinstance(text, str):
        raise WordSyntaxError("malformed fraction: expected 'p/q'",
                              str(text), 0)
    return _mark(text)


@lru_cache(maxsize=1024)
def _mark(text: str) -> GroupElement:
    """:func:`_fraction_from_str` of a string, memoised by it: a stream
    repeats a handful of marks, and a refused one is not remembered."""
    num, _, den = text.partition("/")
    p, q = _decimal(num), _decimal(den)
    if p is None or q is None:
        raise WordSyntaxError("malformed fraction: expected 'p/q'", text, 0)
    try:
        return GroupElement(p, q)
    except ValueError as exc:
        raise WordSyntaxError(f"malformed fraction: {exc}", text, 0) from None


def lincomb_to_json(lc: LinComb) -> dict:
    """Schema: {"terms": [{"coeff": "<decimal>", "s": [...], "m": [...]}]}."""
    terms = []
    for word, c in lc.items():
        entry = {"coeff": str(c)}
        entry.update(word_to_json(word))
        terms.append(entry)
    return {"terms": terms}


def lincomb_from_json(d: dict) -> LinComb:
    return LinComb((word_from_json(t, "term"),
                    _coeff_from_json(_field(t, "coeff", "term")))
                   for t in _field(d, "terms", "record"))


def _decimal(text: str) -> int | None:
    """The integer that an optional '-' and ASCII digits spell, else None:
    the integer syntax of words, read here for ``root:N``, coefficients and
    JSON marks."""
    digits = text.removeprefix("-")
    try:
        return int(text) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def _coeff_from_json(value) -> int:
    """A coefficient: a decimal string as emitted, or a JSON integer."""
    if type(value) is int:
        return value
    c = _decimal(value) if isinstance(value, str) else None
    if c is not None:
        return c
    raise WordSyntaxError("coefficient must be a decimal integer string",
                          str(value), 0)


def relation_to_json(rel: Relation) -> dict:
    return {"kind": rel.kind,
            "factors": [word_to_json(w) for w in rel.factors],
            "terms": lincomb_to_json(rel.combination)["terms"]}


class RelationWriter:
    """Formats relation lines, JSON, text or LaTeX, with one memo entry per
    distinct word.

    ``relation`` writes the bytes of ``json.dumps(relation_to_json(rel))``.
    An entry is ``(word.sort_key(), fragment, word)``, the fragment being
    that JSON of the word less its opening brace.
    """

    def __init__(self) -> None:
        self._entries: dict[IndexedWord, tuple[tuple, str, IndexedWord]] = {}

    def _add(self, word: IndexedWord) -> tuple[tuple, str, IndexedWord]:
        entry = self._entries[word] = \
            (word.sort_key(), _word_fragment(word), word)
        return entry

    def _terms(self, lc: LinComb) -> list:
        """``(entry, coefficient)`` per term, in canonical order."""
        entries = self._entries
        terms = [(entries.get(w) or self._add(w), c) for w, c in lc.iterterms()]
        # on the key itself: comparing whole entries tests keys twice
        terms.sort(key=lambda t: t[0][0])
        return terms

    def relation(self, rel: Relation) -> str:
        factors = ", ".join("{" + (self._entries.get(w) or self._add(w))[1]
                            for w in rel.factors)
        # str(int) never needs escaping, so '"{c}"' is json.dumps(str(c))
        terms = ", ".join([f'{{"coeff": "{c}", {e[1]}'
                           for e, c in self._terms(rel.combination)])
        return (f'{{"kind": {json.dumps(rel.kind)}, "factors": [{factors}], '
                f'"terms": [{terms}]}}')

    def text(self, rel: Relation) -> str:
        terms = self._terms(rel.combination)
        return f"{rel.label}: {_format_items([(e[2], c) for e, c in terms])}"

    def latex(self, rel: Relation, group: str) -> str:
        terms = [(e[2], c) for e, c in self._terms(rel.combination)]
        rhs = _latex_items(terms, group)
        if rel.is_zero_sum:
            return f"{rhs} = 0"
        style = _latex_style(list(rel.factors) + [w for w, _ in terms], group)
        return "".join(word_to_latex(w, style) for w in rel.factors) + \
            f" = {rhs}"


def relation_from_json(d: dict) -> Relation:
    if not isinstance(d, dict):
        raise WordSyntaxError("a relation must be a JSON object", str(d), 0)
    kind = d.get("kind", "double-shuffle")
    if not isinstance(kind, str) or kind not in RELATION_KINDS:
        raise WordSyntaxError(f"unknown relation kind {kind!r}", str(d), 0)
    for key in ("factors", "terms"):
        items = d.get(key, [])
        if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
            raise WordSyntaxError(f"{key!r} must be a list of objects", str(d), 0)
    factors = tuple(word_from_json(w, "factor") for w in d.get("factors", []))
    return Relation(kind, factors, lincomb_from_json(d))


# ---------------------------------------------------------------------------
# LaTeX


def _latex_style(words, group: str) -> str:
    marks = [b for w in words for b in w.marks]
    if all(b.is_identity for b in marks):
        return "zeta" if group in ("trivial", "sign") else "li"
    if all(b.den <= 2 for b in marks) and group in ("trivial", "sign"):
        return "zeta-sign"
    return "li"


def _mark_latex(b: GroupElement) -> str:
    if b.is_identity:
        return "1"
    if b.den == 2:
        return "-1"
    if b.den == 4:
        return "i" if b.num == 1 else "-i"
    return rf"e^{{2\pi i \cdot {b.num}/{b.den}}}"


def word_to_latex(word: IndexedWord, style: str) -> str:
    if word.depth == 0:
        return "1"
    exps = ",".join(str(s) for s in word.exponents)
    if style == "zeta":
        return rf"\zeta({exps})"
    if style == "zeta-sign":
        sigma = ",".join(_mark_latex(b) for b in word.marks)
        return rf"\zeta({exps};{sigma})"
    args = ",".join(_mark_latex(b) for b in word.marks)
    return rf"\operatorname{{Li}}_{{{exps}}}({args})"


def lincomb_to_latex(lc: LinComb, group: str = "trivial") -> str:
    return _latex_items(lc.items(), group)


def _latex_items(items: list, group: str) -> str:
    style = _latex_style([w for w, _ in items], group)
    return _signed_terms(items, lambda word, mag: (
        str(mag) if word.depth == 0
        else f"{'' if mag == 1 else mag}{word_to_latex(word, style)}"))
