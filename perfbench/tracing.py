"""Span tracing from outside the package.

The tracer replaces selected attributes of ``doubleshuffle`` modules with thin
timing wrappers while a traced pass runs, then puts the originals back.  Only
references that one module holds to another module's function are wrapped
(plus two ``LinComb`` methods and the ``mpl_numeric`` entry point), never a
function's own recursive self-reference, so no call is counted twice.

Spans are kept in memory as ``(name, start, end, parent, request)`` tuples and
reduced to per-layer metrics when the pass ends.  A wrapped attribute that no
longer exists in a later version of the package is recorded as absent with
the reason, and the metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import importlib
import json
import math
from time import perf_counter

# (module, attribute, span name).  A dotted attribute names a class method.
CROSS_MODULE_WRAPS = (
    ("doubleshuffle.cli", "double_shuffle_relations", "values.relations"),
    ("doubleshuffle.cli", "hoffman_difference", "values.relations"),
    ("doubleshuffle.cli", "admissible_words", "values.relations"),
    ("doubleshuffle.cli", "relation_to_json", "textio.emit"),
    ("doubleshuffle.values", "explicit_product_e", "explicit.product"),
    ("doubleshuffle.values", "quasi_shuffle", "recursive.quasi_shuffle"),
    ("doubleshuffle.values", "mpl_numeric", "values.mpl"),
    ("doubleshuffle.core", "LinComb.items", "core.sort"),
    ("doubleshuffle.core", "LinComb.__sub__", "core.lincomb_sub"),
)

# Memo tables whose cache_info() feeds the hit-ratio metrics, when they have one.
CACHED_FUNCTIONS = {
    "shuffle": ("doubleshuffle.recursive", "shuffle"),
    "quasi_shuffle": ("doubleshuffle.recursive", "quasi_shuffle"),
    "mpl_numeric": ("doubleshuffle.values", "mpl_numeric"),
}


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name), or raise AttributeError/ImportError."""
    owner = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, last)
    return owner, last


def cache_info(key: str):
    """The cache_info() tuple of a memoised function, or None when it has none."""
    module_name, attr = CACHED_FUNCTIONS[key]
    try:
        owner, last = _resolve(module_name, attr)
    except (ImportError, AttributeError):
        return None
    info = getattr(getattr(owner, last), "cache_info", None)
    return info() if callable(info) else None


class Tracer:
    """Records spans around wrapped calls; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self.names: set[str] = set()
        self.absent: dict[str, str] = {}
        self.counters: dict[str, float] = {}
        self.request = -1

    def bump(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_call=None):
        """A callable that records one span per call of ``fn``.

        ``on_call(args, result)`` runs after the span closes, so the counters
        it updates cost no span time.
        """
        spans, stack = self.spans, self._stack
        self.names.add(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def install(self, module_name: str, attr: str, name: str, on_call=None) -> None:
        """Replace ``module_name.attr`` with a wrapper recording ``name`` spans."""
        try:
            owner, last = _resolve(module_name, attr)
        except (ImportError, AttributeError) as exc:
            self.absent[f"{module_name}.{attr}"] = f"not found: {exc}"
            return
        original = getattr(owner, last)
        setattr(owner, last, self.wrap(name, original, on_call))
        self._restore.append((owner, last, original))

    def uninstall(self) -> None:
        for owner, last, original in reversed(self._restore):
            setattr(owner, last, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def busy(self, name: str) -> float:
        """Wall time inside spans of ``name``, nested same-name spans counted once."""
        spans = self.spans
        total = 0.0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def self_time(self, name: str) -> float:
        """Time in spans of ``name`` not covered by their direct child spans."""
        spans = self.spans
        own = {i for i, s in enumerate(spans) if s[0] == name}
        total = sum(spans[i][2] - spans[i][1] for i in own)
        for span in spans:
            if span[3] in own:
                total -= span[2] - span[1]
        return total

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start - t0, 7),
                                     round(end - t0, 7), parent, request]))
                fh.write("\n")


def candidates(k: int, l: int, weight: int) -> int:
    """Size of the closed form's search space: C(k+l, k) * C(W-1, k+l-1)."""
    if k + l == 0:
        return 1
    return math.comb(k + l, k) * math.comb(weight - 1, k + l - 1)
