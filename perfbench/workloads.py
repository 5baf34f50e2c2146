"""Workload inputs, timed passes and correctness gates.

Imported only by ``worker.py``, inside a fresh interpreter, after the
checkout's ``src`` has been put first on ``sys.path``.  The package is used
only through names the command line and the README use.

Gates (each failure is counted in ``failed`` and clears ``correct``):

1. a relations stream has the line count, byte count and sha256 recorded
   from the seed commit in ``spec.json`` (CLI output is a byte-identical
   contract);
2. outside the timed region, a fixed sample of streamed relations is
   recomputed as ``product_e - quasi_shuffle`` through the recursive oracle;
3. every oracle pair agrees across the three b-routes and the two e-routes;
4. every verify line that is not refused has ``passed`` true, and every
   refused line holds a conditionally convergent word.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
from pathlib import Path
from time import perf_counter

import tracing

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def workload_config(name: str, size: str) -> dict:
    """The workload's spec entry, with the ``tiny`` overrides applied."""
    cfg = dict(load_spec()["workloads"][name])
    tiny = cfg.pop("tiny")
    if size == "tiny":
        cfg.update(tiny)
    cfg["name"] = name
    return cfg


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sample_indices(n: int, m: int) -> list[int]:
    """m evenly spaced line indices of an n-line stream, first and last included."""
    if n <= m:
        return list(range(n))
    return sorted({round(i * (n - 1) / (m - 1)) for i in range(m)})


class Sink:
    """Stand-in for stdout: counts, hashes and timestamps complete lines.

    Only the lines whose index is in ``keep`` are retained, for gate 2.
    """

    def __init__(self, keep=()) -> None:
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.stamps: list[float] = []
        self.keep = frozenset(keep)
        self.kept: dict[int, str] = {}
        self._parts: list[str] = []
        self._keeping = 0 in self.keep

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        if "\n" not in text:
            if self._keeping:
                self._parts.append(text)
            return len(text)
        now = perf_counter()
        pieces = text.split("\n")
        for piece in pieces[:-1]:
            if self._keeping:
                self._parts.append(piece)
                self.kept[len(self.stamps)] = "".join(self._parts)
                self._parts = []
            self.stamps.append(now)
            self._keeping = len(self.stamps) in self.keep
        if self._keeping:
            self._parts.append(pieces[-1])
        return len(text)

    def flush(self) -> None:
        pass


def capture_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process and return (exit code, stdout text)."""
    from doubleshuffle.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def stream_gate(text_or_sink, cfg: dict) -> list[str]:
    """Gate 1: line count, byte count and digest against the recorded stream."""
    if isinstance(text_or_sink, Sink):
        lines, nbytes = len(text_or_sink.stamps), text_or_sink.bytes
        digest = text_or_sink.sha.hexdigest()
    else:
        data = text_or_sink.encode("utf-8")
        lines, nbytes = data.count(b"\n"), len(data)
        digest = hashlib.sha256(data).hexdigest()
    problems = []
    if lines != cfg["lines"]:
        problems.append(f"gate 1: {lines} lines, expected {cfg['lines']}")
    if nbytes != cfg["bytes"]:
        problems.append(f"gate 1: {nbytes} bytes, expected {cfg['bytes']}")
    if digest != cfg["sha256"]:
        problems.append(f"gate 1: sha256 {digest}, expected {cfg['sha256']}")
    return problems


def oracle_gate(lines: dict[int, str]) -> list[str]:
    """Gate 2: recompute sampled relations through the recursive oracle."""
    from doubleshuffle import product_e, quasi_shuffle
    from doubleshuffle.textio import relation_from_json

    problems = []
    for index, line in sorted(lines.items()):
        rel = relation_from_json(json.loads(line))
        mu, nu = rel.factors
        expected = product_e(mu, nu) - quasi_shuffle(mu, nu)
        if rel.combination != expected:
            problems.append(f"gate 2: line {index} ({rel.label}) differs "
                            "from product_e - quasi_shuffle")
    return problems


# ---------------------------------------------------------------------------
# Inputs


def oracle_pairs(seed: int, cfg: dict, pass_index: int = 0) -> list[tuple[str, str]]:
    """The word pairs of one oracle pass, as text in the CLI word grammar.

    The pair shapes are the same in every pass; exponents and marks are
    drawn from (seed, pass_index), so pass j of a given seed always sees
    the same pairs and a run pools several distinct draws.
    """
    max_depth, max_exp, max_weight = cfg["max_depth"], cfg["max_exponent"], cfg["max_weight"]

    def draw_exponents(rng: random.Random, depth: int | None = None) -> list[int]:
        while True:
            d = rng.randint(1, max_depth) if depth is None else depth
            exps = [rng.randint(1, max_exp) for _ in range(d)]
            if sum(exps) <= max_weight:
                return exps

    # Shapes: quantile midpoints of the candidate-count distribution.
    shape_rng = random.Random(cfg["shape_seed"])
    draws = 100 * cfg["pairs"]
    shapes = []
    for _ in range(draws):
        a, b = draw_exponents(shape_rng), draw_exponents(shape_rng)
        shape = (len(a), sum(a), len(b), sum(b))
        cost = tracing.candidates(shape[0], shape[2], shape[1] + shape[3])
        shapes.append((cost, shape))
    shapes.sort()
    picked = [shapes[(2 * i + 1) * draws // (2 * cfg["pairs"])][1]
              for i in range(cfg["pairs"])]
    shape_rng.shuffle(picked)

    rng = random.Random(f"{seed}:{pass_index}")
    order = cfg["order"]

    def word(depth: int, weight: int) -> str:
        while True:
            exps = draw_exponents(rng, depth)
            if sum(exps) == weight:
                break
        marks = [f"{rng.randrange(order)}/{order}" for _ in exps]
        return f"({','.join(map(str, exps))}|{','.join(marks)})"

    return [(word(ka, wa), word(kb, wb)) for ka, wa, kb, wb in picked]


def build_input(cfg: dict, seed: int, pass_index: int = 0):
    """Set-up work for one pass: returns (input, problems)."""
    if cfg["kind"] == "verify":
        code, text = capture_cli(cfg["input_argv"])
        problems = [] if code == 0 else [f"set-up: relations exited {code}"]
        return text, problems + stream_gate(text, cfg)
    if cfg["kind"] == "oracle":
        return oracle_pairs(seed, cfg, pass_index), []
    return None, []


# ---------------------------------------------------------------------------
# Passes.  Each returns a dict of raw per-pass figures; the run aggregates.


def relations_pass(cfg: dict, tracer=None) -> dict:
    from doubleshuffle.cli import main

    keep = sample_indices(cfg["lines"], cfg["oracle_sample"])
    sink = Sink(keep)
    run = main if tracer is None else tracer.wrap("cli.main", main)
    with contextlib.redirect_stdout(sink):
        start = perf_counter()
        code = run(cfg["argv"])
        end = perf_counter()
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.bump("textio.emit_bytes", sink.bytes)

    stamps = sink.stamps
    # A relation's latency runs from the call to its line, as a reader of
    # the stream waits for it; gaps between lines would read a change that
    # streams relations earlier as a slowdown.
    latencies = [(t - start) * 1e3 for t in stamps]
    problems = [] if code == 0 else [f"cli exited {code}"]
    stream_problems = stream_gate(sink, cfg)
    failed = max(cfg["lines"], len(stamps)) if stream_problems or code else 0
    problems += stream_problems
    end_timed(tracer)
    sampled = oracle_gate(sink.kept)
    problems += sampled
    if not stream_problems:
        failed += len(sampled)
    attempted = max(cfg["lines"], len(stamps))
    return {"wall_s": end - start, "items": len(stamps),
            "attempted": attempted, "failed": min(failed, attempted), "refused": 0,
            "first_item_s": (stamps[0] - start) if stamps else end - start,
            "latencies_ms": latencies, "rss_mb": rss, "problems": problems}


def conditional_in(d: dict) -> bool:
    """True when the JSON relation holds a conditionally convergent word:
    leading exponent 1 with a mark other than the identity."""
    words = list(d.get("terms", []))
    if d.get("kind") in ("euler", "product"):
        words += d.get("factors", [])
    return any(w["s"] and int(w["s"][0]) == 1 and
               int(w["m"][0].partition("/")[0]) != 0 for w in words)


def verify_pass(cfg: dict, text: str, tracer=None) -> dict:
    from doubleshuffle import DomainError, verify_relation_numeric
    from doubleshuffle.textio import relation_from_json

    parse = lambda line: relation_from_json(json.loads(line))  # noqa: E731
    verify = verify_relation_numeric
    if tracer is not None:
        parse = tracer.wrap("textio.parse", parse)
        verify = tracer.wrap("values.verify", verify)
    terms, tol = cfg["terms"], cfg["tol"]
    lines = [line for line in text.splitlines() if line.strip()]
    latencies, outcomes, ends = [], [], []
    start = perf_counter()
    for i, line in enumerate(lines):
        t0 = perf_counter()
        if tracer is not None:
            tracer.request = i
        try:
            rel = parse(line)
            outcomes.append(verify(rel, terms, tol))
        except DomainError as exc:
            outcomes.append(exc)
        except Exception as exc:  # noqa: BLE001 - one bad line must not end the pass
            outcomes.append(RuntimeError(f"{type(exc).__name__}: {exc}"))
        ends.append(perf_counter())
        latencies.append((ends[-1] - t0) * 1e3)
    end = perf_counter()
    rss = peak_rss_mb()
    end_timed(tracer)
    # The stream opens with refused lines, each a sub-millisecond raise, so
    # the first verdict a user waits for is the first numeric check.
    first_checked = next((t for t, o in zip(ends, outcomes)
                          if not isinstance(o, DomainError)), end)

    problems, refused, failed = [], 0, 0
    worst = 0.0
    for i, (line, outcome) in enumerate(zip(lines, outcomes)):
        if isinstance(outcome, DomainError):
            refused += 1
            if not conditional_in(json.loads(line)):
                problems.append(f"gate 4: line {i} refused without a "
                                f"conditionally convergent word: {outcome}")
        elif isinstance(outcome, Exception):
            failed += 1
            problems.append(f"gate 4: line {i} raised {outcome}")
        elif not outcome.passed:
            failed += 1
            problems.append(f"gate 4: line {i} did not pass "
                            f"(residual {outcome.residual:.3e}, bound {outcome.bound:.3e})")
        elif outcome.bound > 0:
            worst = max(worst, outcome.residual / outcome.bound)
    if tracer is not None:
        tracer.bump("values.refused", refused)
        tracer.bump("textio.parse_bytes", sum(len(s.encode("utf-8")) for s in lines))
        tracer.counters["values.worst_margin"] = worst
    return {"wall_s": end - start, "items": len(lines), "attempted": len(lines),
            "failed": failed + refused, "refused": refused,
            "first_item_s": first_checked - start,
            "latencies_ms": latencies, "rss_mb": rss, "problems": problems}


def oracle_pass(cfg: dict, pairs: list[tuple[str, str]], tracer=None) -> dict:
    from doubleshuffle import (explicit_product_b, explicit_product_e,
                               perm_product_b, product_b, product_e)
    from doubleshuffle.textio import parse_indexed_word

    words = [(parse_indexed_word(a), parse_indexed_word(b)) for a, b in pairs]
    xb, xe, pb, ob, oe = (explicit_product_b, explicit_product_e,
                          perm_product_b, product_b, product_e)
    if tracer is not None:
        count = explicit_counter(tracer)
        xb = tracer.wrap("explicit.product", xb, count)
        xe = tracer.wrap("explicit.product", xe, count)
        pb = tracer.wrap("explicit.perm", pb)
        ob = tracer.wrap("maps.product", ob)
        oe = tracer.wrap("maps.product", oe)
    latencies, problems = [], []
    for i, (mu, nu) in enumerate(words):
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        b_routes = (xb(mu, nu), pb(mu, nu), ob(mu, nu))
        e_routes = (xe(mu, nu), oe(mu, nu))
        latencies.append((perf_counter() - t0) * 1e3)
        if not (b_routes[0] == b_routes[1] == b_routes[2] and e_routes[0] == e_routes[1]):
            problems.append(f"gate 3: routes disagree on {pairs[i][0]} x {pairs[i][1]}")
    rss = peak_rss_mb()
    end_timed(tracer)
    return {"wall_s": sum(latencies) / 1e3, "items": len(words),
            "attempted": len(words), "failed": len(problems), "refused": 0,
            "first_item_s": latencies[0] / 1e3 if latencies else 0.0,
            "latencies_ms": latencies, "rss_mb": rss, "problems": problems}


# ---------------------------------------------------------------------------
# Tracing set-up and per-layer reduction


def explicit_counter(tracer):
    """on_call hook counting the closed form's candidate space and its terms."""
    def count(args, result):
        mu, nu = args[0], args[1]
        try:
            tracer.bump("explicit.candidates", tracing.candidates(
                mu.depth, nu.depth, mu.weight + nu.weight))
        except AttributeError as exc:
            tracer.absent["explicit.candidates"] = f"word attributes changed: {exc}"
        tracer.bump("explicit.terms", len(result))
    return count


def mpl_counter(tracer):
    """on_call hook summing N * depth over the first evaluation of each word."""
    seen = set()

    def count(args, result):
        key = args
        if key in seen:
            return
        seen.add(key)
        word, n_terms = args[0], args[1]
        tracer.bump("values.mpl_work", n_terms * len(word))
    return count


def install_tracing(tracer) -> None:
    """Wrap the cross-module references of the package."""
    tracer.cache_before = cache_snapshot()
    hooks = {"explicit.product": explicit_counter(tracer),
             "values.mpl": mpl_counter(tracer)}
    for module_name, attr, name in tracing.CROSS_MODULE_WRAPS:
        tracer.install(module_name, attr, name, hooks.get(name))


def cache_snapshot() -> dict:
    return {key: tracing.cache_info(key) for key in tracing.CACHED_FUNCTIONS}


def end_timed(tracer) -> None:
    """Close a traced pass before its gates run: read the memo tables and
    put the original functions back, so gate work is neither traced nor
    counted in the hit ratios."""
    if tracer is not None:
        tracer.uninstall()
        tracer.cache_after = cache_snapshot()


def layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit), or
    (None, unit, reason) when the layer could not be observed."""
    out: dict = {}
    c = tracer.counters

    def put(name, unit, value, needs=None):
        """``needs`` names the span the metric is read from, when that span
        comes from a wrapper on the package that may fail to install."""
        if needs is not None and needs not in tracer.names:
            reasons = "; ".join(f"{k} {v}" for k, v in tracer.absent.items())
            out[name] = (None, unit, f"no {needs} spans: {reasons}")
        elif name in tracer.absent:
            out[name] = (None, unit, tracer.absent[name])
        else:
            out[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    def cache(key, name, unit, value):
        """Put a metric read from a memo table's cache_info() deltas."""
        before, after = tracer.cache_before[key], tracer.cache_after[key]
        if after is None:
            out[name] = (None, unit, f"{key} has no cache_info()")
        else:
            out[name] = (value(after.hits - before.hits, after.misses - before.misses,
                               after.currsize), unit)

    explicit_busy = tracer.busy("explicit.product")
    put("explicit.calls", "count", tracer.calls("explicit.product"), "explicit.product")
    put("explicit.busy_s", "s", explicit_busy, "explicit.product")
    put("explicit.candidates", "count", c.get("explicit.candidates", 0), "explicit.product")
    put("explicit.terms", "count", c.get("explicit.terms", 0), "explicit.product")
    put("explicit.yield", "ratio", ratio(c.get("explicit.terms", 0),
                                         c.get("explicit.candidates", 0)), "explicit.product")
    put("explicit.share", "ratio", ratio(explicit_busy, wall_s), "explicit.product")
    put("explicit.perm_busy_s", "s", tracer.busy("explicit.perm"))
    put("recursive.quasi_shuffle_busy_s", "s", tracer.busy("recursive.quasi_shuffle"),
        "recursive.quasi_shuffle")
    for key in ("quasi_shuffle", "shuffle"):
        cache(key, f"recursive.{key}_hit_ratio", "ratio",
              lambda hits, misses, size: ratio(hits, hits + misses))
    sizes = [tracer.cache_after[k].currsize for k in ("quasi_shuffle", "shuffle")
             if tracer.cache_after[k] is not None]
    if sizes:
        out["recursive.cache_entries"] = (sum(sizes), "count")
    else:
        out["recursive.cache_entries"] = (None, "count", "no cache_info() on shuffle or quasi_shuffle")
    put("maps.product_busy_s", "s", tracer.busy("maps.product"))
    put("values.relations_self_s", "s", tracer.self_time("values.relations"),
        "values.relations")
    mpl_busy = tracer.busy("values.mpl")
    put("values.mpl_calls", "count", tracer.calls("values.mpl"), "values.mpl")
    cache("mpl_numeric", "values.mpl_misses", "count", lambda hits, misses, size: misses)
    put("values.mpl_busy_s", "s", mpl_busy, "values.mpl")
    put("values.mpl_work", "count", c.get("values.mpl_work", 0), "values.mpl")
    put("values.mpl_share", "ratio", ratio(mpl_busy, wall_s), "values.mpl")
    put("values.verify_busy_s", "s", tracer.busy("values.verify"))
    put("values.refused", "count", c.get("values.refused", 0))
    put("values.worst_margin", "ratio", c.get("values.worst_margin", 0.0))
    put("textio.emit_busy_s", "s", tracer.busy("textio.emit"), "textio.emit")
    put("textio.emit_bytes", "bytes", c.get("textio.emit_bytes", 0))
    put("textio.parse_busy_s", "s", tracer.busy("textio.parse"))
    put("textio.parse_bytes", "bytes", c.get("textio.parse_bytes", 0))
    put("core.sort_busy_s", "s", tracer.busy("core.sort"), "core.sort")
    put("core.lincomb_sub_busy_s", "s", tracer.busy("core.lincomb_sub"), "core.lincomb_sub")
    put("cli.self_s", "s", tracer.self_time("cli.main"))
    return out
