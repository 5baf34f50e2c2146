"""Benchmark of the doubleshuffle package: four cold-start workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs and reasons in perfbench/spec.json): relations-zeta,
relations-roots, verify-sign, oracle-roots5.  Run from a checkout holding
``src/doubleshuffle``; the package is imported from there, never from an
installed copy.

Every pass runs in a fresh, single-threaded interpreter (``worker.py``), so
each starts as cold as a new command, and passes run one after another.
``--trace 0`` runs passes for ``--seconds`` and prints the end-to-end
metrics.  Before each pass it starts a set-up-only interpreter, and it tops
these up to at least 11 at the end; ``setup_s`` is the median time they
take, from their first statement, to import the package and build the
workload input.  ``--trace 1`` alternates untraced and traced passes
for ``--seconds`` and prints the per-layer metrics of the traced ones, with
the tracing overhead against the untraced ones.  Spans of the last traced
pass are written to ``.perfbench/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts gate failures
and refused verify lines; ``correct`` is false when any gate failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 11  # at least this many set-up samples in a --trace 0 run
WORKER_TIMEOUT_S = 150

# Units of the end-to-end metrics, in the order they are printed.
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "first_item_s": "s",
              "item_p50_ms": "ms", "item_tail_ms": "ms", "ok_share": "ratio",
              "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("PYTHONPATH", "PYTHONSTARTUP", "PYTHONHOME"):
        env.pop(var, None)
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args: list[str], stdin: str | None = None) -> tuple[dict, float]:
    """Run one worker to completion; returns (its JSON result, wall seconds)."""
    cmd = [sys.executable, str(WORKER)] + args
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran over {WORKER_TIMEOUT_S} s") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1]), wall


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile, p in (0, 100]."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def setup_once(base: list[str]) -> tuple[float, str | None, list[str]]:
    """Start one set-up-only worker; returns its set-up time, the input it
    built (verify-sign) and any gate problems."""
    result, _ = run_worker(base + ["--mode", "setup"])
    return result["setup_s"], result["input"], result["problems"]


def run_passes(base: list[str], seconds: float, data: str | None,
               modes: list[list[str]], between=None) -> list[tuple[list[str], dict]]:
    """Cycle through ``modes`` (extra worker arguments), one pass each, until
    the next cycle would end after ``seconds``; at least one cycle.  When
    given, ``between()`` runs at the start of every cycle."""
    passes = []
    start = time.perf_counter()
    for cycle in itertools.count():
        cycle_start = time.perf_counter()
        if between is not None:
            between()
        for extra in modes:
            result, _ = run_worker(base + ["--mode", "pass", "--pass-index", str(cycle)]
                                   + extra, stdin=data)
            passes.append((extra, result))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - cycle_start) > seconds:
            return passes
        modes = modes[::-1]  # alternate which kind of pass goes first


def end_to_end(results: list[dict], setup_times: list[float], tail_pct: float) -> dict:
    latencies = sorted(x for r in results for x in r["latencies_ms"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    per_pass_items = min(r["items"] for r in results)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in results),
        "first_item_s": statistics.median(r["first_item_s"] for r in results),
        "item_p50_ms": percentile(latencies, 50),
        "item_tail_ms": percentile(latencies, tail_pct),
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    notes = [f"item_p50_ms and item_tail_ms (p{tail_pct:g}) over {len(latencies)} samples, "
             f"at least {per_pass_items} a pass"]
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in metrics.items()}, notes


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Medians over traced passes of each layer metric, plus the tracing
    overhead: the median of each traced pass's wall time over that of the
    untraced pass run next to it, on the same input, minus one.

    Returns (metrics, absent): a layer the package no longer has is printed
    as 0, and ``absent`` maps its name to the reason."""
    names = list(pairs[0][1]["layers"])
    out, absent = {}, {}
    for name in names:
        entries = [traced["layers"][name] for _, traced in pairs]
        unit = entries[0][1]
        if entries[0][0] is None:
            out[name] = {"value": 0, "unit": unit}
            absent[name] = entries[0][2]
        else:
            out[name] = {"value": statistics.median(e[0] for e in entries), "unit": unit}
    out["trace.untraced_wall_s"] = {"value": statistics.median(u["wall_s"] for u, _ in pairs),
                                    "unit": "s"}
    out["trace.wall_s"] = {"value": statistics.median(t["wall_s"] for _, t in pairs), "unit": "s"}
    out["trace.overhead_share"] = {
        "value": statistics.median(t["wall_s"] / u["wall_s"] for u, t in pairs) - 1.0,
        "unit": "ratio"}
    return out, absent


def share_notes(workload: str, metrics: dict, expected: dict) -> list[str]:
    notes = []
    for name, rule in expected.items():
        if rule["workload"] == workload and name in metrics:
            value = metrics[name]["value"]
            verdict = "as on the seed commit" if value >= rule["at_least"] else "BELOW the seed commit's"
            notes.append(f"{name} = {value:.3f}: {verdict} share (>= {rule['at_least']})")
    return notes


def main(argv: list[str] | None = None) -> int:
    with open(HERE / "spec.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the reduced inputs of the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "doubleshuffle" / "__init__.py").is_file():
        print(f"run.py: {ROOT} holds no src/doubleshuffle package to measure",
              file=sys.stderr)
        return 2
    tail_pct = spec["workloads"][args.workload]["tail_percentile"]
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    try:
        setup_s, data, problems = setup_once(base)
        setup_times = [setup_s]
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            passes = run_passes(base, args.seconds, data,
                                [["--trace", "0"], ["--trace", "1", "--spans", str(spans)]])
        else:
            def another_setup() -> None:
                setup_s, _, more = setup_once(base)
                setup_times.append(setup_s)
                problems.extend(more)

            passes = run_passes(base, args.seconds, data, [["--trace", "0"]], another_setup)
            while len(setup_times) < SETUP_REPEATS:
                another_setup()
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    results = [r for _, r in passes]
    for r in results:
        problems += r["problems"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        untraced = [r for extra, r in passes if extra[1] == "0"]
        traced = [r for extra, r in passes if extra[1] == "1"]
        metrics, absent = per_layer(list(zip(untraced, traced)))
        notes = share_notes(args.workload, metrics, spec["seed_commit_shares"])
        notes += [f"{name} absent (printed as 0): {why}" for name, why in absent.items()]
    else:
        metrics, notes = end_to_end(results, setup_times, tail_pct)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(results)}  "
          f"attempted {attempted}  failed {failed} "
          f"(refused {sum(r['refused'] for r in results)})")
    print("  pass walls (s): " + " ".join(f"{r['wall_s']:.3f}" for r in results))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for note in notes:
        print(f"  note: {note}")
    for problem in dict.fromkeys(problems):
        print(f"  problem: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
