"""Reduced-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. Runs every workload once at its tiny size (``run.py --size tiny``),
   untraced and traced, and checks the result line: ``correct`` is true,
   every metric named in BENCHMARK.json is printed with its unit, and on
   verify-sign the refused lines are counted in ``failed`` and ``ok_share``.
2. Feeds each correctness gate a deliberately wrong input and checks that
   the gate reports it: a stream with the wrong digest (gate 1), a sampled
   relation with a changed coefficient (gate 2), a product route that
   returns a wrong answer (gate 3), and a verify stream with a wrong
   coefficient and with a refusal that no conditionally convergent word
   explains (gate 4).
3. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.

Exits 0 when every check passes.  Scratch files go under ``.perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
FAILURES: list[str] = []


def check(condition: bool, what: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "0.1",
                           "--trace", str(trace), "--size", "tiny"],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def tiny_runs(bench: dict) -> None:
    for entry in bench["workloads"]:
        name = entry["name"]
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            print(f"{name} --trace {trace} (tiny)")
            proc = run_bench(name, trace)
            check(proc.returncode == 0, f"exit code 0 (got {proc.returncode}) {proc.stderr[-300:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "result keys are correct, attempted, failed, metrics")
            check(result["correct"] is True, "every gate passes")
            check(result["attempted"] >= 1, f"attempted {result['attempted']} >= 1")
            check(all(sorted(m) == ["unit", "value"] for m in result["metrics"].values()),
                  "every metric holds exactly value and unit")
            check(sorted(result["metrics"]) == sorted(m["name"] for m in listed),
                  "exactly the metrics BENCHMARK.json lists")
            for metric in listed:
                got = result["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{metric['name']} printed in {metric['unit']}")
            if name == "verify-sign":
                check(result["failed"] > 0, f"refused lines counted as failed ({result['failed']})")
                if trace == 0:
                    share = result["metrics"]["ok_share"]["value"]
                    expect = 1 - result["failed"] / result["attempted"]
                    check(abs(share - expect) < 1e-12 and share < 1,
                          f"ok_share {share:.4f} = 1 - failed/attempted")
                else:
                    check(result["metrics"]["values.refused"]["value"] > 0,
                          "values.refused counts the refused lines")
            else:
                check(result["failed"] == 0, f"no failures ({result['failed']})")


def gate_checks() -> None:
    """Each gate must fire on a wrong input; run in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import doubleshuffle
    import workloads

    print("gate 1: relations stream with a wrong digest")
    cfg = workloads.workload_config("relations-zeta", "tiny")
    good = workloads.relations_pass(dict(cfg))
    check(not good["problems"] and good["failed"] == 0, "recorded digest accepted")
    bad = workloads.relations_pass(dict(cfg, sha256="0" * 64))
    check(any(p.startswith("gate 1") for p in bad["problems"]), "wrong digest reported")
    check(bad["failed"] == bad["attempted"], "whole stream counted as failed")

    print("gate 2: sampled relation with a changed coefficient")
    _, text = workloads.capture_cli(cfg["argv"])
    lines = text.splitlines()
    tampered = json.loads(lines[0])
    tampered["terms"][0]["coeff"] = str(int(tampered["terms"][0]["coeff"]) + 1)
    check(not workloads.oracle_gate({0: lines[0]}), "true relation accepted")
    check(bool(workloads.oracle_gate({0: json.dumps(tampered)})), "changed relation reported")

    print("gate 3: a product route that returns a wrong answer")
    ocfg = workloads.workload_config("oracle-roots5", "tiny")
    pairs = workloads.oracle_pairs(1, ocfg)
    check(not workloads.oracle_pass(ocfg, pairs)["problems"], "agreeing routes accepted")
    real = doubleshuffle.perm_product_b
    doubleshuffle.perm_product_b = lambda mu, nu: real(mu, nu) + real(mu, nu)
    try:
        broken = workloads.oracle_pass(ocfg, pairs)
    finally:
        doubleshuffle.perm_product_b = real
    check(broken["failed"] == len(pairs) and all(p.startswith("gate 3") for p in broken["problems"]),
          f"every disagreeing pair reported ({broken['failed']}/{len(pairs)})")

    print("gate 4: verify lines")
    vcfg = workloads.workload_config("verify-sign", "tiny")
    vtext, problems = workloads.build_input(vcfg, 1)
    check(not problems, "verify input matches its recorded digest")
    result = workloads.verify_pass(vcfg, vtext)
    check(not result["problems"] and result["refused"] > 0
          and result["failed"] == result["refused"],
          f"refused lines counted ({result['refused']} of {result['items']}), none failed")
    vlines = vtext.splitlines()
    convergent = next(i for i, line in enumerate(vlines)
                      if not workloads.conditional_in(json.loads(line)))
    wrong = json.loads(vlines[convergent])
    wrong["terms"][0]["coeff"] = str(int(wrong["terms"][0]["coeff"]) + 7)
    result = workloads.verify_pass(vcfg, json.dumps(wrong))
    check(result["failed"] == 1 and result["problems"][0].startswith("gate 4"),
          "relation with a wrong coefficient reported")
    one = {"s": [1, 2], "m": ["0/1", "0/1"]}  # divergent, refused, not conditional
    odd = {"kind": "double-shuffle", "factors": [], "terms": [dict(one, coeff="1")]}
    result = workloads.verify_pass(vcfg, json.dumps(odd))
    check(result["refused"] == 1 and result["problems"][0].startswith("gate 4"),
          "refusal without a conditionally convergent word reported")

    print("layers a later package version no longer has are reported absent")
    import doubleshuffle.values as values
    import run
    import tracing
    cached = values.mpl_numeric
    values.mpl_numeric = cached.__wrapped__  # the same function without a memo table
    try:
        tracer = tracing.Tracer()
        workloads.install_tracing(tracer)
        tracer.install("doubleshuffle.values", "renamed_away", "values.gone")
        result = workloads.verify_pass(vcfg, vtext, tracer)
        layers = workloads.layer_metrics(tracer, result["wall_s"])
    finally:
        values.mpl_numeric = cached
    check(not result["problems"], "verify pass still correct")
    check("doubleshuffle.values.renamed_away" in tracer.absent, "missing wrap target recorded")
    check(layers["values.mpl_misses"][0] is None, "mpl_numeric without cache_info() is absent")
    check(layers["values.mpl_calls"][0] > 0, "other layers still measured")
    printed, absent = run.per_layer([(result, {"layers": layers, "wall_s": result["wall_s"]})])
    check(sorted(printed["values.mpl_misses"]) == ["unit", "value"]
          and "values.mpl_misses" in absent, "absent metric printed as 0, its reason apart")


def bare_directory_check(bench: dict) -> None:
    print("run in a directory holding only BENCHMARK.json and the benchmark")
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("oracle-roots5", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0, f"non-zero exit ({proc.returncode})")
    check('"correct"' not in last[0], "no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    tiny_runs(bench)
    gate_checks()
    bare_directory_check(bench)
    print(f"self-check: {'FAILED ' + str(len(FAILURES)) if FAILURES else 'all checks passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
