"""One set-up or one timed pass of a workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins as cold
as a new ``doubleshuffle`` command: no memo table of the package survives
from an earlier pass, however the package implements its caches.

    python3 perfbench/worker.py --workload NAME --mode setup|pass
        [--seed N] [--pass-index J] [--trace 0|1] [--size full|tiny]
        [--spans FILE]

The verify workload reads its input stream on stdin in ``pass`` mode.  The
result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here, after interpreter start

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_package() -> None:
    """Put the checkout's sources first on the path and import them."""
    src = ROOT / "src"
    if not (src / "doubleshuffle" / "__init__.py").is_file():
        raise SystemExit(f"worker: no package sources under {src}")
    sys.path.insert(0, str(src))
    import doubleshuffle
    import doubleshuffle.cli  # noqa: F401 - the CLI modules are part of set-up

    if Path(doubleshuffle.__file__).resolve().parent != (src / "doubleshuffle").resolve():
        raise SystemExit(f"worker: imported doubleshuffle from {doubleshuffle.__file__}, "
                         f"not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import_package()
    import tracing
    import workloads

    cfg = workloads.workload_config(args.workload, args.size)
    if args.mode == "setup":
        data, problems = workloads.build_input(cfg, args.seed)
        print(json.dumps({"setup_s": perf_counter() - STARTED,
                          "input": data if cfg["kind"] == "verify" else None,
                          "problems": problems}))
        return 0

    if cfg["kind"] == "verify":
        data, problems = sys.stdin.read(), []
    else:
        data, problems = workloads.build_input(cfg, args.seed, args.pass_index)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        workloads.install_tracing(tracer)
    if cfg["kind"] == "relations":
        result = workloads.relations_pass(cfg, tracer)
    elif cfg["kind"] == "verify":
        result = workloads.verify_pass(cfg, data, tracer)
    else:
        result = workloads.oracle_pass(cfg, data, tracer)
    result["problems"] = problems + result["problems"]
    if tracer is not None:
        result["layers"] = workloads.layer_metrics(tracer, result["wall_s"])
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
