"""Pipeline benchmark for cisched: one workload per run, result as one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload anytime-tight --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. ``--smoke`` runs the same code at toy size for a
fast check that every workload path still works. The last line of standard
output is the result; the line before it is a ``meta`` object with the run
metadata and the quantities reported beside the metrics. The program is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one unit of work")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def import_program() -> float:
    """Import cisched from this checkout's src/; returns the import seconds."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    start = time.perf_counter()
    import cisched
    import cisched.cli  # noqa: F401  (the CLI is part of what users load)

    elapsed = time.perf_counter() - start
    if Path(cisched.__file__).resolve().parent != src / "cisched":
        raise ImportError(f"cisched resolved to {cisched.__file__}, not {src / 'cisched'}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.bench import WORKLOADS, run

    args = parse_args(argv, list(WORKLOADS))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, import_s, args.smoke)
    meta = result.pop("meta")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
