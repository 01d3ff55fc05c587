"""Run-to-run spread of the end-to-end metrics, the way bounds are judged.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--out FILE]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

Makes ``--runs`` runs of ``run.py --trace 0`` per workload of
BENCHMARK.json, each with its own seed.  The workloads are interleaved:
seed by seed, in an order that is reversed every other seed.  For each metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``), the spread (q3 - q1) / median
and the bound from BENCHMARK.json, and writes all values to ``--out``.

``--compare`` prints, per workload and metric, how far the second set's
median lies above the first's, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}, spec


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def collect(args) -> dict:
    bound, spec = bounds()
    names = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    failed = 0
    for k in range(args.runs):
        seed = args.first_seed + k
        for w in names if k % 2 == 0 else names[::-1]:
            cmd = [sys.executable, str(ROOT / "perfbench/run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for metric, m in result["metrics"].items():
                values[w].setdefault(metric, []).append(m["value"])
            print(f"seed {seed} {w}: " + " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()),
                  flush=True)
    report = {"runs": args.runs, "first_seed": args.first_seed, "failed": failed, "values": values,
              "summary": {w: {m: summarize(v) for m, v in ms.items()} for w, ms in values.items()}}
    for w, ms in report["summary"].items():
        for m, s in ms.items():
            print(f"{w:18s} {m:12s} median={s['median']:.4f} q1={s['q1']:.4f} q3={s['q3']:.4f} "
                  f"spread={s['spread']:.4f} bound={bound.get(m)}")
    print(f"failed operations or incorrect runs: {failed}")
    return report


def compare(first: Path, second: Path) -> None:
    a, b = (json.loads(p.read_text())["summary"] for p in (first, second))
    bound, _ = bounds()
    for w in a:
        for m in a[w]:
            shift = (b[w][m]["median"] - a[w][m]["median"]) / a[w][m]["median"]
            print(f"{w:18s} {m:12s} shift={shift:+.4f} bound={bound.get(m)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    report = collect(args)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
