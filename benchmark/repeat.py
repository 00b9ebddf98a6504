"""Repeat the benchmark over several seeds and summarize each metric's spread.

Run from the root of a checkout:

    python3 benchmark/repeat.py --runs 10 --first-seed 101 --trace 0 --out benchmark/baseline/seed-commit.json

For every workload and metric it reports the median and the first and third
quartiles (``statistics.quantiles(values, n=4)``) of the per-run values, and
the quartile distance as a share of the median, which is what the bounds in
BENCHMARK.json are compared against.  Runs are made one at a time, workload
after workload, with seeds first-seed, first-seed + 1, ...  With ``--against``
it also compares each median with the one in an earlier summary or baseline
and exits 1 if any got worse by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="repeat only these (default: all)")
    parser.add_argument("--out", type=Path, help="write the summary and every run's values here")
    parser.add_argument("--against", type=Path,
                        help="an earlier summary (or baseline); fail if a median got worse by more than its bound")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        doc = json.loads(args.against.read_text())
        earlier = doc["untraced"] if "untraced" in doc else doc["workloads"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary: dict = {"runs": args.runs, "first_seed": args.first_seed, "trace": args.trace,
                     "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                                  capture_output=True, text=True, timeout=900)
            elapsed = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            runs.append({"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed, "result": result})
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{name} seed {seed}: {elapsed:.1f}s " + " ".join(
                f"{m}={e['value']:.5g}" for m, e in result["metrics"].items() if m in bounds), flush=True)
        table = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            table[metric] = {"unit": units[metric], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None, "bound": bounds.get(metric),
                             "values": vals}
        summary["workloads"][name] = {"metrics": table, "runs": runs}
        for metric, row in table.items():
            if row["bound"] is None:
                continue
            flag = "" if metric == "setup_s" or row["spread"] <= row["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{name:18s} {metric:18s} median {row['median']:10.5g} {row['unit']:6s} "
                  f"q1 {row['q1']:10.5g} q3 {row['q3']:10.5g} spread {row['spread']:.3f} "
                  f"(bound {row['bound']}){flag}", flush=True)
            if earlier and name in earlier and metric in earlier[name]["metrics"]:
                before = earlier[name]["metrics"][metric]["median"]
                change = (row["median"] - before) / before
                worse = change if better[metric] == "lower" else -change
                row["change_vs_earlier"] = change
                if worse > row["bound"]:
                    ok = False
                print(f"{'':18s} {metric:18s} earlier median {before:10.5g}, change {change:+.3f}"
                      f"{'  <-- worse by more than the bound' if worse > row['bound'] else ''}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
