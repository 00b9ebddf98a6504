"""lagprod benchmark: ms per replicate of Monte Carlo sweeps, timed from outside.

Run from the root of a checkout:

    python3 benchmark/run.py --workload product-iid-n256 --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --seed 1            # every workload, one after another

The program is imported from ``src/`` and driven only through its public
entry points: cold ``lagprod`` CLI invocations (the console script's
``lagprod.cli:main``) for set-up time, and ``harness.resolve_config`` plus
``harness.run_experiment`` inside ``runner.py`` for sweeps.  Nothing here
pins BLAS or OpenMP thread counts.

Untraced (``--trace 0``) it reports, per workload:

* ``setup_s``: median wall time of a cold CLI invocation at ``--reps 1
  --workers 2`` (interpreter start, imports, constants, pool start, one
  replicate, CSV and report written);
* ``ms_per_rep`` / ``ms_per_rep_serial``: mean over sweeps of sweep wall
  time / M at ``--workers 2`` / ``--workers 1``, interpreter start excluded;

all three scaled to nominal host speed (see ``hostspeed.py``);
* ``peak_rss_mb``: largest peak RSS of the sweep process or any pool worker;
* ``certified_share``: certified replicates / attempted replicates.  A
  ``nan`` row is a failure; an aborted sweep counts as M failures of M.

Traced (``--trace 1``) it times serial sweeps with a span around every call
into the module functions listed in ``runner.SPAN_TARGETS`` and reports, per
span, ``ms_p50``, ``ms_p95``, ``calls`` (per sweep) and ``share`` (self time /
replicate time), plus ``rep.other_ms``, ``cli.import_s``,
``harness.csv_bytes`` and ``trace.overhead``.

Correctness gates run untimed after the timed loop; a failed gate makes the
command exit 1 after printing its result.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result (environment, every sample, gate details) and the span trace
are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REFERENCE = HERE / "reference" / "tw2-reference-samples.csv"
MANIFEST = HERE / "reference" / "MANIFEST.json"
SPEC = HERE.parent / "BENCHMARK.json"

# The console script, spelled out so no installation is needed.
CLI = ["-c", "import sys; from lagprod.cli import main; sys.argv[0] = 'lagprod'; sys.exit(main())"]
IMPORT_TIMER = ["-c", "import time; t = time.perf_counter(); import lagprod.cli; "
                      "print(repr(time.perf_counter() - t))"]

# M per sweep: at most about half a second of serial work (at n = 1024, one
# replicate per pool worker), so a run holds dozens of sweeps, while pool
# start (about 20 ms) stays a small part of one.
WORKLOADS = {
    "product-iid-n256": {
        "command": "sample-product", "mode": "product",
        "flags": {"n": 256, "p": 256, "q": 256, "beta": 1.0}, "reps": 8,
        # criterion 5's bound, on every untraced sample of the run (topped up to 600)
        "gate": {"gate": "ks-vs-tw2", "bound": 0.12, "min_samples": 600},
    },
    "product-pq-n1024": {
        "command": "sample-product", "mode": "product",
        "flags": {"n": 1024, "p": 2048, "q": 4096, "beta": 0.5}, "reps": 2,
        "gate": {"gate": "dense-oracle", "replicates": 3},
    },
    "tw2-airy": {
        "command": "sample-tw", "mode": "tw-reference",
        "flags": {"beta": 2.0}, "reps": 64,
        # allowances: mesh bias of the default h = 0.02 discretization, see README
        "gate": {"gate": "tw2-moments", "z": 4.0, "allow_mean": 0.01, "allow_variance": 0.01},
    },
}

SPAN_METRICS = ("ms_p50", "ms_p95", "calls", "share")

MIN_ROUNDS = 3         # rounds of sweeps made even when the time budget is spent
COLD_STARTS = 5        # cold CLI invocations (or fresh imports, traced) per run
TOP_UP_SEEDS = 100_000  # seed indices of untimed sweeps the KS gate adds
COLD_SEEDS = 200_000    # seed indices of the cold CLI invocations
HARD_DEADLINE = 170.0  # seconds; the runner is killed past this


def sweep_seed(seed: int, workload: str, k: int) -> int:
    """Seed of sweep k: a 64-bit hash of (seed, workload, k), never the reference's."""
    digest = hashlib.sha256(f"lagprod-bench:{workload}:{seed}:{k}".encode()).digest()
    value = int.from_bytes(digest[:8], "little")
    return value + 1 if value == json.loads(MANIFEST.read_text())["seed"] else value


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """The runner.py subprocess, one JSON line per command each way."""

    def __init__(self, deadline: float) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), text=True, cwd=ROOT)
        self.watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), self.proc.kill)
        self.watchdog.start()

    def __call__(self, op: str, **kwargs) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **kwargs}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"runner exited during {op!r} (code {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.watchdog.cancel()


def timed_process(args: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    return time.perf_counter() - start, proc


def cli_args(spec: dict, seed: int, reps: int, workers: int, out: Path) -> list[str]:
    flags = [f"--{k}={v}" for k, v in spec["flags"].items()]
    return [*CLI, spec["command"], *flags, f"--reps={reps}", f"--seed={seed}",
            f"--workers={workers}", f"--out={out}"]


class Tally:
    """Replicates attempted and failed across every sweep of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.aborts: list[str] = []

    def add(self, reply: dict, reps: int, what: str) -> bool:
        self.attempted += reps
        if reply["aborted"]:
            self.failed += reps
            self.aborts.append(f"{what}: {reply['error']}")
            return False
        self.failed += reply["nan"]
        return True


class Timings:
    """Measured values, each with the host-speed probes taken around it."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.probes: list[tuple[float, float]] = []

    def add(self, value: float, probe_before: float, probe_after: float) -> None:
        self.raw.append(value)
        self.probes.append((probe_before, probe_after))

    def nominal(self) -> list[float]:
        return [hostspeed.at_nominal_speed(v, b, a) for v, (b, a) in zip(self.raw, self.probes)]

    def median(self) -> float:
        values = self.nominal()
        return statistics.median(values) if values else float("nan")

    def mean(self) -> float:
        values = self.nominal()
        return statistics.fmean(values) if values else float("nan")

    def to_dict(self) -> dict:
        return {"raw": self.raw, "probe_ms": self.probes, "at_nominal_speed": self.nominal()}


class Sweeps:
    """Sweeps of one kind: ms per replicate, and CSV sha256 by seed index."""

    def __init__(self) -> None:
        self.ms_per_rep = Timings()
        self.sha: dict[int, str] = {}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    M = spec["reps"]
    start = time.monotonic()
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tally = Tally()
    sweep_args = {"mode": spec["mode"], "flags": spec["flags"], "reps": M}
    w1, w2, traced, untimed = Sweeps(), Sweeps(), Sweeps(), Sweeps()
    setups = Timings()
    imports: list[float] = []
    csv_bytes: list[int] = []
    cold_attempts: list[int] = []
    sampled: set[int] = set()  # seed indices of untraced sweeps, whose rows the gates pool
    tapes: set[int] = set()

    def cold_start() -> None:
        """One fresh interpreter: a timed import when tracing, else a timed CLI sweep at M = 1."""
        attempt = len(cold_attempts)
        cold_attempts.append(attempt)
        if trace:
            _, proc = timed_process(IMPORT_TIMER, timeout=30)
            if proc.returncode == 0:
                imports.append(float(proc.stdout.strip()))
            return
        args = cli_args(spec, sweep_seed(seed, name, COLD_SEEDS + attempt), 1, 2, run_dir / "cli")
        before = hostspeed.probe_ms()
        elapsed, proc = timed_process(args, timeout=30)
        after = hostspeed.probe_ms()
        reply = {"aborted": proc.returncode != 0, "nan": 0,
                 "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
        if tally.add(reply, 1, f"cold CLI {attempt}"):
            setups.add(elapsed, before, after)

    def sweep(index: int, workers: int, is_traced: bool, into: Sweeps) -> None:
        tag = f"w{workers}{'-traced' if is_traced else ''}"
        reply = runner("sweep", seed=sweep_seed(seed, name, index), workers=workers, trace=is_traced,
                       out=str(run_dir / tag), **sweep_args)
        if tally.add(reply, M, f"sweep {index} {tag}"):
            into.ms_per_rep.add(reply["seconds"] * 1e3 / M, *reply["probe_ms"])
            into.sha[index] = reply["sha256"]
            csv_bytes.append(reply["csv_bytes"])
            tapes.add(reply["tape"])
            if not is_traced:
                sampled.add(index)

    runner = Runner(start + HARD_DEADLINE)
    try:
        env = runner("env")
        # One untimed cold start compiles the bytecode a user's install already has.
        timed_process(IMPORT_TIMER, timeout=30)
        # Each round alternates which sweep runs first, and the cold starts are
        # spread evenly over the run, so slow phases of a shared machine fall on
        # every kind of sample alike.
        k = 0
        while k < MIN_ROUNDS or time.monotonic() - start < seconds:
            if trace:
                plan = [(k, 1, True, traced), (k, 1, False, w1)]
            else:
                # --workers 2 times spread far more than serial ones, so they get
                # two sweeps to one; the second has a seed of its own.
                plan = [(2 * k, 2, False, w2), (2 * k, 1, False, w1), (2 * k + 1, 2, False, w2)]
            for index, workers, is_traced, into in plan[:: -1 if k % 2 else 1]:
                sweep(index, workers, is_traced, into)
            if len(cold_attempts) < COLD_STARTS * min(1.0, (time.monotonic() - start) / seconds):
                cold_start()
            k += 1
        while len(cold_attempts) < COLD_STARTS:
            cold_start()
        rss = runner("rss")
        if trace:
            # Worker-count invariance needs one parallel sweep; untimed here.
            sweep(0, 2, False, w2)
        gates = {}
        gate = dict(spec["gate"])
        if gate["gate"] == "ks-vs-tw2":
            manifest = json.loads(MANIFEST.read_text())
            gate.update(reference=str(REFERENCE), reference_sha256=manifest["sha256"])
            # Top up with untimed serial sweeps until the KS sample is large enough.
            index = TOP_UP_SEEDS
            while len(sampled) * M < gate["min_samples"]:
                sweep(index, 1, False, untimed)
                index += 1
        gates.update(runner("gates", **gate))
        gates["csv_identical_across_workers"] = identical(w1.sha, w2.sha)
        if trace:
            gates["trace_leaves_output_unchanged"] = identical(w1.sha, traced.sha)
            summary = runner("trace", path=str(run_dir / "trace.json"))
            gates["trace_additive"] = {"ok": summary["additivity_error"] < 1e-9,
                                       "relative_error": summary["additivity_error"]}
    finally:
        runner.close()

    result = {"workload": name, "seed": seed, "trace": trace, "reps_per_sweep": M,
              "environment": dict(env, rng_tape=sorted(tapes) or [1]),
              "attempted": tally.attempted, "failed": tally.failed, "aborts": tally.aborts,
              "gates": gates, "rss": rss, "elapsed_s": time.monotonic() - start,
              "nominal_probe_ms": hostspeed.NOMINAL_MS,
              "samples": {"ms_per_rep": w2.ms_per_rep.to_dict(), "ms_per_rep_serial": w1.ms_per_rep.to_dict(),
                          "traced_ms_per_rep": traced.ms_per_rep.to_dict(), "setup_s": setups.to_dict(),
                          "cli_import_s": imports, "csv_bytes": csv_bytes}}
    result["correct"] = all(g["ok"] for g in gates.values()) and not tally.aborts
    if trace:
        result["trace_summary"] = summary
        result["metrics"] = layer_metrics(summary)
        result["metrics"].update({
            "cli.import_s": statistics.median(imports),
            "harness.csv_bytes": statistics.median(csv_bytes),
            "trace.overhead": traced.ms_per_rep.mean() / w1.ms_per_rep.mean() - 1.0,
        })
    else:
        result["metrics"] = {
            "setup_s": setups.median(),
            "ms_per_rep": w2.ms_per_rep.mean(),
            "ms_per_rep_serial": w1.ms_per_rep.mean(),
            "peak_rss_mb": rss["peak_rss_mb"],
            "certified_share": 1.0 - tally.failed / tally.attempted,
        }
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def identical(a: dict, b: dict) -> dict:
    common = sorted(set(a) & set(b))
    mismatched = [k for k in common if a[k] != b[k]]
    return {"ok": bool(common) and not mismatched, "pairs": len(common), "mismatched": mismatched}


def layer_metrics(summary: dict) -> dict:
    metrics = {f"{span}.{key}": stats[key] for span, stats in summary["spans"].items() for key in SPAN_METRICS}
    metrics["rep.other_ms"] = summary["rep_other_ms"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (SRC / "lagprod" / "cli.py", REFERENCE, MANIFEST, SPEC):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a lagprod checkout", file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]

    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for r in results:
        if set(r["metrics"]) != set(units):
            raise RuntimeError(f"metrics of {r['workload']} differ from BENCHMARK.json: "
                               f"{sorted(set(r['metrics']) ^ set(units))}")
    print(f"environment: {json.dumps(results[0]['environment'], sort_keys=True)}")
    for r in results:
        gates = ", ".join(f"{g}={'ok' if v['ok'] else 'FAIL'}" for g, v in r["gates"].items())
        print(f"[{r['workload']}] attempted={r['attempted']} failed={r['failed']} gates: {gates}")
        for abort in r["aborts"]:
            print(f"[{r['workload']}] aborted {abort}")
        for metric, value in r["metrics"].items():
            print(f"  {metric:36s} {value:14.6g} {units[metric]}")
    prefix = len(results) > 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": units[m]}
                    for r in results for m, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
