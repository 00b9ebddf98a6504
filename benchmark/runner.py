"""Benchmark worker: runs lagprod sweeps on request and times them from outside.

``run.py`` starts this script with the checkout's ``src`` directory on
PYTHONPATH.  It reads one JSON command per line on stdin and answers each with
one JSON line on stdout, so ``run.py`` can interleave cold CLI invocations
between sweeps while this process keeps lagprod imported.  Sweeps go through
the same public path as the ``lagprod`` console script
(``harness.resolve_config`` then ``harness.run_experiment``); the program is
never modified.  Traced sweeps wrap the module functions at the names the
harness and the Airy sampler call them by, record one span per call in
memory, and restore the originals afterwards.

Commands (``op``): ``env``, ``sweep``, ``rss``, ``gates``, ``trace``, ``quit``.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import hostspeed
import lagprod.cli  # noqa: F401  (the console script's module set, for a like-for-like RSS)
from lagprod import harness

# TW_2 moments (Tracy & Widom 1994; Bornemann 2010 to the digits shown).
TW2_MEAN = -1.7710868074
TW2_VARIANCE = 0.8131947928

# Span name -> (module, attribute) pairs patched while tracing.  Each pair is
# the name a caller looks up at call time, so wrapping it sees every call the
# sweep makes without touching the program's files.
SPAN_TARGETS = {
    "rep": [("lagprod.harness", "_product_replicate"), ("lagprod.harness", "_tw_replicate")],
    "ensemble.sample_bidiagonal": [("lagprod.harness", "sample_bidiagonal")],
    "ensemble.laguerre_matrix": [("lagprod.harness", "laguerre_matrix")],
    "product.product_similarity": [("lagprod.harness", "product_similarity")],
    "eig.banded_largest_eig": [("lagprod.harness", "banded_largest_eig")],
    "eig.tridiag_extreme_eig": [("lagprod.airy", "tridiag_extreme_eig")],
    "airy.cell_noise": [("lagprod.airy", "cell_noise")],
    "airy.airy_tridiagonal": [("lagprod.airy", "airy_tridiagonal")],
    "harness.write_batch_csv": [("lagprod.harness", "write_batch_csv")],
    "harness.read_batch_csv": [("lagprod.harness", "read_batch_csv")],
    "stats.moments": [("lagprod.harness", "moments")],
}
SWEEP_SPAN = "harness.run_experiment"


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._rep: int | None = None
        self._sweep: int | None = None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            is_rep = name == "rep"
            if is_rep:
                self._rep = int(args[1])
            index = len(self.spans)
            self.spans.append({})
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = {"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "rep": self._rep, "sweep": self._sweep}
                if is_rep:
                    self._rep = None

        return traced

    def sweep(self, sweep_id: int, fn, *args):
        self._sweep = sweep_id
        try:
            return self.wrap(SWEEP_SPAN, fn)(*args)
        finally:
            self._sweep = None


@contextmanager
def patched(tracer: Tracer):
    """Wrap every span target for the duration of one sweep, then restore."""
    saved = []
    try:
        for name, targets in SPAN_TARGETS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)  # a missing target is a hard error
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def read_csv(path: Path) -> tuple[dict, list[float]]:
    """Metadata and replicate-ordered values of a sample CSV (nan kept)."""
    meta: dict = {}
    values: list[float] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line and line != "replicate,value":
            values.append(float(line.partition(",")[2]))
    return meta, values


class Runner:
    def __init__(self, two_core_probe: hostspeed.TwoCoreProbe) -> None:
        self.two_core_probe = two_core_probe
        self.tracer = Tracer()
        self.traced_sweeps = 0
        self.samples: dict[int, list[float]] = {}  # seed -> values of its first untraced sweep
        self.mode_flags: tuple[str, dict] | None = None

    # --- commands -----------------------------------------------------------

    def env(self, cmd: dict) -> dict:
        def version(dist: str) -> str | None:
            try:
                return importlib.metadata.version(dist)
            except importlib.metadata.PackageNotFoundError:
                return None

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads, config = _openblas_runtime()
        return {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": version("scipy"),
            "click": version("click"),
            "numba": version("numba") if importlib.util.find_spec("numba") else "absent",
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "runtime_config": config, "threads": threads},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "thread_env": {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                           if k in os.environ},
        }

    def sweep(self, cmd: dict) -> dict:
        mode, flags = cmd["mode"], dict(cmd["flags"])
        flags.update(reps=cmd["reps"], seed=cmd["seed"], workers=cmd["workers"], out=Path(cmd["out"]))
        self.mode_flags = (mode, dict(cmd["flags"]))
        config = harness.resolve_config(mode, flags)
        probe = self.two_core_probe if cmd["workers"] > 1 else hostspeed.probe_ms
        probe_before = probe()
        # A span target the program no longer has fails here, outside the
        # handler below, so it stops the run instead of passing for an abort.
        with patched(self.tracer) if cmd["trace"] else nullcontext():
            start = time.perf_counter()
            try:
                if cmd["trace"]:
                    self.tracer.sweep(self.traced_sweeps, harness.run_experiment, config)
                else:
                    harness.run_experiment(config)
            except Exception as exc:  # an aborted sweep is counted, never retried
                return {"aborted": True, "error": f"{type(exc).__name__}: {exc}",
                        "seconds": time.perf_counter() - start}
            seconds = time.perf_counter() - start
        if cmd["trace"]:
            self.traced_sweeps += 1
        probe_after = probe()
        csv = Path(cmd["out"]) / f"{mode}-samples.csv"
        data = csv.read_bytes()
        meta, values = read_csv(csv)
        if not cmd["trace"]:
            self.samples.setdefault(cmd["seed"], values)
        return {
            "aborted": False,
            "seconds": seconds,
            "probe_ms": [probe_before, probe_after],
            "nan": sum(math.isnan(v) for v in values),
            "sha256": hashlib.sha256(data).hexdigest(),
            "csv_bytes": len(data),
            "tape": int(meta.get("tape", 1)),
        }

    def rss(self, cmd: dict) -> dict:
        # ru_maxrss is in KiB on Linux; children are the reaped pool workers.
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"peak_rss_mb": max(own, workers) / 1024.0, "parent_mb": own / 1024.0,
                "largest_worker_mb": workers / 1024.0}

    def gates(self, cmd: dict) -> dict:
        name = cmd["gate"]
        if not self.samples:
            return {name: {"ok": False, "detail": "no completed sweep to check"}}
        check = {"ks-vs-tw2": self._ks_vs_reference, "dense-oracle": self._dense_oracle,
                 "tw2-moments": self._tw2_moments}[name]
        try:
            return {name: check(cmd)}
        except Exception:  # a gate that cannot be evaluated has failed
            return {name: {"ok": False, "detail": traceback.format_exc()}}

    def trace(self, cmd: dict) -> dict:
        spans = self.tracer.spans
        Path(cmd["path"]).write_text(json.dumps({"spans": spans}) + "\n", encoding="utf-8")
        return summarize_spans(spans, self.traced_sweeps)

    # --- correctness gates ----------------------------------------------------

    def pooled(self) -> np.ndarray:
        values = np.concatenate([np.asarray(v) for v in self.samples.values()])
        return values[~np.isnan(values)]

    def _ks_vs_reference(self, cmd: dict) -> dict:
        from scipy.stats import ks_2samp

        ref_path = Path(cmd["reference"])
        digest = hashlib.sha256(ref_path.read_bytes()).hexdigest()
        if digest != cmd["reference_sha256"]:
            return {"ok": False, "detail": f"reference sha256 {digest} does not match the manifest"}
        _, ref = read_csv(ref_path)
        sample = self.pooled()
        D = float(ks_2samp(sample, np.asarray(ref)).statistic)
        return {"ok": bool(D < cmd["bound"] and sample.size >= cmd["min_samples"]),
                "D": D, "bound": cmd["bound"], "samples": int(sample.size), "reference": len(ref)}

    def _dense_oracle(self, cmd: dict) -> dict:
        from lagprod.ensemble import EnsembleParams, laguerre_matrix, sample_bidiagonal
        from lagprod.product import product_similarity
        from lagprod.scaling import coupled_scaling
        from lagprod.variates import split_stream

        mode, flags = self.mode_flags
        config = harness.resolve_config(mode, dict(flags, reps=1))
        n, p, q, beta = config.n, config.p, config.q, config.beta
        sc = coupled_scaling(n, p, q, beta)
        rel_tol = config.eig_config().rel_tol
        rows = [(seed, r, v) for seed, values in self.samples.items() for r, v in enumerate(values)]
        worst = 0.0
        checks = []
        for seed, r, value in rows[: cmd["replicates"]]:
            B_p = sample_bidiagonal(EnsembleParams(n=n, kappa=p, beta=beta), split_stream(seed, 2 * r))
            B_q = sample_bidiagonal(EnsembleParams(n=n, kappa=q, beta=beta), split_stream(seed, 2 * r + 1))
            S = product_similarity(B_q, laguerre_matrix(B_p))
            lam = float(np.linalg.eigvalsh(S.dense())[-1])
            T = (lam - sc.mu_n) / sc.stat_denom
            # Lanczos certifies |lam - lam_true| <= rel_tol * ||S||_1; the dense
            # solve adds at most a few n * eps * ||S||_1.
            bound = (rel_tol + 4 * n * np.finfo(float).eps) * S.one_norm() / sc.stat_denom
            err = abs(value - T)
            worst = max(worst, err / bound)
            checks.append({"seed": seed, "replicate": r, "T": value, "T_dense": T, "abs_err": err,
                           "bound": float(bound), "rel_err_lambda": err * sc.stat_denom / abs(lam)})
        return {"ok": bool(checks) and bool(worst <= 1.0), "worst_err_over_bound": float(worst),
                "checks": checks}

    def _tw2_moments(self, cmd: dict) -> dict:
        x = self.pooled()
        M = x.size
        mean, var = float(x.mean()), float(x.var(ddof=1))
        c = x - mean
        se_mean = math.sqrt(var / M)
        se_var = math.sqrt(max(float(np.mean(c**4)) - var**2, 0.0) / M)
        z, allow_mean, allow_var = cmd["z"], cmd["allow_mean"], cmd["allow_variance"]
        ok = (abs(mean - TW2_MEAN) <= z * se_mean + allow_mean
              and abs(var - TW2_VARIANCE) <= z * se_var + allow_var)
        return {"ok": bool(ok), "samples": int(M), "mean": mean, "variance": var,
                "se_mean": se_mean, "se_variance": se_var, "z": z,
                "allow_mean": allow_mean, "allow_variance": allow_var,
                "tw2_mean": TW2_MEAN, "tw2_variance": TW2_VARIANCE}


def _openblas_runtime() -> tuple[int | None, str | None]:
    """Thread count and build string of the OpenBLAS numpy loaded, if it is OpenBLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return int(get_threads()), get_config().decode()
    return None, None


def summarize_spans(spans: list[dict], sweeps: int) -> dict:
    """Per-span calls, duration percentiles, self time and share of replicate time."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    per_name: dict[str, dict[str, list[float]]] = {}
    for s, covered in zip(spans, child_time):
        entry = per_name.setdefault(s["name"], {"dur": [], "self": []})
        entry["dur"].append(s["end"] - s["start"])
        entry["self"].append(s["end"] - s["start"] - covered)
    rep = per_name.get("rep", {"dur": [], "self": []})
    rep_total = sum(rep["dur"])
    out = {"sweeps": sweeps, "reps": len(rep["dur"]), "rep_seconds": rep_total, "spans": {}}
    for name in SPAN_TARGETS:
        entry = per_name.get(name, {"dur": [], "self": []})
        dur_ms = np.asarray(entry["dur"]) * 1e3
        out["spans"][name] = {
            "calls": len(dur_ms) / sweeps if sweeps else 0.0,
            "ms_p50": float(np.percentile(dur_ms, 50)) if dur_ms.size else 0.0,
            "ms_p95": float(np.percentile(dur_ms, 95)) if dur_ms.size else 0.0,
            "self_seconds": float(sum(entry["self"])),
            "share": float(sum(entry["self"]) / rep_total) if rep_total else 0.0,
        }
    # Self times of the spans nested in replicates plus the replicates' own self
    # time must add up to the replicate time; a mis-nested span breaks this.
    inside = sum(s["end"] - s["start"] - covered for s, covered in zip(spans, child_time)
                 if s["rep"] is not None and s["name"] != "rep")
    out["rep_other_ms"] = float(np.mean(rep["self"]) * 1e3) if rep["self"] else 0.0
    out["additivity_error"] = abs(inside + sum(rep["self"]) - rep_total) / rep_total if rep_total else 0.0
    return out


def main() -> None:
    with hostspeed.TwoCoreProbe() as two_core_probe:
        runner = Runner(two_core_probe)
        handlers = {"env": runner.env, "sweep": runner.sweep, "rss": runner.rss,
                    "gates": runner.gates, "trace": runner.trace}
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["op"] == "quit":
                break
            reply = handlers[cmd["op"]](cmd)
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
