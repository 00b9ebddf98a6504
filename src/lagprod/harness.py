"""Experiment runner: config ingestion, one seeded parallel sweep, persistence.

Every mode is a chunk function ``fn(config, start, stop)`` of the config
and a run of replicate indices, returning the rows of replicates
``start..stop-1``; :func:`sweep` maps the mode's chunk function over
``0..reps-1`` and is the one place a batch is drawn.  A chunk function cuts
its run into blocks of at most :data:`STACK_DOUBLES` doubles per stacked
array, draws each replicate of a block from its own stream, stacks the
draws along a leading axis, and runs the matrix assembly, the solve and the
statistic once per block (only the LAPACK calls run once per matrix).  Each
row is computed with the same floating-point operations as it would be
alone, so no value depends on how replicates are grouped.  There is one mode
per sampling command: ``product``, ``single`` and ``tw-reference``.  The
potential path of ``diagnose-potential`` is a second statistic of ``single``
draws: :func:`mean_potential_path` reads it off the very factor each
``single`` replicate solves.  One table, :data:`SETTINGS` with :data:`SHARED`
and :data:`MODES`, says which settings each mode takes; a config refuses the
others.  A config is frozen: it is checked once, when it is built, and
resolves its mode's constants (product or single scaling, or the Airy
discretization) there; the sweep and the report of a run reuse and show them.

Replicate r of a run with master seed s draws only from the streams
``split_stream(s, r)`` (product mode: ``(s, 2r)`` and ``(s, 2r+1)``, one per
factor), so the set of sample values is independent of worker count and
scheduling; outputs are byte-identical for any --workers value.  The
worker count is capped at the replicate count; one worker runs in-process.

At w >= 2 workers the process keeps w - 1 helper processes, each joined to
it by a pipe, forked at the first parallel sweep of that count and reused
by every later one; a sweep at another count terminates them and forks new
ones.  A sweep cuts the replicates into w chunks of floor(reps/w) or
ceil(reps/w): the caller runs chunk 0 itself, helper k is sent chunk k as
``(fn, start, stop)``, and the caller then receives the helpers' rows in
order.  Any failure (an exception in any chunk, or a helper that dies)
terminates and joins every helper before it is raised, so no later sweep
reads a stale chunk.  Helpers keep the module state (and the open files)
of the process as of their fork, so a monkeypatch applied later reaches
``workers=1`` sweeps and the caller's chunk, not the helpers' chunks.
Helpers are daemonic, so multiprocessing's exit handler terminates and joins
them at interpreter exit; when the caller is killed they read end-of-file
and exit.

Persistence formats:

* sample CSV: ``# key=value`` metadata lines (one per line, keys sorted,
  label first, including the RNG ``tape`` version), a ``replicate,value``
  header, then one row per replicate in replicate order.  Floats are
  serialized with repr (shortest round-trip); failed replicates (a
  non-finite solve) are recorded as ``nan``, never filled.
* reports: JSON with fixed keys (:func:`json_text`), including the RNG
  ``tape`` version and the ``versions`` of python, numpy, scipy and numba,
  referencing artifact paths together with their sha256 checksums.
  :func:`run_experiment` returns the report dict it writes, and
  :func:`compare_batches` the KS payload.

Every artifact is rewritten in place (:func:`_write`): a rerun into the same
directory writes the same bytes as a fresh one and leaves no stale tail.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import importlib.util
import json
import math
import multiprocessing
import os
import platform
import time
import traceback
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from .airy import DEFAULT_CUTOFF, DEFAULT_MESH, AiryDiscretization, sample_tw
from .eig import EigConfig, banded_largest_eig
from .ensemble import (BidiagonalFactor, EnsembleParams, laguerre_matrix, potential_path,
                       sample_bidiagonal)
from .product import product_similarity
from .scaling import (ScalingConstants, closed_form_Cn, closed_form_cn, coupled_scaling,
                      product_statistic, single_scaling)
from .stats import SampleBatch, ks_two_sample, moments
from .variates import TAPE, split_stream

# The one table of run settings, each with its type and help: config files cast
# by it, and each sampling command takes one flag per setting its mode takes.
SETTINGS = {
    "beta": (float, "Ensemble beta > 0 (for sample-tw, the Tracy-Widom parameter)."),
    "n": (int, "Matrix size n."),
    "p": (int, "Ladder parameter (n <= p)."),
    "q": (int, "Second ladder parameter (p <= q)."),
    "reps": (int, "Replicate count M."),
    "seed": (int, "Master seed (64-bit unsigned)."),
    "workers": (int, "Worker process count."),
    "out": (Path, "Output directory."),
    "tol": (float, "Eigensolver tolerance (default 1e-10): each computed eigenvalue is within "
                   "tol/2 times the matrix's Gershgorin spectral diameter of the true one."),
    "mesh": (float, "Mesh step h (default 0.02)."),
    "cutoff": (float, "Domain cutoff L (default 12)."),
}
SHARED = ("beta", "reps", "seed", "workers", "out", "tol")  # taken by every mode
# each mode's own settings and their defaults (None: the mode requires it); a
# mode refuses every setting that is neither shared nor its own
MODES = {"product": {"n": None, "p": None, "q": None}, "single": {"n": None, "p": None},
         "tw-reference": {"mesh": DEFAULT_MESH, "cutoff": DEFAULT_CUTOFF}}
# the process's numeric stack, for every run report; numba is never imported, only looked up
_NUMBA = importlib.util.find_spec("numba") and importlib.metadata.version("numba")
VERSIONS = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numba": _NUMBA or "absent"}


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings, checked once when built; vary one with ``dataclasses.replace``.

    ``mode`` is one of :data:`MODES`, one per sampling command; the potential path is a
    statistic of ``single`` draws.  Building it resolves the mode's :attr:`constants`."""

    mode: str
    beta: float = 1.0
    n: int | None = None
    p: int | None = None
    q: int | None = None
    reps: int = 100
    seed: int = 0
    workers: int = 1
    out: Path = Path(".")
    tol: float | None = None
    mesh: float | None = None
    cutoff: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "out", Path(self.out))
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {tuple(MODES)}")
        own = MODES[self.mode]
        foreign = [k for k in SETTINGS if k not in SHARED and k not in own and getattr(self, k) is not None]
        if foreign:
            raise ConfigError(f"{self.mode} mode takes no {', '.join(foreign)}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if not self.beta > 0 or not math.isfinite(self.beta):
            raise ConfigError(f"beta must be positive and finite, got {self.beta}")
        required = [k for k, default in own.items() if default is None]
        if any(getattr(self, k) is None for k in required):
            raise ConfigError(f"{self.mode} mode requires {', '.join(required)}")
        try:
            self.eig_config()
            if self.mode == "product":
                constants = coupled_scaling(self.n, self.p, self.q, self.beta)
            elif self.mode == "tw-reference":
                constants = AiryDiscretization(
                    beta=self.beta, h=own["mesh"] if self.mesh is None else self.mesh,
                    L=own["cutoff"] if self.cutoff is None else self.cutoff)
            else:
                constants = single_scaling(self.n, self.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "constants", constants)  # not a field, so not in the report's config

    def eig_config(self) -> EigConfig:
        return EigConfig(rel_tol=self.tol) if self.tol is not None else EigConfig()


# --- config files ---------------------------------------------------------

def load_config_file(path: Path | str) -> dict:
    """Parse a ``key = value`` config file, casting each setting by :data:`SETTINGS`.

    ``mode`` names the command the file is for; any other key that is not a setting
    is a hard error, and so is a setting the mode does not take (when the config is built).
    """
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key != "mode" and key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cast = str if key == "mode" else SETTINGS[key][0]
        try:
            out[key] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


def resolve_config(mode: str, flags: dict, config_path: Path | str | None = None) -> ExperimentConfig:
    """Merge precedence: explicit flags > config file > defaults."""
    merged: dict = {}
    if config_path is not None:
        merged.update(load_config_file(config_path))
    file_mode = merged.pop("mode", None)
    if file_mode is not None and file_mode != mode:
        raise ConfigError(f"config file sets mode={file_mode!r} but the command runs {mode!r}")
    merged.update({k: v for k, v in flags.items() if v is not None})
    try:
        return ExperimentConfig(mode=mode, **merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# --- replicates: chunk functions fn(config, start, stop), top level for picklability

# the most doubles a stacked array of one block holds (at least one replicate
# per block), so a chunk's memory does not grow with its replicate count
STACK_DOUBLES = 2**16


def _blocks(start: int, stop: int, width: int) -> list[range]:
    """Consecutive runs of replicates start..stop-1, each stacking at most
    :data:`STACK_DOUBLES` doubles at ``width`` doubles per replicate."""
    step = max(1, STACK_DOUBLES // width)
    return [range(a, min(a + step, stop)) for a in range(start, stop, step)]


def _factors(config: ExperimentConfig, kappa: int, streams) -> BidiagonalFactor:
    """The factors drawn from the run's given streams, one each, stacked in that order."""
    params = EnsembleParams(n=config.n, kappa=kappa, beta=config.beta)
    drawn = [sample_bidiagonal(params, split_stream(config.seed, s)) for s in streams]
    return BidiagonalFactor(n=config.n, kappa=kappa, beta=config.beta,
                            diag=np.array([f.diag for f in drawn]),
                            subdiag=np.array([f.subdiag for f in drawn]))


def _product_replicate(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    rows = []
    for block in _blocks(start, stop, 2 * config.n):
        B_p = _factors(config, config.p, [2 * r for r in block])
        B_q = _factors(config, config.q, [2 * r + 1 for r in block])
        S = product_similarity(B_q, laguerre_matrix(B_p))
        rows.append(product_statistic(banded_largest_eig(S, config.eig_config()), config.constants))
    return np.concatenate(rows)


def _single_replicate(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    s = config.constants
    rows = []
    for block in _blocks(start, stop, 2 * config.n):
        X = laguerre_matrix(_factors(config, config.p, block))
        rows.append((banded_largest_eig(X, config.eig_config()) - s.mu) / s.sigma)
    return np.concatenate(rows)


def _tw_replicate(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    disc = config.constants
    return np.concatenate([
        sample_tw(disc, [split_stream(config.seed, r) for r in block], config.eig_config())
        for block in _blocks(start, stop, disc.N * disc.mc)])


def _path_replicate(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    return np.concatenate([potential_path(_factors(config, config.p, block), config.constants)
                           for block in _blocks(start, stop, 2 * config.n)])


# the process's helpers, ((pid, workers), [(process, pipe end), ...]); see the module docstring
_pool = None


def _serve(conn, ours) -> None:
    """Helper loop: answer each ``(fn, start, stop)`` with its rows, or (exception, traceback)."""
    ours.close()  # so that the caller's death reads as end-of-file here
    while True:
        try:
            fn, start, stop = conn.recv()
        except EOFError:
            return
        try:
            conn.send(fn(start, stop))
        except Exception as exc:
            conn.send((exc, traceback.format_exc()))


def _start_helper():
    ctx = multiprocessing.get_context()
    ours, theirs = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(theirs, ours), daemon=True)
    proc.start()
    theirs.close()  # so that the helper's death reads as end-of-file here
    return proc, ours


def _pmap(fn, count: int, workers: int) -> np.ndarray:
    """The rows of the chunk function ``fn(start, stop)`` over replicates 0..count-1, in order."""
    global _pool
    workers = min(workers, count)
    if workers <= 1:
        return fn(0, count)
    key = (os.getpid(), workers)
    if _pool is None or _pool[0] != key:
        _drop_pool()
        _pool = key, [_start_helper() for _ in range(workers - 1)]
    bounds = [k * count // workers for k in range(workers + 1)]
    try:
        # one chunk per process, so fn is pickled once per helper, not per replicate
        for k, (_, conn) in enumerate(_pool[1], start=1):
            conn.send((fn, bounds[k], bounds[k + 1]))
        parts = [fn(0, bounds[1])]
        for proc, conn in _pool[1]:
            try:
                part = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"helper process {proc.pid} exited mid-sweep "
                                   f"with code {proc.exitcode}") from None
            if isinstance(part, tuple):
                raise part[0] from RuntimeError(f"in helper process {proc.pid}:\n{part[1]}")
            parts.append(part)
        return np.concatenate(parts)
    except BaseException:
        _drop_pool()  # a failed sweep leaves no work behind in the helpers
        raise


def _drop_pool() -> None:
    """Terminate and join this process's helpers; a forked child only forgets its parent's."""
    global _pool
    if _pool is not None and _pool[0][0] == os.getpid():
        for proc, conn in _pool[1]:
            proc.terminate()
            proc.join()
            conn.close()
    _pool = None


def sweep(config: ExperimentConfig) -> np.ndarray:
    """Rows of replicates 0..reps-1 of the config's mode, in replicate order."""
    # looked up per call, so a replicate patched on the module is the one run
    replicate = {"product": _product_replicate, "single": _single_replicate,
                 "tw-reference": _tw_replicate}[config.mode]
    return _pmap(partial(replicate, config), config.reps, config.workers)


# --- persistence -----------------------------------------------------------


def _parse_value(s: str):
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            continue
    return s


def _write(path: Path, data: bytes) -> None:
    """Rewrite ``path`` with ``data`` in place, cutting off any longer old tail.

    Truncating an existing file to empty before writing it frees its blocks, which can
    cost more than the write; overwriting, then truncating to the new length, does not.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_batch_csv(path: Path, label: str, params: dict, rows: np.ndarray) -> str:
    """Write replicate-ordered rows with a ``# key=value`` metadata block; returns their sha256."""
    lines = [f"# label={label}"]
    lines += [f"# {k}={params[k]}" for k in sorted(params)]  # a float's str is its repr
    lines.append("replicate,value")
    lines += [f"{r},{repr(float(v))}" for r, v in enumerate(rows)]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _write(path, data)
    return hashlib.sha256(data).hexdigest()


def read_batch_csv(path: Path | str) -> SampleBatch:
    """Load a sample CSV back into a batch; NaN rows are dropped and counted."""
    path = Path(path)
    label = None
    params: dict = {}
    rows: list[float] = []
    in_rows = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            if key == "label":
                label = value
            else:
                params[key] = _parse_value(value)
            continue
        if line == "replicate,value":
            in_rows = True
            continue
        if not in_rows:
            raise ConfigError(f"{path}:{lineno}: unexpected line before header: {line!r}")
        try:
            _, _, value = line.partition(",")
            rows.append(float(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad row {line!r}") from exc
    if label is None or not rows:
        raise ConfigError(f"{path}: not a sample CSV (missing label or rows)")
    values = _finite_rows(np.array(rows), path)
    params["failures"] = len(rows) - values.size
    return SampleBatch(label=label, params=params, values=values)


def _finite_rows(rows: np.ndarray, source: Path) -> np.ndarray:
    """The rows that are not NaN (failed replicates), in replicate order; at least one must be."""
    finite = rows[~np.isnan(rows)]
    if not finite.size:
        raise ConfigError(f"{source}: every replicate is missing")
    return finite


def json_text(payload: dict) -> str:
    """The one text form of every report: sorted keys, two-space indent, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: Path, payload: dict) -> None:
    _write(path, json_text(payload).encode("utf-8"))


# --- experiment pipeline ----------------------------------------------------


def _field_dict(dc) -> dict:
    """A dataclass's fields by name, values as they are (``asdict`` deep-copies each one)."""
    return {f.name: getattr(dc, f.name) for f in fields(dc)}


def scaling_report(sc: ScalingConstants) -> dict:
    """Every product constant plus the printed closed forms and their status."""
    report = _field_dict(sc)
    # each factor's m, mu and sigma; its n and ladder parameter are the report's n, p and q
    report["per_matrix"] = {k: {f: getattr(s, f) for f in ("m", "mu", "sigma")}
                            for k, s in (("p", report.pop("sp")), ("q", report.pop("sq")))}
    cf_cn = closed_form_cn(sc.n, sc.p, sc.q)
    cf_Cn = closed_form_Cn(sc.n, sc.p, sc.q)
    cube = sc.c_n**3
    return report | {
        "closed_form_cn": cf_cn,
        "closed_form_cn_note": (
            "equals c_n**3 (cube of the operative constant); "
            f"relative difference {abs(cf_cn - cube) / cube:.3e}"
        ),
        "closed_form_Cn": cf_Cn,
        "closed_form_Cn_note": (
            "matches operative C_n"
            if abs(cf_Cn - sc.C_n) <= 1e-12 * sc.C_n
            else f"differs from operative C_n={sc.C_n!r} (printed form; known discrepancy for p != q)"
        ),
    }


def _sample_params(config: ExperimentConfig) -> tuple[dict, dict]:
    """CSV metadata of a run and the constants its report shows."""
    c = config.constants
    params = {"beta": config.beta, "seed": config.seed, "M": config.reps, "tape": TAPE}
    if config.mode == "product":
        params.update(n=c.n, p=c.p, q=c.q, beta0=c.beta0, generator="laguerre-product")
        return params, scaling_report(c)
    if config.mode == "single":
        params.update(n=c.n, p=c.i, generator="laguerre-single")
    else:
        params.update(mesh=c.h, cutoff=c.L, generator="stochastic-airy")
    return params, _field_dict(c)


def run_experiment(config: ExperimentConfig) -> tuple[Path, dict]:
    """Run one Monte Carlo sweep, persist its sample batch and write its report.

    Returns the report's path and the report dict written there.
    """
    t0 = time.perf_counter()
    rows = sweep(config)
    params, constants = _sample_params(config)
    failures = params["failures"] = int(np.isnan(rows).sum())

    config.out.mkdir(parents=True, exist_ok=True)
    batch_path = config.out / f"{config.mode}-samples.csv"
    batch_sha256 = write_batch_csv(batch_path, config.mode, params, rows)

    mom = moments(_finite_rows(rows, batch_path))
    wall = time.perf_counter() - t0
    report = {
        "tape": TAPE,
        "versions": dict(VERSIONS),
        "config": _field_dict(config) | {"out": str(config.out), "tol": config.eig_config().rel_tol},
        "constants": constants,
        "moments": mom,
        "failures": failures,
        "artifacts": {"samples_csv": {"path": str(batch_path), "sha256": batch_sha256}},
        "timing": {"wall_seconds": wall, "per_replicate_seconds": wall / config.reps},
    }
    report_path = config.out / f"{config.mode}-report.json"
    write_json(report_path, report)
    return report_path, report


def compare_batches(path_a: Path | str, path_b: Path | str, out: Path | str | None = None) -> dict:
    """KS-compare two persisted batches; returns the JSON payload (written when ``out`` is given)."""
    a = read_batch_csv(path_a)
    b = read_batch_csv(path_b)
    payload = ks_two_sample(a.values, b.values) | {
        "versions": dict(VERSIONS),
        "batch_a": {"path": str(path_a), "label": a.label, "params": a.params},
        "batch_b": {"path": str(path_b), "label": b.label, "params": b.params},
    }
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "ks-report.json", payload)
    return payload


def mean_potential_path(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Empirical mean of the potential path of a ``single`` config's draws.

    Replicate r reads it off the factor that ``single`` replicate r solves.
    Returns arrays x (grid k/m), mean, stderr and the reference x^2/2.
    """
    if config.mode != "single":
        raise ConfigError(f"the potential path is a statistic of single draws, got mode {config.mode!r}")
    if config.n < 2:
        raise ConfigError(f"the potential path needs n >= 2 for a grid point, got n={config.n}")
    M = config.reps
    paths = _pmap(partial(_path_replicate, config), M, config.workers)
    x = np.arange(1, config.n) / config.constants.m
    return {
        "x": x,
        "mean": paths.mean(axis=0),
        "stderr": paths.std(axis=0, ddof=1) / math.sqrt(M) if M > 1 else np.zeros(config.n - 1),
        "reference": 0.5 * x * x,
    }


def write_potential_csv(path: Path, result: dict[str, np.ndarray]) -> str:
    """Write the potential path table of :func:`mean_potential_path`; returns its sha256."""
    lines = ["x,mean,stderr,reference"]
    for k in range(len(result["x"])):
        lines.append(
            ",".join(repr(float(result[col][k])) for col in ("x", "mean", "stderr", "reference"))
        )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _write(path, data)
    return hashlib.sha256(data).hexdigest()
