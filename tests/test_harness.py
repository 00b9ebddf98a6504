import ast
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from lagprod import harness
from lagprod.cli import main as cli_main
from lagprod.eig import EigConfig, banded_largest_eig, gershgorin_bounds
from lagprod.ensemble import EnsembleParams, laguerre_matrix, sample_bidiagonal
from lagprod.harness import (
    ConfigError,
    ExperimentConfig,
    compare_batches,
    load_config_file,
    mean_potential_path,
    read_batch_csv,
    resolve_config,
    run_experiment,
    scaling_report,
    sweep,
    write_batch_csv,
    write_potential_csv,
)
from lagprod.product import product_similarity
from lagprod.scaling import coupled_scaling, product_statistic
from lagprod.stats import moments
from lagprod.variates import split_stream

# for subprocesses that import the package from this checkout
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))


def _tw_config(out, workers=1, reps=16):
    return ExperimentConfig(
        mode="tw-reference", beta=2.0, reps=reps, seed=11, workers=workers,
        out=out, mesh=0.1, cutoff=8.0,
    )


def test_composition_consistency_single_replicate(tmp_path):
    # M = 1 product run equals the hand-composed module pipeline
    n = 4
    config = ExperimentConfig(mode="product", n=n, p=n, q=n, beta=2.0, reps=1, seed=77, out=tmp_path)
    _, report = run_experiment(config)

    seed = 77
    stream_p, stream_q = split_stream(seed, 0), split_stream(seed, 1)
    B_p = sample_bidiagonal(EnsembleParams(n=n, kappa=n, beta=2.0), stream_p)
    B_q = sample_bidiagonal(EnsembleParams(n=n, kappa=n, beta=2.0), stream_q)
    S = product_similarity(B_q, laguerre_matrix(B_p))
    lam = banded_largest_eig(S, EigConfig())
    expected = product_statistic(lam, coupled_scaling(n, n, n, 2.0))
    assert read_batch_csv(report["artifacts"]["samples_csv"]["path"]).values[0] == expected


_MODE_KWARGS = {
    "product": dict(n=6, p=7, q=9, beta=0.5),
    "single": dict(n=6, p=8, beta=2.0),
    "tw-reference": dict(beta=2.0, mesh=0.1, cutoff=8.0),
}


# "potential" is the potential path of the "single" case's draws
@pytest.mark.parametrize("case", [*_MODE_KWARGS, "potential"])
def test_worker_count_independence(tmp_path, case):
    mode = "single" if case == "potential" else case
    blobs = []
    for w in (1, 2, 8):
        config = ExperimentConfig(mode=mode, reps=16, seed=11, workers=w, out=tmp_path / f"w{w}",
                                  **_MODE_KWARGS[mode])
        if case == "potential":
            path = tmp_path / f"w{w}-potential-path.csv"
            write_potential_csv(path, mean_potential_path(config))
        else:
            path = run_experiment(config)[1]["artifacts"]["samples_csv"]["path"]
        blobs.append(Path(path).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


# each command, its flags, and the doubles one replicate stacks: 2n for a chi
# factor's draw, N * mc micro-normals for the Airy tape (N = 80, mc = 20 here)
_BLOCK_CASES = {
    "sample-product": (["--n", "6", "--p", "7", "--q", "9", "--beta", "0.5"], 12),
    "sample-single": (["--n", "6", "--p", "8", "--beta", "2"], 12),
    "sample-tw": (["--beta", "2", "--mesh", "0.1", "--cutoff", "8"], 80 * 20),
    "diagnose-potential": (["--n", "6", "--p", "8", "--beta", "2"], 12),
}


@pytest.mark.parametrize("command", list(_BLOCK_CASES))
def test_csv_bytes_do_not_depend_on_block_grouping(tmp_path, monkeypatch, command):
    # one replicate per block solves every matrix alone; blocks of 3 and the
    # default cap stack neighbours, so a row that read any other row of its
    # block would change these bytes.  11 replicates: blocks of 3 leave a
    # short one at either worker count, and 3 workers take chunks of 3, 4, 4.
    flags, width = _BLOCK_CASES[command]
    default = harness.STACK_DOUBLES
    blobs = {}
    try:
        for rows in (1, 3, None):
            monkeypatch.setattr(harness, "STACK_DOUBLES", default if rows is None else rows * width)
            harness._drop_pool()  # helpers forked from here on see this cap
            for w in (1, 3):
                out = tmp_path / f"{rows}-{w}"
                res = CliRunner().invoke(cli_main, [command, *flags, "--reps", "11", "--seed", "8",
                                                    "--workers", str(w), "--out", str(out)])
                assert res.exit_code == 0, res.output
                (csv,) = out.glob("*.csv")
                blobs[rows, w] = csv.read_bytes()
    finally:
        harness._drop_pool()
    assert len(set(blobs.values())) == 1, [key for key, blob in blobs.items() if blob != blobs[1, 1]]


def test_sweep_looks_up_replicates_at_call_time(tmp_path, monkeypatch):
    # the benchmark's traced runs count replicates by patching these module
    # attributes; a sweep bound to them at import time would never call the patch.
    # Each call covers a chunk (config, start, stop) or a stack of matrices.
    calls = dict.fromkeys(("_product_replicate", "_tw_replicate", "banded_largest_eig"), 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += len(args[0].bands[0]) if name == "banded_largest_eig" else args[2] - args[1]
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    run_experiment(ExperimentConfig(mode="product", n=6, p=7, q=9, reps=5, seed=1, out=tmp_path / "p"))
    run_experiment(_tw_config(tmp_path / "tw", reps=7))
    assert calls == {"_product_replicate": 5, "_tw_replicate": 7, "banded_largest_eig": 5}


def test_batch_csv_round_trip(tmp_path):
    params = {
        "n": 256,
        "beta": 0.1 + 0.2,  # non-representable float must survive bit-exactly
        "seed": 2**63 + 11,
        "generator": "laguerre-product",
    }
    rows = np.array([1.0, math.pi, float("nan"), -1e-300])
    path = tmp_path / "batch.csv"
    write_batch_csv(path, "product", params, rows)
    batch = read_batch_csv(path)
    assert batch.label == "product"
    for key, value in params.items():
        assert batch.params[key] == value
        assert type(batch.params[key]) is type(value)
    assert batch.params["failures"] == 1
    assert batch.values.tolist() == [1.0, math.pi, -1e-300]  # replicate order, NaN row dropped


def test_read_batch_csv_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# label=x\nreplicate,value\n0,not-a-float\n")
    with pytest.raises(ConfigError) as excinfo:
        read_batch_csv(path)
    assert "bad.csv:3" in str(excinfo.value)


def test_compare_self_is_zero(tmp_path):
    config = _tw_config(tmp_path)
    run_experiment(config)
    csv = tmp_path / "tw-reference-samples.csv"
    payload = compare_batches(csv, csv, tmp_path)
    assert payload["D"] == 0.0
    assert payload["p_value"] == 1.0
    assert payload["n_a"] == payload["n_b"] == 16
    assert payload["batch_a"]["params"]["beta"] == 2.0
    written = json.loads((tmp_path / "ks-report.json").read_text())
    assert written.keys() == {"D", "p_value", "n_a", "n_b", "versions", "batch_a", "batch_b"}
    assert written["versions"] == harness.VERSIONS
    assert written == payload


def test_config_file_precedence_and_validation(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\np = 5\nq = 6\nbeta = 2.0\nreps = 3\nseed = 9\n")
    config = resolve_config("product", {"q": 7, "out": tmp_path}, cfg)
    assert (config.n, config.p, config.q) == (4, 5, 7)  # flag overrides file
    assert config.beta == 2.0

    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)

    wrong_mode = tmp_path / "mode.cfg"
    wrong_mode.write_text("mode = single\n")
    with pytest.raises(ConfigError):
        resolve_config("product", {}, wrong_mode)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="product", n=4, p=3, q=5),
        dict(mode="product", n=4, p=5),
        dict(mode="single", n=4),
        dict(mode="single", n=4, p=3),
        dict(mode="product", n=4, p=5, q=6, reps=0),
        dict(mode="product", n=4, p=5, q=6, workers=0),
        dict(mode="product", n=4, p=5, q=6, beta=-1.0),
        dict(mode="tw-reference", mesh=0.5),
        dict(mode="tw-reference", cutoff=4.0),
        dict(mode="product", n=4, p=5, q=6, tol=0.5),
        dict(mode="product", n=4, p=5, q=6, seed=2**64),
        dict(mode="tw-reference", reps=0),
        dict(mode="tw-reference", cutoff=math.inf),
        dict(mode="tw-reference", cutoff=math.nan),
        dict(mode="potential", n=6, p=8),  # the potential path is a statistic of single draws
        dict(mode="product", n=4, p=5, q=6, mesh=0.05),  # a setting the mode does not take
        dict(mode="single", n=4, p=5, q=6),
        dict(mode="tw-reference", n=500),
    ],
)
def test_config_validation_errors(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("command,mode", [("sample-product", "product"), ("sample-single", "single"),
                                          ("sample-tw", "tw-reference")])
def test_sampling_command_flags_are_its_modes_settings(command, mode):
    options = {opt for param in cli_main.commands[command].params for opt in param.opts}
    assert options == {f"--{k}" for k in [*harness.MODES[mode], *harness.SHARED]} | {"--config"}
    # and the config has one field per setting of the table
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == ["mode", *harness.SETTINGS]


@pytest.mark.parametrize("command,body", [
    ("sample-product", "n = 4\np = 4\nq = 4\nmesh = 0.05\ncutoff = 9\n"),
    ("sample-tw", "n = 500\np = 3\nq = 2\n"),
], ids=["product-mesh-cutoff", "tw-sizes"])
def test_config_file_setting_the_mode_does_not_take_is_refused(tmp_path, command, body):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    out = tmp_path / "out"
    res = CliRunner().invoke(cli_main, [command, "--config", str(cfg), "--reps", "2", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "config error:" in res.output
    assert not out.exists()


def test_config_is_frozen(tmp_path):
    config = _tw_config(tmp_path)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.workers = 2


def test_product_run_resolves_constants_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return coupled_scaling(*args)

    monkeypatch.setattr(harness, "coupled_scaling", counting)
    run_experiment(ExperimentConfig(mode="product", n=6, p=7, q=9, beta=0.5, reps=3, seed=1, out=tmp_path))
    assert calls == [(6, 7, 9, 0.5)]


def test_product_report_constants_match_cli(tmp_path):
    report_path, _ = run_experiment(ExperimentConfig(mode="product", n=6, p=7, q=9, beta=0.5, reps=3,
                                                     seed=1, out=tmp_path))
    printed = CliRunner().invoke(cli_main, ["constants", "--n", "6", "--p", "7", "--q", "9", "--beta", "0.5"])
    assert printed.exit_code == 0
    assert json.loads(printed.output) == json.loads(report_path.read_text())["constants"]
    # the same text form as the reports; click.echo adds the final newline
    assert printed.output == json.dumps(scaling_report(coupled_scaling(6, 7, 9, 0.5)),
                                        indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("args", [(6, 7, 9, 0.5), (4, 9, 9, 2.0)])
def test_scaling_report_matches_asdict(args):
    sc = coupled_scaling(*args)
    expected = dataclasses.asdict(sc)
    expected["per_matrix"] = {k: {f: s[f] for f in ("m", "mu", "sigma")}
                              for k, s in (("p", expected.pop("sp")), ("q", expected.pop("sq")))}
    report = scaling_report(sc)
    assert {k: report[k] for k in expected} == expected
    assert report.keys() - expected.keys() == {"closed_form_cn", "closed_form_cn_note",
                                               "closed_form_Cn", "closed_form_Cn_note"}


@pytest.mark.parametrize("mode,sizes,tol", [("single", dict(n=6, p=9), None),
                                            ("product", dict(n=6, p=7, q=9), 1e-8)])
def test_report_config_and_single_constants_match_asdict(tmp_path, mode, sizes, tol):
    config = ExperimentConfig(mode=mode, beta=1.5, reps=3, seed=2, out=tmp_path, tol=tol, **sizes)
    _, report = run_experiment(config)
    assert report["config"] == dataclasses.asdict(config) | {
        "out": str(tmp_path), "tol": 1e-10 if tol is None else tol}
    if mode == "single":
        assert report["constants"] == dataclasses.asdict(config.constants)


def _without_paths_and_timing(report: dict) -> dict:
    return report | {"timing": None, "config": report["config"] | {"out": None},
                     "artifacts": {k: v | {"path": None} for k, v in report["artifacts"].items()}}


def test_rerun_into_the_same_directory_leaves_no_stale_tail(tmp_path):
    long = ExperimentConfig(mode="product", n=6, p=7, q=9, beta=0.5, reps=40, seed=5,
                            out=tmp_path / "reused")
    run_experiment(long)
    short = dataclasses.replace(long, reps=3)
    reused_path, reused = run_experiment(short)
    fresh_path, fresh = run_experiment(dataclasses.replace(short, out=tmp_path / "fresh"))
    assert ((tmp_path / "reused" / "product-samples.csv").read_bytes()
            == (tmp_path / "fresh" / "product-samples.csv").read_bytes())
    assert reused_path.read_text() == harness.json_text(reused)
    assert fresh_path.read_text() == harness.json_text(fresh)
    assert _without_paths_and_timing(reused) == _without_paths_and_timing(fresh)


def test_potential_rerun_into_the_same_directory_leaves_no_stale_tail(tmp_path):
    runner = CliRunner()
    for n, out in (("40", "reused"), ("6", "reused"), ("6", "fresh")):
        res = runner.invoke(cli_main, ["diagnose-potential", "--n", n, "--p", "40", "--reps", "4",
                                       "--seed", "3", "--out", str(tmp_path / out)])
        assert res.exit_code == 0, res.output
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert (reused / "potential-path.csv").read_bytes() == (fresh / "potential-path.csv").read_bytes()
    reports = [json.loads((d / "potential-report.json").read_text()) | {"csv": None}
               for d in (reused, fresh)]
    assert reports[0] == reports[1]
    assert reports[0]["n"] == 6


def test_failed_replicates_recorded_not_filled(tmp_path, monkeypatch):
    seen = {"rows": 0}
    real = harness.banded_largest_eig

    def flaky(S, cfg=None):
        # every third replicate's row, counted across the stacks the sweep solves
        values = real(S, cfg)
        for j in range(len(values)):
            seen["rows"] += 1
            if seen["rows"] % 3 == 0:
                values[j] = math.nan
        return values

    monkeypatch.setattr(harness, "banded_largest_eig", flaky)
    config = ExperimentConfig(mode="product", n=4, p=4, q=4, beta=1.0, reps=9, seed=5, out=tmp_path)
    _, report = run_experiment(config)
    assert report["failures"] == 3
    text = (tmp_path / "product-samples.csv").read_text()
    assert text.count(",nan") == 3
    assert [line for line in text.splitlines() if line.endswith(",nan")] == ["2,nan", "5,nan", "8,nan"]
    # the report's moments are those of the finite rows the CSV reads back as
    reread = read_batch_csv(tmp_path / "product-samples.csv")
    assert reread.params["failures"] == 3
    assert reread.values.size == 6
    assert report["moments"] == moments(reread.values)


def test_single_sweep_records_nonfinite_matrices_as_failures(tmp_path, monkeypatch):
    calls = {"count": 0}
    real = harness.laguerre_matrix

    def poisoned(factor):
        # every third replicate's row, counted across the stacks the sweep forms
        X = real(factor)
        for row in X.bands[0]:
            calls["count"] += 1
            if calls["count"] % 3 == 0:
                row[1] = math.nan
        return X

    monkeypatch.setattr(harness, "laguerre_matrix", poisoned)
    config = ExperimentConfig(mode="single", n=6, p=8, beta=1.0, reps=9, seed=5, out=tmp_path)
    _, report = run_experiment(config)
    assert report["failures"] == 3
    assert (tmp_path / "single-samples.csv").read_text().count(",nan") == 3


def test_all_failed_replicates_raise_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "banded_largest_eig", lambda S, cfg=None: np.full(len(S.bands[0]), math.nan))
    config = ExperimentConfig(mode="product", n=4, p=4, q=4, beta=1.0, reps=3, seed=5, out=tmp_path)
    with pytest.raises(ConfigError, match="every replicate is missing"):
        run_experiment(config)
    assert (tmp_path / "product-samples.csv").read_text().count(",nan") == 3


def test_no_pool_for_fewer_replicates_than_workers(tmp_path, monkeypatch):
    runner = CliRunner()
    args = ["sample-product", "--n", "6", "--p", "7", "--q", "9", "--beta", "1",
            "--reps", "1", "--seed", "3"]
    assert runner.invoke(cli_main, args + ["--workers", "1", "--out", str(tmp_path / "w1")]).exit_code == 0

    def no_pool(*a, **k):
        raise AssertionError("a one-replicate sweep must not start a pool")

    monkeypatch.setattr(harness.multiprocessing, "get_context", no_pool)
    res = runner.invoke(cli_main, args + ["--workers", "2", "--out", str(tmp_path / "w2")])
    assert res.exit_code == 0, res.output
    csv = "product-samples.csv"
    assert (tmp_path / "w1" / csv).read_bytes() == (tmp_path / "w2" / csv).read_bytes()


def test_parallel_sweeps_reuse_one_pool(tmp_path, monkeypatch):
    args = dict(mode="product", n=6, p=7, q=9, beta=0.5, reps=16)
    csv = "product-samples.csv"
    run_experiment(ExperimentConfig(seed=4, workers=2, out=tmp_path / "first", **args))

    def no_pool(*a, **k):
        raise AssertionError("a second sweep at the same worker count must reuse the pool")

    monkeypatch.setattr(harness.multiprocessing, "get_context", no_pool)
    for w in (2, 1):
        run_experiment(ExperimentConfig(seed=5, workers=w, out=tmp_path / f"w{w}", **args))
    assert (tmp_path / "w2" / csv).read_bytes() == (tmp_path / "w1" / csv).read_bytes()


def test_worker_count_change_replaces_pool(tmp_path):
    config = _tw_config(tmp_path / "w1")
    expected = sweep(config)
    pools = []
    for w in (2, 3, 2):
        config = dataclasses.replace(config, workers=w)
        assert sweep(config).tobytes() == expected.tobytes()
        key, helpers = harness._pool
        assert key == (os.getpid(), w)
        assert len(helpers) == w - 1
        pools.append(helpers)
    assert pools[0] is not pools[1] is not pools[2]
    for old in pools[:2]:
        assert not any(proc.is_alive() for proc, _ in old)
    assert all(proc.is_alive() for proc, _ in pools[2])


# chunk functions fn(start, stop) for _pmap; np.arange is the chunk of replicate indices


def _pid(start, stop):
    return [os.getpid()] * (stop - start)


def test_caller_runs_first_chunk_and_one_helper_the_rest():
    rows = harness._pmap(_pid, 8, 2).tolist()
    assert rows[:4] == [os.getpid()] * 4
    assert rows[4] != os.getpid() and rows[4:] == [rows[4]] * 4
    assert harness._pmap(_pid, 8, 2).tolist() == rows


def _fails_at(bad, start, stop):
    if start <= bad < stop:
        raise ValueError(f"replicate {bad}")
    return np.arange(start, stop)


def _assert_failure_drops_helpers(bad):
    assert harness._pmap(np.arange, 8, 2).tolist() == list(range(8))
    _, helpers = harness._pool
    with pytest.raises(ValueError, match=f"replicate {bad}"):
        harness._pmap(partial(_fails_at, bad), 8, 2)
    assert harness._pool is None
    assert not any(proc.is_alive() for proc, _ in helpers)
    assert harness._pmap(np.arange, 8, 2).tolist() == list(range(8))


def test_failed_parallel_sweep_terminates_pool():
    _assert_failure_drops_helpers(1)  # in the caller's chunk


def test_failed_helper_chunk_terminates_pool():
    _assert_failure_drops_helpers(6)  # in the helper's chunk


_DIES_AT_FIVE = """
import os
import numpy as np
from lagprod import harness

def dies_at_five(start, stop):
    if start <= 5 < stop:
        os._exit(3)
    return np.arange(start, stop)

assert harness._pmap(np.arange, 8, 2).tolist() == list(range(8))
_, helpers = harness._pool
try:
    harness._pmap(dies_at_five, 8, 2)
except RuntimeError as exc:
    print(exc)
assert harness._pool is None
assert not any(proc.is_alive() for proc, _ in helpers)
assert harness._pmap(np.arange, 8, 2).tolist() == list(range(8))
"""


def test_dead_helper_fails_the_sweep_instead_of_hanging():
    # a subprocess, so that a sweep waiting forever fails this test instead of hanging the suite
    proc = subprocess.run([sys.executable, "-c", _DIES_AT_FIVE], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "exited mid-sweep with code 3" in proc.stdout


_PRINTS_HELPERS = """
import time
import numpy as np
from lagprod import harness

assert harness._pmap(np.arange, 8, 3).tolist() == list(range(8))
print(*(proc.pid for proc, _ in harness._pool[1]), flush=True)
time.sleep(60)
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_helpers_exit_when_their_caller_is_killed():
    caller = subprocess.Popen([sys.executable, "-c", _PRINTS_HELPERS], env=ENV, stdout=subprocess.PIPE, text=True)
    helpers = [int(pid) for pid in caller.stdout.readline().split()]
    caller.kill()
    caller.wait(timeout=30)
    caller.stdout.close()
    assert len(helpers) == 2
    deadline = time.monotonic() + 30
    while any(map(_running, helpers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    stuck = [pid for pid in helpers if _running(pid)]
    for pid in stuck:
        os.kill(pid, signal.SIGKILL)
    assert not stuck


def test_parallel_cli_sweep_leaks_nothing_at_exit(tmp_path):
    args = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "lagprod.cli", "sample-tw",
            "--reps", "16", "--workers", "2", "--mesh", "0.1", "--cutoff", "8", "--out", str(tmp_path)]
    proc = subprocess.run(args, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_cli_import_loads_no_scipy_stats_or_special():
    # both cost CLI start-up time; the code that needs scipy.special imports it on first use
    code = "import sys, lagprod.cli; print(*(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_degenerate_draws_do_not_abort_sweep(tmp_path):
    # at beta = 0.01 a few percent of the chi draws underflow to exactly 0,
    # which makes B_q singular in some replicates
    config = ExperimentConfig(mode="product", n=8, p=8, q=8, beta=0.01, reps=200, seed=3, out=tmp_path)
    _, report = run_experiment(config)
    assert report["failures"] == 0
    values = read_batch_csv(tmp_path / "product-samples.csv").values
    assert values.size == 200
    assert np.all(np.isfinite(values))


def test_run_report_json_checksums(tmp_path):
    report_path, report = run_experiment(_tw_config(tmp_path))
    assert report_path == tmp_path / "tw-reference-report.json"
    payload = json.loads(report_path.read_text())
    assert payload.keys() == {"tape", "versions", "config", "constants", "failures", "moments",
                              "artifacts", "timing"}
    assert payload["versions"] == {"python": platform.python_version(), "numpy": np.__version__,
                                   "scipy": scipy.__version__, "numba": harness.VERSIONS["numba"]}
    assert payload["moments"].keys() == {"mean", "variance", "skewness", "se_mean", "se_variance"}
    assert payload["artifacts"].keys() == {"samples_csv"}
    assert payload["artifacts"]["samples_csv"].keys() == {"path", "sha256"}
    assert payload["timing"].keys() == {"wall_seconds", "per_replicate_seconds"}
    art = payload["artifacts"]["samples_csv"]
    import hashlib

    assert art["sha256"] == hashlib.sha256((tmp_path / "tw-reference-samples.csv").read_bytes()).hexdigest()
    assert payload["config"]["mode"] == "tw-reference"
    assert payload["constants"] == {"beta": 2.0, "h": 0.1, "L": 8.0}  # the mesh the rows came from
    assert payload["failures"] == 0
    assert payload["tape"] == 2
    assert "# tape=2" in (tmp_path / "tw-reference-samples.csv").read_text().splitlines()
    assert payload == report  # the report returned is the one written


def _span_targets() -> dict:
    """``SPAN_TARGETS`` of the benchmark's runner, read from its source without importing it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "benchmark" / "runner.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPAN_TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/runner.py defines no SPAN_TARGETS")


# the replicates one call to a span target covers: a chunk's range, a stack's
# rows (one per matrix or stream); every other target covers one per call
_COVERED = {
    "rep": lambda config, start, stop: stop - start,
    "airy.cell_noise": lambda disc, streams: len(streams),
    "airy.airy_tridiagonal": lambda beta, h, N, noise: len(noise),
    "eig.tridiag_extreme_eig": lambda T, cfg, start: len(T.bands[0]),
    "eig.banded_largest_eig": lambda S, cfg=None: len(S.bands[0]),
    "ensemble.laguerre_matrix": lambda factor: len(factor.diag),
    "product.product_similarity": lambda B_q, X_p: len(B_q.diag),
}


def test_benchmark_span_targets_resolve_and_see_every_replicate(tmp_path, monkeypatch):
    # a traced benchmark run wraps each target where the sweep looks it up and
    # fails on a missing one; count the replicates one sweep per mode covers there
    counts: dict = {}
    for name, targets in _span_targets().items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            real = getattr(module, attr)

            def counted(*args, _name=name, _real=real, **kwargs):
                covered = _COVERED.get(_name, lambda *a, **k: 1)(*args, **kwargs)
                counts[_name] = counts.get(_name, 0) + covered
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
    run_experiment(_tw_config(tmp_path, reps=4))
    tw_spans = ("rep", "airy.cell_noise", "airy.airy_tridiagonal", "eig.tridiag_extreme_eig")
    assert [counts.get(k) for k in tw_spans] == [4] * len(tw_spans)
    counts.clear()
    run_experiment(ExperimentConfig(mode="product", n=6, p=7, q=9, reps=3, seed=1, out=tmp_path))
    assert counts["rep"] == 3
    assert counts["ensemble.sample_bidiagonal"] == 2 * 3
    assert counts["eig.banded_largest_eig"] == 3
    # single mode takes the product's certified solve; dstebz is Airy's alone
    counts.clear()
    run_experiment(ExperimentConfig(mode="single", n=6, p=8, reps=5, seed=1, out=tmp_path))
    assert counts["ensemble.laguerre_matrix"] == counts["eig.banded_largest_eig"] == 5
    assert "eig.tridiag_extreme_eig" not in counts


def test_single_mode_statistic(tmp_path):
    config = ExperimentConfig(mode="single", n=8, p=10, beta=2.0, reps=4, seed=21, out=tmp_path)
    _, report = run_experiment(config)
    from lagprod.scaling import single_scaling

    s = single_scaling(8, 10)
    stream = split_stream(21, 2)
    B = sample_bidiagonal(EnsembleParams(n=8, kappa=10, beta=2.0), stream)
    lam = banded_largest_eig(laguerre_matrix(B))
    assert read_batch_csv(report["artifacts"]["samples_csv"]["path"]).values[2] == (lam - s.mu) / s.sigma


def test_product_golden_values():
    # recorded before single mode moved onto the edge solve; the product path is unchanged
    rows = sweep(ExperimentConfig(mode="product", n=64, p=96, q=160, beta=0.5, reps=3, seed=1206))
    assert rows.tolist() == [-1.499146695847465, -2.479613181543938, -2.2630507302764125]


def test_single_golden_values_within_solver_bound():
    # dstebz values recorded before single mode moved onto the edge solve: the
    # two certificates (rel_tol * D and rel_tol * D / 2) allow 1.5 rel_tol * D apart
    n, p, beta, seed = 400, 400, 2.0, 1206
    config = ExperimentConfig(mode="single", n=n, p=p, beta=beta, reps=3, seed=seed)
    golden = [-2.646770165746173, -0.977371823992353, -2.786754300950165]
    rel_tol, sigma = config.eig_config().rel_tol, config.constants.sigma
    for r, (value, old) in enumerate(zip(sweep(config), golden)):
        X = laguerre_matrix(sample_bidiagonal(EnsembleParams(n=n, kappa=p, beta=beta), split_stream(seed, r)))
        lo, hi = gershgorin_bounds(*X.bands)
        bound = 1.5 * rel_tol * (hi - lo) + 4 * n * np.finfo(float).eps * X.one_norm()
        assert abs(value - old) <= bound / sigma


def test_mean_potential_path_rejects_other_configs_before_sweeping(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a config without a potential path must be rejected before its sweep")

    monkeypatch.setattr(harness, "_pmap", no_sweep)
    with pytest.raises(ConfigError, match="statistic of single draws, got mode 'product'"):
        mean_potential_path(ExperimentConfig(mode="product", n=6, p=7, q=9, reps=2))
    with pytest.raises(ConfigError, match="needs n >= 2 for a grid point, got n=1"):
        mean_potential_path(ExperimentConfig(mode="single", n=1, p=1, reps=2))


def test_single_sweep_and_potential_path_draw_the_same_factors(monkeypatch):
    drawn = []

    def recording(params, stream):
        drawn.append(sample_bidiagonal(params, stream))
        return drawn[-1]

    monkeypatch.setattr(harness, "sample_bidiagonal", recording)
    config = ExperimentConfig(mode="single", n=6, p=8, beta=0.7, reps=5, seed=13)
    sweep(config)
    solved = drawn.copy()
    drawn.clear()
    mean_potential_path(config)
    assert len(solved) == len(drawn) == 5
    for a, b in zip(solved, drawn):
        assert (a.n, a.kappa, a.beta) == (b.n, b.kappa, b.beta) == (6, 8, 0.7)
        assert np.array_equal(a.diag, b.diag) and np.array_equal(a.subdiag, b.subdiag)


def test_benchmark_dense_oracle_gate_passes_on_a_product_sweep(tmp_path, monkeypatch):
    # the benchmark's correctness gate calls src names directly (the factor sampler, the
    # similarity, the band type's dense form and 1-norm, the scaling and the stream
    # split); running it here makes a change that breaks one fail this suite too
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    bench = importlib.import_module("runner").Runner(two_core_probe=None)
    reply = bench.sweep({"mode": "product", "flags": {"n": 64, "p": 96, "q": 128, "beta": 0.5},
                         "reps": 4, "seed": 3, "workers": 1, "out": str(tmp_path), "trace": 0})
    assert not reply["aborted"], reply
    gate = bench.gates({"gate": "dense-oracle", "replicates": 4})["dense-oracle"]
    assert gate["ok"], gate
    assert len(gate["checks"]) == 4


def test_mean_potential_path_shapes_and_reference():
    result = mean_potential_path(ExperimentConfig(mode="single", n=12, p=15, beta=1.0, reps=5, seed=3))
    from lagprod.scaling import single_scaling

    m = single_scaling(12, 15).m
    assert np.allclose(result["x"], np.arange(1, 12) / m)
    assert np.allclose(result["reference"], 0.5 * result["x"] ** 2)
    assert result["mean"].shape == (11,)
    assert np.all(result["stderr"] >= 0)


def test_scaling_report_discrepancy_note():
    rep = scaling_report(coupled_scaling(4, 9, 16, 2.0))
    assert "cube" in rep["closed_form_cn_note"]
    assert "discrepancy" in rep["closed_form_Cn_note"]
    rep_eq = scaling_report(coupled_scaling(4, 9, 9, 2.0))
    assert rep_eq["closed_form_Cn_note"] == "matches operative C_n"
    assert rep_eq["beta0"] == pytest.approx(4.0, rel=1e-12)


def test_cli_constants_and_exit_codes(tmp_path):
    runner = CliRunner()
    ok = runner.invoke(cli_main, ["constants", "--n", "8", "--p", "8", "--q", "8", "--beta", "1"])
    assert ok.exit_code == 0
    assert json.loads(ok.output)["C_n"] == pytest.approx(2.0, abs=1e-12)

    bad = runner.invoke(cli_main, ["constants", "--n", "8", "--p", "7", "--q", "9"])
    assert bad.exit_code == 2

    # a non-finite beta has no constants (and inf is not valid JSON)
    for beta in ("inf", "-inf", "nan"):
        bad = runner.invoke(cli_main, ["constants", "--n", "8", "--p", "8", "--q", "8", "--beta", beta])
        assert bad.exit_code == 2, (beta, bad.output)
        assert bad.output.startswith("config error: beta must be positive and finite")

    out = tmp_path / "run"
    sampled = runner.invoke(
        cli_main,
        ["sample-tw", "--beta", "2", "--reps", "12", "--seed", "4", "--mesh", "0.1",
         "--cutoff", "8", "--out", str(out)],
    )
    assert sampled.exit_code == 0
    csv = out / "tw-reference-samples.csv"

    same = runner.invoke(cli_main, ["compare", str(csv), str(csv), "--assert", "0.5"])
    assert same.exit_code == 0

    # D > nan is never true, so a non-finite bound is a gate that cannot fail
    for bound in ("nan", "inf"):
        bad = runner.invoke(cli_main, ["compare", str(csv), str(csv), "--assert", bound])
        assert bad.exit_code == 2, (bound, bad.output)
        assert bad.output.startswith("config error: --assert must be finite")

    prod_out = tmp_path / "prod"
    runner.invoke(
        cli_main,
        ["sample-product", "--n", "4", "--p", "4", "--q", "4", "--beta", "1",
         "--reps", "12", "--seed", "1", "--out", str(prod_out)],
    )
    breach = runner.invoke(
        cli_main,
        ["compare", str(prod_out / "product-samples.csv"), str(csv), "--assert", "1e-9"],
    )
    assert breach.exit_code == 3


def test_cli_diagnose_potential(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        ["diagnose-potential", "--n", "10", "--p", "12", "--beta", "2",
         "--reps", "6", "--seed", "2", "--out", str(tmp_path)],
    )
    assert res.exit_code == 0
    lines = (tmp_path / "potential-path.csv").read_text().splitlines()
    assert lines[0] == "x,mean,stderr,reference"
    assert len(lines) == 10  # header + n-1 grid rows
    report = json.loads((tmp_path / "potential-report.json").read_text())
    assert report["tape"] == 2
    assert report["versions"] == harness.VERSIONS
    assert report["csv_sha256"] == hashlib.sha256((tmp_path / "potential-path.csv").read_bytes()).hexdigest()

    # the same checks as the sampling commands: exit 2, nothing written
    for args in (["--n", "10", "--p", "9"], ["--n", "10", "--p", "12", "--beta", "inf"],
                 ["--n", "10", "--p", "12", "--workers", "0"], ["--n", "10", "--p", "12", "--workers", "-3"],
                 ["--n", "1", "--p", "1"]):
        out = tmp_path / "bad"
        bad = runner.invoke(cli_main, ["diagnose-potential", *args, "--reps", "3", "--out", str(out)])
        assert bad.exit_code == 2, (args, bad.output)
        assert "config error:" in bad.output
        assert not out.exists()
