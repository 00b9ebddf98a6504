import ast
import dataclasses
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
    "potential": dict(n=6, p=8, beta=2.0),
}


@pytest.mark.parametrize("mode", list(_MODE_KWARGS))
def test_worker_count_independence(tmp_path, mode):
    blobs = []
    for w in (1, 2, 8):
        config = ExperimentConfig(mode=mode, reps=16, seed=11, workers=w, out=tmp_path / f"w{w}",
                                  **_MODE_KWARGS[mode])
        if mode == "potential":
            path = tmp_path / f"w{w}-potential-path.csv"
            write_potential_csv(path, mean_potential_path(config))
        else:
            path = run_experiment(config)[1]["artifacts"]["samples_csv"]["path"]
        blobs.append(Path(path).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_sweep_looks_up_replicates_at_call_time(tmp_path, monkeypatch):
    # the benchmark's traced runs count replicates by patching these module
    # attributes; a sweep bound to them at import time would never call the patch
    calls = dict.fromkeys(("_product_replicate", "_tw_replicate", "banded_largest_eig"), 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
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
    assert written.keys() == {"D", "p_value", "n_a", "n_b", "batch_a", "batch_b"}
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
    ],
)
def test_config_validation_errors(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


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


def test_failed_replicates_recorded_not_filled(tmp_path, monkeypatch):
    calls = {"count": 0}
    real = harness.banded_largest_eig

    def flaky(S, cfg=None):
        calls["count"] += 1
        if calls["count"] % 3 == 0:
            return math.nan
        return real(S, cfg)

    monkeypatch.setattr(harness, "banded_largest_eig", flaky)
    config = ExperimentConfig(mode="product", n=4, p=4, q=4, beta=1.0, reps=9, seed=5, out=tmp_path)
    _, report = run_experiment(config)
    assert report["failures"] == 3
    text = (tmp_path / "product-samples.csv").read_text()
    assert text.count(",nan") == 3
    # the report's moments are those of the finite rows the CSV reads back as
    reread = read_batch_csv(tmp_path / "product-samples.csv")
    assert reread.params["failures"] == 3
    assert reread.values.size == 6
    assert report["moments"] == moments(reread.values)


def test_single_sweep_records_nonfinite_matrices_as_failures(tmp_path, monkeypatch):
    calls = {"count": 0}
    real = harness.laguerre_matrix

    def poisoned(factor):
        X = real(factor)
        calls["count"] += 1
        if calls["count"] % 3 == 0:
            X.bands[0][1] = math.nan
        return X

    monkeypatch.setattr(harness, "laguerre_matrix", poisoned)
    config = ExperimentConfig(mode="single", n=6, p=8, beta=1.0, reps=9, seed=5, out=tmp_path)
    _, report = run_experiment(config)
    assert report["failures"] == 3
    assert (tmp_path / "single-samples.csv").read_text().count(",nan") == 3


def test_all_failed_replicates_raise_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "banded_largest_eig", lambda S, cfg=None: math.nan)
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


def _pid(r):
    return os.getpid()


def test_caller_runs_first_chunk_and_one_helper_the_rest():
    rows = harness._pmap(_pid, 8, 2)
    assert rows[:4] == [os.getpid()] * 4
    assert rows[4] != os.getpid() and rows[4:] == [rows[4]] * 4
    assert harness._pmap(_pid, 8, 2) == rows


def _fails_at(bad, r):
    if r == bad:
        raise ValueError(f"replicate {r}")
    return r


def _assert_failure_drops_helpers(bad):
    assert harness._pmap(abs, 8, 2) == list(range(8))
    _, helpers = harness._pool
    with pytest.raises(ValueError, match=f"replicate {bad}"):
        harness._pmap(partial(_fails_at, bad), 8, 2)
    assert harness._pool is None
    assert not any(proc.is_alive() for proc, _ in helpers)
    assert harness._pmap(abs, 8, 2) == list(range(8))


def test_failed_parallel_sweep_terminates_pool():
    _assert_failure_drops_helpers(1)  # in the caller's chunk


def test_failed_helper_chunk_terminates_pool():
    _assert_failure_drops_helpers(6)  # in the helper's chunk


_DIES_AT_FIVE = """
import os
from lagprod import harness

def dies_at_five(r):
    if r == 5:
        os._exit(3)
    return r

assert harness._pmap(abs, 8, 2) == list(range(8))
_, helpers = harness._pool
try:
    harness._pmap(dies_at_five, 8, 2)
except RuntimeError as exc:
    print(exc)
assert harness._pool is None
assert not any(proc.is_alive() for proc, _ in helpers)
assert harness._pmap(abs, 8, 2) == list(range(8))
"""


def test_dead_helper_fails_the_sweep_instead_of_hanging():
    # a subprocess, so that a sweep waiting forever fails this test instead of hanging the suite
    proc = subprocess.run([sys.executable, "-c", _DIES_AT_FIVE], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "exited mid-sweep with code 3" in proc.stdout


_PRINTS_HELPERS = """
import time
from lagprod import harness

assert harness._pmap(abs, 8, 3) == list(range(8))
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


def test_benchmark_span_targets_resolve_and_see_every_replicate(tmp_path, monkeypatch):
    # a traced benchmark run wraps each target where the sweep looks it up and
    # fails on a missing one; count the calls one sweep per mode makes there
    counts: dict = {}
    for name, targets in _span_targets().items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            real = getattr(module, attr)

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
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


def test_run_experiment_rejects_potential_mode_before_sweeping(tmp_path, monkeypatch):
    def no_sweep(config):
        raise AssertionError("a potential config must be rejected before its sweep")

    monkeypatch.setattr(harness, "sweep", no_sweep)
    config = ExperimentConfig(mode="potential", n=6, p=8, reps=2, out=tmp_path)
    with pytest.raises(ConfigError, match="mean_potential_path.*diagnose-potential"):
        run_experiment(config)
    assert not list(tmp_path.iterdir())


def test_mean_potential_path_shapes_and_reference():
    result = mean_potential_path(ExperimentConfig(mode="potential", n=12, p=15, beta=1.0, reps=5, seed=3))
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
    assert json.loads((tmp_path / "potential-report.json").read_text())["tape"] == 2

    # the same checks as the sampling commands: exit 2, nothing written
    for args in (["--n", "10", "--p", "9"], ["--n", "10", "--p", "12", "--beta", "inf"],
                 ["--n", "10", "--p", "12", "--workers", "0"], ["--n", "10", "--p", "12", "--workers", "-3"],
                 ["--n", "1", "--p", "1"]):
        out = tmp_path / "bad"
        bad = runner.invoke(cli_main, ["diagnose-potential", *args, "--reps", "3", "--out", str(out)])
        assert bad.exit_code == 2, (args, bad.output)
        assert "config error:" in bad.output
        assert not out.exists()
