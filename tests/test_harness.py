import ast
import dataclasses
import hashlib
import importlib
import importlib.util
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
import click
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
from oracles import stack

# for subprocesses that import the package from this checkout
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))


def _tw_config(out, workers=1, reps=16):
    return ExperimentConfig(
        mode="tw-reference", beta=2.0, reps=reps, seed=11, workers=workers,
        out=out, mesh=0.1, cutoff=8.0,
    )


def _shares_of(monkeypatch, doubles):
    """Give each process of a sweep a share of at least ``doubles`` doubles (1: any share), so
    that a short sweep is spread over helpers, and drop the pool, so that the next parallel
    sweep forks one."""
    monkeypatch.setattr(harness, "PROCESS_DOUBLES", doubles)
    harness._drop_pool()


def _processes_used():
    """The processes of the last parallel sweep since the pool was dropped: 1 if there was none."""
    return 1 if harness._pool is None else 1 + len(harness._pool[1])


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
    sc = coupled_scaling(n, n, n, 2.0)
    lam = banded_largest_eig(stack([S]), EigConfig(), sc.m_n)[0]
    expected = product_statistic(lam, sc)
    assert read_batch_csv(report["artifacts"]["samples_csv"]["path"])["values"][0] == expected


_MODE_KWARGS = {
    "product": dict(n=6, p=7, q=9, beta=0.5),
    "single": dict(n=6, p=8, beta=2.0),
    "tw-reference": dict(beta=2.0, mesh=0.1, cutoff=8.0),
}
# the doubles one replicate of each stacks: 2n for a chi factor, N * mc = 80 * 20 for the Airy tape
_MODE_WIDTH = {"product": 12, "single": 12, "tw-reference": 80 * 20}


# "potential" is the potential path of the "single" case's draws
@pytest.mark.parametrize("case", [*_MODE_KWARGS, "potential"])
def test_worker_count_independence(tmp_path, monkeypatch, case):
    mode = "single" if case == "potential" else case
    blobs = []
    _shares_of(monkeypatch, 1)  # so that the 16 replicates fill 8 processes
    try:
        for w in (1, 2, 8):
            config = ExperimentConfig(mode=mode, reps=16, seed=11, workers=w, out=tmp_path / f"w{w}",
                                      **_MODE_KWARGS[mode])
            if case == "potential":
                path = tmp_path / f"w{w}-potential-path.csv"
                write_potential_csv(path, mean_potential_path(config))
            else:
                path = run_experiment(config)[1]["artifacts"]["samples_csv"]["path"]
            blobs.append(Path(path).read_bytes())
        assert _processes_used() == 8
    finally:
        harness._drop_pool()
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
    monkeypatch.setattr(harness, "PROCESS_DOUBLES", 1)  # so that 3 workers take 3 chunks
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


# sha256 of each command's CSV under tape 2, as numpy's own SeedSequence and
# PCG64 seed its streams (recorded with numpy 2.4.6 and scipy 1.17.1 on
# x86-64).  sample-tw's 30 replicates at the default mesh span two blocks of
# at most 27 at one worker.  A change that moves these values, even within a
# solver certificate, must re-record the hashes and say so in CHANGES.md.
_CSV_SHA256 = {
    "sample-product": (["--n", "64", "--p", "96", "--q", "160", "--beta", "0.5", "--reps", "40", "--seed", "1301"],
                       "cb905e9a96cdef52d68cee4fd676c2a408ae685f936849b71e49dac489ab930c"),
    "sample-single": (["--n", "100", "--p", "130", "--beta", "2", "--reps", "40", "--seed", "5918"],
                      "b45de3d6207d1a840f1f89591c8b9c04fd369dd7392ebc4d21d62bf15b18ef58"),
    "sample-tw": (["--beta", "2", "--reps", "30", "--seed", "2002"],
                  "bc7199830679d3bad0b3060339d8f66a9d0c83ec09af04494a0f48ebcada18b5"),
    "diagnose-potential": (["--n", "100", "--p", "130", "--beta", "2", "--reps", "40", "--seed", "2013"],
                           "c26dfac0ad0b6202cc506c27c8371f6f30e91518177c1c9c04951404834058ef"),
}


@pytest.mark.parametrize("command", list(_CSV_SHA256))
@pytest.mark.parametrize("workers", [1, 2])
def test_csv_bytes_are_pinned(tmp_path, monkeypatch, command, workers):
    flags, sha256 = _CSV_SHA256[command]
    _shares_of(monkeypatch, 1)  # so that the helper takes half of the 30 or 40 replicates
    try:
        res = CliRunner().invoke(cli_main, [command, *flags, "--workers", str(workers), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert _processes_used() == workers
    finally:
        harness._drop_pool()
    (csv,) = tmp_path.glob("*.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == sha256


def test_sweep_looks_up_replicates_at_call_time(tmp_path, monkeypatch):
    # the benchmark's traced runs count replicates by patching these module
    # attributes; a sweep bound to them at import time would never call the patch.
    # Each call covers a block (config, start, stop) or a stack of matrices.
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
    assert batch["label"] == "product"
    for key, value in params.items():
        assert batch["params"][key] == value
        assert type(batch["params"][key]) is type(value)
    assert batch["params"]["failures"] == 1
    assert batch["values"].tolist() == [1.0, math.pi, -1e-300]  # replicate order, NaN row dropped


def test_read_batch_csv_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# label=x\nreplicate,value\n0,not-a-float\n")
    with pytest.raises(ConfigError) as excinfo:
        read_batch_csv(path)
    assert "bad.csv:3" in str(excinfo.value)

    path.write_text("# label=x\nreplicate,value\n")
    with pytest.raises(ConfigError, match="not a sample CSV"):
        read_batch_csv(path)

    path.write_text("# label=x\nreplicate,value\n0,nan\n1,nan\n")
    with pytest.raises(ConfigError, match="every replicate is missing"):
        read_batch_csv(path)
    out = tmp_path / "cmp"
    res = CliRunner().invoke(cli_main, ["compare", str(path), str(path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error:") and "every replicate is missing" in res.output
    assert not out.exists()


def test_out_naming_a_file_is_a_config_error(tmp_path):
    # every command that takes --out refuses a file there, or a path under one, from
    # a flag or a config file, before it samples or reads anything; nothing is written
    batch = tmp_path / "batch.csv"
    write_batch_csv(batch, "x", {}, np.array([0.0, 1.0]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {batch}\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    commands = [["sample-product", "--n", "4", "--p", "4", "--q", "4"],
                ["sample-single", "--n", "4", "--p", "4"],
                ["sample-tw", "--mesh", "0.1", "--cutoff", "8"],
                ["diagnose-potential", "--n", "4", "--p", "4"],
                ["compare", str(batch), str(batch)]]
    runs = [[*args, "--out", str(out)] for args in commands for out in (batch, batch / "sub")]
    for args in [*runs, ["sample-single", "--n", "4", "--p", "4", "--config", str(cfg)]]:
        res = CliRunner().invoke(cli_main, args)
        assert res.exit_code == 2, (args, res.output)
        assert res.output.startswith("config error:"), (args, res.output)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_unreadable_input_file_is_a_config_error(tmp_path):
    # bytes that are not UTF-8, or a directory, named as a sample CSV or as a config
    # file: each exits 2 with a config error naming the path, and writes nothing
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(bytes(range(256)))
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out"
    before = sorted(tmp_path.rglob("*"))
    for path in (garbage, folder):
        for args in (["compare", str(path), str(path)],
                     ["sample-tw", "--mesh", "0.1", "--cutoff", "8", "--reps", "2", "--config", str(path)]):
            res = CliRunner().invoke(cli_main, [*args, "--out", str(out)])
            assert res.exit_code == 2, (args, res.output)
            assert res.output.startswith(f"config error: {path}: "), (args, res.output)
    assert sorted(tmp_path.rglob("*")) == before


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
    assert written["versions"] == harness.versions()
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
        dict(mode="tw-reference", mesh=0.001, cutoff=1e308),  # L/h overflows to a point count of inf
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


@pytest.mark.parametrize("command,settings,own", [
    ("sample-product", {"n", "p", "q", *harness.SHARED}, {"--config"}),
    ("sample-single", {"n", "p", *harness.SHARED}, {"--config"}),
    ("sample-tw", {"mesh", "cutoff", *harness.SHARED}, {"--config"}),
    ("constants", {"n", "p", "q", "beta"}, set()),
    ("diagnose-potential", {"n", "p", "beta", "reps", "seed", "out", "workers"}, set()),
    ("compare", {"out"}, {"--assert"}),
], ids=["sample-product", "sample-single", "sample-tw", "constants", "diagnose-potential", "compare"])
def test_every_commands_flags_are_settings_table_entries(command, settings, own):
    options = {param.opts[0]: param for param in cli_main.commands[command].params
               if isinstance(param, click.Option)}
    assert options.keys() == {f"--{name}" for name in settings} | own
    for name in settings:
        kind, help_text = harness.SETTINGS[name]
        expected = click.Path(path_type=Path) if kind is Path else click.types.convert_type(kind)
        assert options[f"--{name}"].type.to_info_dict() == expected.to_info_dict(), name
        assert options[f"--{name}"].help == help_text, name


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
    reports = [json.loads((d / "potential-report.json").read_text()) | {"csv": None, "timing": None}
               for d in (reused, fresh)]
    assert reports[0] == reports[1]
    assert reports[0]["n"] == 6


def test_failed_replicates_recorded_not_filled(tmp_path, monkeypatch):
    seen = {"rows": 0}
    real = harness.banded_largest_eig

    def flaky(S, cfg=None, scale=None):
        # every third replicate's row, counted across the stacks the sweep solves
        values = real(S, cfg, scale)
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
    assert reread["params"]["failures"] == 3
    assert reread["values"].size == 6
    assert report["moments"] == moments(reread["values"])


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
    monkeypatch.setattr(harness, "banded_largest_eig",
                        lambda S, cfg=None, scale=None: np.full(len(S.bands[0]), math.nan))
    config = ExperimentConfig(mode="product", n=4, p=4, q=4, beta=1.0, reps=3, seed=5, out=tmp_path)
    with pytest.raises(ConfigError, match="every replicate is missing"):
        run_experiment(config)
    assert (tmp_path / "product-samples.csv").read_text().count(",nan") == 3


def test_no_pool_for_fewer_replicates_than_workers(tmp_path, monkeypatch):
    # a sweep of less than two shares runs in-process at any worker count: 1 or 16
    # replicates (192 doubles) at the default share, and 3 or 5 in shares of 3
    runner = CliRunner()
    args = ["sample-product", "--n", "6", "--p", "7", "--q", "9", "--beta", "1", "--seed", "3"]
    csv = "product-samples.csv"

    def no_pool(*a, **k):
        raise AssertionError("a sweep of less than two shares must not start a pool")

    harness._drop_pool()  # so that a parallel sweep would have to fork
    for rows, reps in [(None, 1), (None, 16), (3, 3), (3, 5)]:
        if rows is not None:
            _shares_of(monkeypatch, rows * _MODE_WIDTH["product"])
        out = tmp_path / f"{rows}-{reps}"
        flags = args + ["--reps", str(reps), "--out"]
        assert runner.invoke(cli_main, flags + [str(out / "w1"), "--workers", "1"]).exit_code == 0
        with monkeypatch.context() as m:
            m.setattr(harness.multiprocessing, "get_context", no_pool)
            for w in (2, 8):
                res = runner.invoke(cli_main, flags + [str(out / f"w{w}"), "--workers", str(w)])
                assert res.exit_code == 0, res.output
                assert (out / "w1" / csv).read_bytes() == (out / f"w{w}" / csv).read_bytes()


def test_two_shares_fork_one_helper(tmp_path, monkeypatch):
    args = ["sample-product", "--n", "6", "--p", "7", "--q", "9", "--beta", "1", "--reps", "6", "--seed", "3"]
    csv = "product-samples.csv"
    _shares_of(monkeypatch, 3 * _MODE_WIDTH["product"])
    try:
        for w in (1, 2):
            res = CliRunner().invoke(cli_main, args + ["--workers", str(w), "--out", str(tmp_path / f"w{w}")])
            assert res.exit_code == 0, res.output
            assert _processes_used() == w
    finally:
        harness._drop_pool()
    assert (tmp_path / "w1" / csv).read_bytes() == (tmp_path / "w2" / csv).read_bytes()


def test_report_records_the_processes_the_sweep_used(tmp_path, monkeypatch):
    # shares of 3 replicates: the count is the workers asked for, capped at one share per process
    for reps, workers, processes in [(6, 1, 1), (5, 2, 1), (6, 2, 2), (8, 8, 2), (9, 8, 3), (30, 3, 3)]:
        _shares_of(monkeypatch, 3 * _MODE_WIDTH["product"])
        config = ExperimentConfig(mode="product", n=6, p=7, q=9, reps=reps, seed=2, workers=workers,
                                  out=tmp_path)
        try:
            _, report = run_experiment(config)
            assert report["timing"]["processes"] == _processes_used() == processes
        finally:
            harness._drop_pool()
        assert json.loads((tmp_path / "product-report.json").read_text())["timing"]["processes"] == processes


def _benchmark_workloads() -> dict:
    """``WORKLOADS`` of the benchmark's run.py, read from its source without importing it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "benchmark" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WORKLOADS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/run.py defines no WORKLOADS")


def test_benchmark_workloads_process_counts_at_two_workers(tmp_path):
    # the product workloads' sweeps stack 4096 doubles, less than two shares, so they run
    # in-process at --workers 2; tw2-airy's 64 replicates of 2400 doubles keep one helper
    counts = {name: harness._blocks(resolve_config(spec["mode"], dict(spec["flags"], reps=spec["reps"],
                                                                       workers=2, out=tmp_path)))[1]
              for name, spec in _benchmark_workloads().items()}
    assert counts == {"product-iid-n256": 1, "product-pq-n1024": 1, "tw2-airy": 2}


def test_sweeps_of_under_two_blocks_still_split(tmp_path):
    # 48 replicates at n = 1024 (32 to a block) and 192 at n = 256 (128 to a block): at
    # --workers 2 a helper saves far more than its round trip costs, so the sweep splits
    for n, p, q, reps in [(1024, 2048, 4096, 48), (256, 256, 256, 192)]:
        config = resolve_config("product", dict(n=n, p=p, q=q, beta=0.5, reps=reps, workers=2, out=tmp_path))
        assert harness._blocks(config) == (harness.STACK_DOUBLES // (2 * n), 2)


def test_parallel_sweeps_reuse_one_pool(tmp_path, monkeypatch):
    args = dict(mode="product", n=6, p=7, q=9, beta=0.5, reps=16)
    csv = "product-samples.csv"
    _shares_of(monkeypatch, 1)  # so that each sweep at 2 workers forks or reuses helpers
    try:
        run_experiment(ExperimentConfig(seed=4, workers=2, out=tmp_path / "first", **args))
        assert _processes_used() == 2

        def no_pool(*a, **k):
            raise AssertionError("a second sweep at the same worker count must reuse the pool")

        monkeypatch.setattr(harness.multiprocessing, "get_context", no_pool)
        for w in (2, 1):
            run_experiment(ExperimentConfig(seed=5, workers=w, out=tmp_path / f"w{w}", **args))
    finally:
        harness._drop_pool()
    assert (tmp_path / "w2" / csv).read_bytes() == (tmp_path / "w1" / csv).read_bytes()


def test_worker_count_change_replaces_pool(tmp_path):
    config = _tw_config(tmp_path / "w1")  # 16 replicates of 1600 doubles, enough for 3 processes
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
    # each costs CLI start-up time: the code that needs scipy.special imports it on
    # first use, lagprod.eig loads scipy's LAPACK extension without scipy.linalg
    # (whose array-API layer imports numpy.testing), and the report versions read
    # package metadata only for numba, when it is installed
    names = ("scipy.stats", "scipy.special", "scipy.linalg", "numpy.testing", "importlib.metadata")
    code = f"import sys, lagprod.cli; print(*(m for m in {names!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_product_run_leaves_package_metadata_unloaded(tmp_path):
    # its report reads scipy's version from scipy/version.py; importlib.metadata
    # adds about 1 MB to a process's peak RSS and is loaded only to find numba's
    if importlib.util.find_spec("numba"):
        pytest.skip("numba's version is read from package metadata")
    code = ("import sys; from lagprod.cli import main\n"
            "try:\n    main(['sample-product', '--n', '6', '--p', '7', '--q', '9', '--reps', '3',"
            f" '--out', {str(tmp_path)!r}])\n"
            "except SystemExit:\n    pass\n"
            "print('importlib.metadata' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    report = json.loads((tmp_path / "product-report.json").read_text())
    assert report["versions"]["scipy"] == scipy.__version__


def test_degenerate_draws_do_not_abort_sweep(tmp_path):
    # at beta = 0.01 a few percent of the chi draws underflow to exactly 0,
    # which makes B_q singular in some replicates
    config = ExperimentConfig(mode="product", n=8, p=8, q=8, beta=0.01, reps=200, seed=3, out=tmp_path)
    _, report = run_experiment(config)
    assert report["failures"] == 0
    values = read_batch_csv(tmp_path / "product-samples.csv")["values"]
    assert values.size == 200
    assert np.all(np.isfinite(values))


def test_run_report_json_checksums(tmp_path):
    report_path, report = run_experiment(_tw_config(tmp_path))
    assert report_path == tmp_path / "tw-reference-report.json"
    payload = json.loads(report_path.read_text())
    assert payload.keys() == {"tape", "versions", "config", "constants", "failures", "moments",
                              "artifacts", "timing"}
    assert payload["versions"] == {"python": platform.python_version(), "numpy": np.__version__,
                                   "scipy": scipy.__version__, "numba": harness.versions()["numba"]}
    assert payload["moments"].keys() == {"mean", "variance", "skewness", "se_mean", "se_variance"}
    assert payload["artifacts"].keys() == {"samples_csv"}
    assert payload["artifacts"]["samples_csv"].keys() == {"path", "sha256"}
    assert payload["timing"].keys() == {"wall_seconds", "per_replicate_seconds", "processes"}
    assert payload["timing"]["processes"] == 1  # 16 replicates, under two blocks of 40
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


# the replicates one call to a span target covers: a block's range, a stack's
# rows (one per matrix or stream); every other target covers one per call
_COVERED = {
    "rep": lambda config, start, stop: stop - start,
    "airy.cell_noise": lambda disc, streams: len(streams),
    "airy.airy_tridiagonal": lambda beta, h, N, noise: len(noise),
    "eig.tridiag_extreme_eig": lambda T, cfg, start: len(T.bands[0]),
    "eig.banded_largest_eig": lambda S, cfg=None, scale=None: len(S.bands[0]),
    "ensemble.sample_bidiagonal": lambda params, streams: len(streams),
    "ensemble.laguerre_matrix": lambda factor: len(factor.diag),
    "product.product_similarity": lambda B_q, X_p: len(B_q.diag),
}


def test_benchmark_span_targets_resolve_and_see_every_replicate(tmp_path, monkeypatch):
    # a traced benchmark run wraps each target where the sweep looks it up and
    # fails on a missing one; count the replicates one sweep per mode covers
    # there, and the calls
    counts: dict = {}
    calls: dict = {}
    for name, targets in _span_targets().items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            real = getattr(module, attr)

            def counted(*args, _name=name, _real=real, **kwargs):
                covered = _COVERED.get(_name, lambda *a, **k: 1)(*args, **kwargs)
                counts[_name] = counts.get(_name, 0) + covered
                calls[_name] = calls.get(_name, 0) + 1
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

    # blocks of two replicates, so the one chunk of 5 holds three blocks: each
    # replicate span (single mode has none, so its assembly stands in) and the
    # solver's see every block once.  Doubles per replicate as in _BLOCK_CASES.
    for config, width, spans in [
        (_tw_config(tmp_path, reps=5), 80 * 20, ("rep", "eig.tridiag_extreme_eig")),
        (ExperimentConfig(mode="product", n=6, p=7, q=9, reps=5, seed=1, out=tmp_path), 12,
         ("rep", "eig.banded_largest_eig")),
        (ExperimentConfig(mode="single", n=6, p=8, reps=5, seed=1, out=tmp_path), 12,
         ("ensemble.laguerre_matrix", "eig.banded_largest_eig")),
    ]:
        monkeypatch.setattr(harness, "STACK_DOUBLES", 2 * width)
        calls.clear()
        run_experiment(config)
        assert [calls.get(k) for k in spans] == [3, 3], (config.mode, calls)


def test_single_mode_statistic(tmp_path):
    config = ExperimentConfig(mode="single", n=8, p=10, beta=2.0, reps=4, seed=21, out=tmp_path)
    _, report = run_experiment(config)
    from lagprod.scaling import single_scaling

    s = single_scaling(8, 10)
    stream = split_stream(21, 2)
    B = sample_bidiagonal(EnsembleParams(n=8, kappa=10, beta=2.0), stream)
    lam = banded_largest_eig(stack([laguerre_matrix(B)]), EigConfig(), s.m)[0]
    assert read_batch_csv(report["artifacts"]["samples_csv"]["path"])["values"][2] == (lam - s.mu) / s.sigma


def test_product_golden_values():
    # recorded when the edge solve started from ceil(10 n^(1/3)) rows; it now starts
    # from ceil(10 m_n), so old and new values are each a rel_tol * D / 2 certificate:
    # rel_tol * D apart at most, and each within rel_tol * D / 2 of the dense eigenvalue
    n, p, q, beta, seed = 64, 96, 160, 0.5, 1206
    config = ExperimentConfig(mode="product", n=n, p=p, q=q, beta=beta, reps=3, seed=seed)
    golden = [-1.499146695847465, -2.479613181543938, -2.2630507302764125]
    rel_tol, sc = config.eig_config().rel_tol, config.constants
    for r, (value, old) in enumerate(zip(sweep(config), golden)):
        B_p = sample_bidiagonal(EnsembleParams(n=n, kappa=p, beta=beta), split_stream(seed, 2 * r))
        B_q = sample_bidiagonal(EnsembleParams(n=n, kappa=q, beta=beta), split_stream(seed, 2 * r + 1))
        S = product_similarity(B_q, laguerre_matrix(B_p))
        lo, hi = gershgorin_bounds(*S.bands)
        rounding = 4 * n * np.finfo(float).eps * S.one_norm()
        assert abs(value - old) <= (rel_tol * (hi - lo) + rounding) / sc.stat_denom
        dense = product_statistic(np.linalg.eigvalsh(S.dense())[-1], sc)
        assert abs(value - dense) <= (rel_tol * (hi - lo) / 2 + rounding) / sc.stat_denom


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

    def recording(params, streams):
        drawn.append((params, sample_bidiagonal(params, streams)))
        return drawn[-1][1]

    monkeypatch.setattr(harness, "sample_bidiagonal", recording)
    config = ExperimentConfig(mode="single", n=6, p=8, beta=0.7, reps=5, seed=13)
    sweep(config)
    solved = drawn.copy()
    drawn.clear()
    mean_potential_path(config)
    # one stacked draw per block, the five replicates' factors as its rows
    assert len(solved) == len(drawn) == 1
    for (law_a, a), (law_b, b) in zip(solved, drawn):
        assert (law_a.n, law_a.kappa, law_a.beta) == (law_b.n, law_b.kappa, law_b.beta) == (6, 8, 0.7)
        assert a.beta == b.beta == 0.7
        assert a.diag.shape == b.diag.shape == (5, 6)
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


def test_overflowing_moments_print_no_warning(tmp_path):
    # at beta = 1e-300 the statistic is about 1e151, so its cubed deviations overflow:
    # the skewness is nan, and neither that nor the pinned mean and variance warns
    args = [sys.executable, "-m", "lagprod.cli", "sample-tw", "--beta", "1e-300", "--reps", "2",
            "--out", str(tmp_path)]
    proc = subprocess.run(args, env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    mom = json.loads((tmp_path / "tw-reference-report.json").read_text())["moments"]
    assert (mom["mean"], mom["variance"]) == (3.888605865947146e+151, 1.7614704769497649e+301)
    assert math.isnan(mom["skewness"])


def test_cli_constants_and_exit_codes(tmp_path):
    runner = CliRunner()
    ok = runner.invoke(cli_main, ["constants", "--n", "8", "--p", "8", "--q", "8", "--beta", "1"])
    assert ok.exit_code == 0
    assert json.loads(ok.output)["C_n"] == pytest.approx(2.0, abs=1e-12)

    bad = runner.invoke(cli_main, ["constants", "--n", "8", "--p", "7", "--q", "9"])
    assert bad.exit_code == 2

    missing = runner.invoke(cli_main, ["constants", "--n", "8", "--p", "8"])
    assert missing.exit_code == 2
    assert missing.output == "config error: product mode requires n, p, q\n"

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


def test_cli_diagnose_potential(tmp_path, monkeypatch):
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        ["diagnose-potential", "--n", "10", "--p", "12", "--beta", "2",
         "--reps", "6", "--seed", "2", "--out", str(tmp_path)],
    )
    assert res.exit_code == 0
    assert res.output.splitlines()[:2] == [f"wrote {tmp_path / 'potential-path.csv'}",
                                           f"wrote {tmp_path / 'potential-report.json'}"]
    lines = (tmp_path / "potential-path.csv").read_text().splitlines()
    assert lines[0] == "x,mean,stderr,reference"
    assert len(lines) == 10  # header + n-1 grid rows
    report = json.loads((tmp_path / "potential-report.json").read_text())
    assert sorted(report) == ["beta", "csv", "csv_sha256", "n", "p", "reps", "seed", "sup_abs_deviation",
                              "tape", "timing", "versions", "workers"]
    assert report["tape"] == 2
    assert report["versions"] == harness.versions()
    assert report["csv_sha256"] == hashlib.sha256((tmp_path / "potential-path.csv").read_bytes()).hexdigest()
    assert report["workers"] == 1
    assert sorted(report["timing"]) == ["per_replicate_seconds", "processes", "wall_seconds"]
    assert report["timing"]["processes"] == 1
    assert report["timing"]["wall_seconds"] > 0
    assert report["timing"]["per_replicate_seconds"] == report["timing"]["wall_seconds"] / 6

    # a parallel run reports its workers and the processes its sweep used, and writes the same path
    _shares_of(monkeypatch, 1)
    try:
        par = runner.invoke(cli_main, ["diagnose-potential", "--n", "10", "--p", "12", "--beta", "2", "--reps", "6",
                                       "--seed", "2", "--workers", "2", "--out", str(tmp_path / "w2")])
        assert par.exit_code == 0, par.output
        assert _processes_used() == 2
    finally:
        harness._drop_pool()
    parallel = json.loads((tmp_path / "w2" / "potential-report.json").read_text())
    assert (parallel["workers"], parallel["timing"]["processes"]) == (2, 2)
    assert parallel["csv_sha256"] == report["csv_sha256"]

    assert "[default: 2000]" in runner.invoke(cli_main, ["diagnose-potential", "--help"]).output

    # the same checks as the sampling commands: exit 2, nothing written
    for args in (["--n", "10"], ["--n", "10", "--p", "9"], ["--n", "10", "--p", "12", "--beta", "inf"],
                 ["--n", "10", "--p", "12", "--workers", "0"], ["--n", "10", "--p", "12", "--workers", "-3"],
                 ["--n", "1", "--p", "1"]):
        out = tmp_path / "bad"
        bad = runner.invoke(cli_main, ["diagnose-potential", *args, "--reps", "3", "--out", str(out)])
        assert bad.exit_code == 2, (args, bad.output)
        assert "config error:" in bad.output
        assert not out.exists()
    # a missing setting is the config's error, not click's
    missing = runner.invoke(cli_main, ["diagnose-potential", "--n", "10", "--out", str(out)])
    assert missing.output == "config error: single mode requires n, p\n"
