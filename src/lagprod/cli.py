"""Command-line interface for the Monte Carlo experiment harness.

Exit codes: 0 success, 2 configuration error, 3 comparison threshold breach
(only when --assert is given).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from .harness import (
    ConfigError,
    compare_batches,
    mean_potential_path,
    resolve_config,
    run_experiment,
    scaling_report,
    write_json,
    write_potential_csv,
)
from .scaling import coupled_scaling
from .variates import TAPE


_TOL_HELP = ("Eigensolver tolerance (default 1e-10): a top eigenvalue is within tol/2 times "
             "the matrix's Gershgorin spectral diameter (Airy's smallest within tol times it).")


def _common_options(fn):
    for deco in reversed(
        [
            click.option("--seed", type=int, default=None, help="Master seed (64-bit unsigned)."),
            click.option("--out", type=click.Path(path_type=Path), default=None, help="Output directory."),
            click.option("--workers", type=int, default=None, help="Worker process count."),
            click.option("--config", "config_path", type=click.Path(path_type=Path, exists=True), default=None,
                         help="key = value config file; flags override file values."),
        ]
    ):
        fn = deco(fn)
    return fn


def _run(mode: str, config_path, flags: dict) -> None:
    try:
        config = resolve_config(mode, flags, config_path)
        report_path, report = run_experiment(config)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"wrote {report['artifacts']['samples_csv']['path']}")
    click.echo(f"wrote {report_path}")
    m = report["moments"]
    click.echo(
        f"{mode}: M={config.reps} failures={report['failures']} "
        f"mean={m['mean']:.6g} variance={m['variance']:.6g} wall={report['timing']['wall_seconds']:.2f}s"
    )


@click.group()
def main():
    """Monte Carlo lab for soft-edge laws of beta-Laguerre matrix products."""


@main.command("sample-product")
@click.option("--n", type=int, default=None, help="Matrix size n.")
@click.option("--p", type=int, default=None, help="First ladder parameter (n <= p).")
@click.option("--q", type=int, default=None, help="Second ladder parameter (p <= q).")
@click.option("--beta", type=float, default=None, help="Ensemble beta > 0.")
@click.option("--reps", type=int, default=None, help="Replicate count M.")
@click.option("--tol", type=float, default=None, help=_TOL_HELP)
@_common_options
def sample_product(config_path, **flags):
    """Sample the centered, scaled largest eigenvalue of X_p X_q."""
    _run("product", config_path, flags)


@main.command("sample-single")
@click.option("--n", type=int, default=None, help="Matrix size n.")
@click.option("--p", type=int, default=None, help="Ladder parameter (n <= p).")
@click.option("--beta", type=float, default=None, help="Ensemble beta > 0.")
@click.option("--reps", type=int, default=None, help="Replicate count M.")
@click.option("--tol", type=float, default=None, help=_TOL_HELP)
@_common_options
def sample_single(config_path, **flags):
    """Sample the centered, scaled largest eigenvalue of one matrix."""
    _run("single", config_path, flags)


@main.command("sample-tw")
@click.option("--beta", type=float, default=None, help="Tracy-Widom parameter > 0.")
@click.option("--reps", type=int, default=None, help="Replicate count M.")
@click.option("--mesh", type=float, default=None, help="Mesh step h (default 0.02).")
@click.option("--cutoff", type=float, default=None, help="Domain cutoff L (default 12).")
@click.option("--tol", type=float, default=None, help=_TOL_HELP)
@_common_options
def sample_tw(config_path, **flags):
    """Sample the Tracy-Widom(beta) reference law from the stochastic Airy operator."""
    _run("tw-reference", config_path, flags)


@main.command("compare")
@click.argument("batch_a", type=click.Path(path_type=Path, exists=True))
@click.argument("batch_b", type=click.Path(path_type=Path, exists=True))
@click.option("--out", type=click.Path(path_type=Path), default=None, help="Directory for ks-report.json.")
@click.option("--assert", "assert_d", type=float, default=None,
              help="Exit with code 3 if the KS distance exceeds this finite threshold.")
def compare(batch_a, batch_b, out, assert_d):
    """Two-sample KS comparison of two persisted sample batches."""
    try:
        if assert_d is not None and not math.isfinite(assert_d):
            raise ConfigError(f"--assert must be finite, got {assert_d}")
        ks = compare_batches(batch_a, batch_b, out)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"D = {ks['D']:.6g}  (n_a={ks['n_a']}, n_b={ks['n_b']}, p = {ks['p_value']:.4g})")
    if assert_d is not None and ks["D"] > assert_d:
        click.echo(f"threshold breach: D = {ks['D']:.6g} > {assert_d:.6g}", err=True)
        sys.exit(3)


@main.command("constants")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
def constants(n, p, q, beta):
    """Print every centering/scaling constant for (n, p, q, beta)."""
    try:
        report = scaling_report(coupled_scaling(n, p, q, beta))
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    import json

    click.echo(json.dumps(report, indent=2, sort_keys=True))


@main.command("diagnose-potential")
@click.option("--n", type=int, required=True, help="Matrix size n.")
@click.option("--p", type=int, required=True, help="Ladder parameter (n <= p).")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--reps", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("."), show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
def diagnose_potential(n, p, beta, reps, seed, out, workers):
    """Mean potential path of sampled matrices versus the x^2/2 reference."""
    try:
        config = resolve_config("potential", dict(n=n, p=p, beta=beta, reps=reps, seed=seed,
                                                  out=out, workers=workers))
        result = mean_potential_path(config)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "potential-path.csv"
    write_potential_csv(csv_path, result)
    sup = float(abs(result["mean"] - result["reference"]).max())
    write_json(out / "potential-report.json",
               {"n": n, "p": p, "beta": beta, "reps": reps, "seed": seed, "tape": TAPE,
                "sup_abs_deviation": sup, "csv": str(csv_path)})
    click.echo(f"wrote {csv_path}")
    click.echo(f"sup |mean - x^2/2| over the full grid: {sup:.4f}")


if __name__ == "__main__":  # pragma: no cover
    main()
