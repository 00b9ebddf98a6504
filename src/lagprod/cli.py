"""Command-line interface for the Monte Carlo experiment harness.

Exit codes: 0 success, 2 configuration error, 3 comparison threshold breach
(only when --assert is given).
"""

from __future__ import annotations

import math
import sys
from functools import partial
from pathlib import Path

import click

from .harness import (
    MODES,
    SETTINGS,
    SHARED,
    VERSIONS,
    ConfigError,
    compare_batches,
    json_text,
    mean_potential_path,
    resolve_config,
    run_experiment,
    scaling_report,
    write_json,
    write_potential_csv,
)
from .scaling import coupled_scaling
from .variates import TAPE


# each sampling command: its mode, whose settings are its flags, and its help
_SAMPLERS = {
    "sample-product": ("product", "Sample the centered, scaled largest eigenvalue of X_p X_q."),
    "sample-single": ("single", "Sample the centered, scaled largest eigenvalue of one matrix."),
    "sample-tw": ("tw-reference",
                  "Sample the Tracy-Widom(beta) reference law from the stochastic Airy operator."),
}


def _run(mode: str, config_path, **flags) -> None:
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


def _option(name: str) -> click.Option:
    kind, help_text = SETTINGS[name]
    return click.Option([f"--{name}"], type=click.Path(path_type=Path) if kind is Path else kind,
                        default=None, help=help_text)


@click.group()
def main():
    """Monte Carlo lab for soft-edge laws of beta-Laguerre matrix products."""


for _name, (_mode, _doc) in _SAMPLERS.items():
    main.add_command(click.Command(_name, callback=partial(_run, _mode), help=_doc, params=[
        *map(_option, [*MODES[_mode], *SHARED]),
        click.Option(["--config", "config_path"], type=click.Path(path_type=Path, exists=True), default=None,
                     help="key = value config file; flags override file values."),
    ]))


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
    click.echo(json_text(report), nl=False)


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
        config = resolve_config("single", dict(n=n, p=p, beta=beta, reps=reps, seed=seed,
                                               out=out, workers=workers))
        result = mean_potential_path(config)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "potential-path.csv"
    csv_sha256 = write_potential_csv(csv_path, result)
    sup = float(abs(result["mean"] - result["reference"]).max())
    write_json(out / "potential-report.json",
               {"n": n, "p": p, "beta": beta, "reps": reps, "seed": seed, "tape": TAPE,
                "versions": dict(VERSIONS),
                "sup_abs_deviation": sup, "csv": str(csv_path), "csv_sha256": csv_sha256})
    click.echo(f"wrote {csv_path}")
    click.echo(f"sup |mean - x^2/2| over the full grid: {sup:.4f}")


if __name__ == "__main__":  # pragma: no cover
    main()
