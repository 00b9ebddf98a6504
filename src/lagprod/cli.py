"""Command-line interface for the Monte Carlo experiment harness.

One table, ``harness.SETTINGS``, gives every option that names a setting, of
every command: its name, type and help.  Every command checks its settings
by building an ``ExperimentConfig`` (``constants`` a ``product`` one,
``diagnose-potential`` a ``single`` one); only ``--config`` and
``compare --assert`` are a command's own options.

Exit codes: 0 success, 2 configuration error (one handler, on the command
group), 3 comparison threshold breach (only when --assert is given).
"""

from __future__ import annotations

import math
import sys
import time
from functools import partial
from pathlib import Path

import click

from .harness import (
    MODES,
    SETTINGS,
    SHARED,
    ConfigError,
    compare_batches,
    json_text,
    mean_potential_path,
    resolve_config,
    run_experiment,
    scaling_report,
    timing_report,
    versions,
    write_json,
    write_potential_csv,
)
from .variates import TAPE


# each sampling command: its mode, whose settings are its flags, and its help
_SAMPLERS = {
    "sample-product": ("product", "Sample the centered, scaled largest eigenvalue of X_p X_q."),
    "sample-single": ("single", "Sample the centered, scaled largest eigenvalue of one matrix."),
    "sample-tw": ("tw-reference",
                  "Sample the Tracy-Widom(beta) reference law from the stochastic Airy operator."),
}


def _run(mode: str, config_path, **flags) -> None:
    config = resolve_config(mode, flags, config_path)
    report_path, report = run_experiment(config)
    click.echo(f"wrote {report['artifacts']['samples_csv']['path']}")
    click.echo(f"wrote {report_path}")
    m = report["moments"]
    click.echo(
        f"{mode}: M={config.reps} failures={report['failures']} "
        f"mean={m['mean']:.6g} variance={m['variance']:.6g} wall={report['timing']['wall_seconds']:.2f}s"
    )


def _option(name: str, default=None) -> click.Option:
    """The flag of a setting; with no default the config's default applies."""
    kind, help_text = SETTINGS[name]
    return click.Option([f"--{name}"], type=click.Path(path_type=Path) if kind is Path else kind,
                        default=default, show_default=default is not None, help=help_text)


class _Main(click.Group):
    """The command group: a ConfigError from any command prints ``config error: ...`` and exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Monte Carlo lab for soft-edge laws of beta-Laguerre matrix products."""


for _name, (_mode, _doc) in _SAMPLERS.items():
    main.add_command(click.Command(_name, callback=partial(_run, _mode), help=_doc, params=[
        *map(_option, [*MODES[_mode], *SHARED]),
        click.Option(["--config", "config_path"], type=click.Path(path_type=Path, exists=True), default=None,
                     help="key = value config file; flags override file values."),
    ]))


@main.command("compare", params=[_option("out")])
@click.argument("batch_a", type=click.Path(path_type=Path, exists=True))
@click.argument("batch_b", type=click.Path(path_type=Path, exists=True))
@click.option("--assert", "assert_d", type=float, default=None,
              help="Exit with code 3 if the KS distance exceeds this finite threshold.")
def compare(batch_a, batch_b, out, assert_d):
    """Two-sample KS comparison of two persisted sample batches.

    With --out, the payload is also written there as ks-report.json.
    """
    if assert_d is not None and not math.isfinite(assert_d):
        raise ConfigError(f"--assert must be finite, got {assert_d}")
    ks = compare_batches(batch_a, batch_b, out)
    click.echo(f"D = {ks['D']:.6g}  (n_a={ks['n_a']}, n_b={ks['n_b']}, p = {ks['p_value']:.4g})")
    if assert_d is not None and ks["D"] > assert_d:
        click.echo(f"threshold breach: D = {ks['D']:.6g} > {assert_d:.6g}", err=True)
        sys.exit(3)


@main.command("constants", params=[*map(_option, [*MODES["product"], "beta"])])
def constants(**flags):
    """Print every centering/scaling constant for (n, p, q, beta)."""
    click.echo(json_text(scaling_report(resolve_config("product", flags).constants)), nl=False)


@main.command("diagnose-potential", params=[*map(_option, [*MODES["single"], "beta"]), _option("reps", 2000),
                                            *map(_option, ["seed", "out", "workers"])])
def diagnose_potential(**flags):
    """Mean potential path of sampled matrices versus the x^2/2 reference."""
    config = resolve_config("single", flags)
    t0 = time.perf_counter()
    result = mean_potential_path(config)
    csv_path = config.out / "potential-path.csv"
    csv_sha256 = write_potential_csv(csv_path, result)
    sup = float(abs(result["mean"] - result["reference"]).max())
    report_path = config.out / "potential-report.json"
    write_json(report_path,
               {"n": config.n, "p": config.p, "beta": config.beta, "reps": config.reps, "seed": config.seed,
                "workers": config.workers, "tape": TAPE, "versions": dict(versions()), "sup_abs_deviation": sup,
                "csv": str(csv_path), "csv_sha256": csv_sha256, "timing": timing_report(config, t0)})
    click.echo(f"wrote {csv_path}")
    click.echo(f"wrote {report_path}")
    click.echo(f"sup |mean - x^2/2| over the full grid: {sup:.4f}")


if __name__ == "__main__":  # pragma: no cover
    main()
