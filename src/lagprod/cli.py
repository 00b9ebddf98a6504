"""Command-line interface for the Monte Carlo experiment harness.

One table, ``harness.SETTINGS``, gives every option that names a setting, of
every command: its name, type and help.  Every command checks its settings
by building an ``ExperimentConfig`` (``constants`` a ``product`` one,
``diagnose-potential`` a ``single`` one); only ``--config`` and
``compare --assert`` are a command's own options.

``main(argv) -> int`` parses the arguments, runs the command and returns its
exit code: 0 success, 2 configuration error (argparse exits 2 itself on a
usage error), 3 comparison threshold breach (only when --assert is given).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .harness import (MODES, SETTINGS, SHARED, ConfigError, compare_batches, json_text, mean_potential_path,
                      resolve_config, run_experiment, scaling_report, timing_report, versions, write_json,
                      write_potential_csv)
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
    print(f"wrote {report['artifacts']['samples_csv']['path']}")
    print(f"wrote {report_path}")
    m = report["moments"]
    print(f"{mode}: M={config.reps} failures={report['failures']} "
          f"mean={m['mean']:.6g} variance={m['variance']:.6g} wall={report['timing']['wall_seconds']:.2f}s")


def compare(batch_a, batch_b, out, assert_d) -> int | None:
    """Two-sample KS comparison of two persisted sample batches.

    With --out, the payload is also written there as ks-report.json.
    """
    if assert_d is not None and not math.isfinite(assert_d):
        raise ConfigError(f"--assert must be finite, got {assert_d}")
    ks = compare_batches(batch_a, batch_b, out)
    print(f"D = {ks['D']:.6g}  (n_a={ks['n_a']}, n_b={ks['n_b']}, p = {ks['p_value']:.4g})")
    if assert_d is not None and ks["D"] > assert_d:
        print(f"threshold breach: D = {ks['D']:.6g} > {assert_d:.6g}", file=sys.stderr)
        return 3


def constants(**flags) -> None:
    """Print every centering/scaling constant for (n, p, q, beta)."""
    print(json_text(scaling_report(resolve_config("product", flags).constants)), end="")


def diagnose_potential(**flags) -> None:
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
                "failures": result["failures"],
                "csv": str(csv_path), "csv_sha256": csv_sha256, "timing": timing_report(config, t0)})
    print(f"wrote {csv_path}")
    print(f"wrote {report_path}")
    print(f"sup |mean - x^2/2| over the full grid: {sup:.4f}")


def _command(commands, name: str, run, doc: str, settings, **defaults) -> argparse.ArgumentParser:
    """The parser of a command that ``run`` runs: one flag per setting, with its type and help
    from :data:`SETTINGS`; a default given here shows in the help, else the config's applies."""
    parser = commands.add_parser(name, allow_abbrev=False, help=doc.splitlines()[0], description=doc)
    parser.set_defaults(run=run)
    for setting in settings:
        kind, help_text = SETTINGS[setting]
        default = defaults.get(setting)
        parser.add_argument(f"--{setting}", type=kind, default=default,
                            help=help_text if default is None else f"{help_text} [default: {default}]")
    return parser


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagprod", allow_abbrev=False,
        description="Monte Carlo lab for soft-edge laws of beta-Laguerre matrix products.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (mode, doc) in _SAMPLERS.items():
        sampler = _command(commands, name, _run, doc, [*MODES[mode], *SHARED])
        sampler.set_defaults(mode=mode)
        sampler.add_argument("--config", dest="config_path", type=Path,
                             help="key = value config file; flags override file values.")
    cmp = _command(commands, "compare", compare, compare.__doc__, ["out"])
    cmp.add_argument("batch_a", type=Path)
    cmp.add_argument("batch_b", type=Path)
    cmp.add_argument("--assert", dest="assert_d", type=float,
                     help="Exit with code 3 if the KS distance exceeds this finite threshold.")
    _command(commands, "constants", constants, constants.__doc__, [*MODES["product"], "beta"])
    _command(commands, "diagnose-potential", diagnose_potential, diagnose_potential.__doc__,
             [*MODES["single"], "beta", "reps", "seed", "out", "workers"], reps=2000)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (default: ``sys.argv[1:]``) names and return its exit code;
    a ``ConfigError`` prints ``config error: ...`` and returns 2."""
    flags = vars(_parser().parse_args(argv))
    del flags["command"]
    run = flags.pop("run")
    try:
        return run(**flags) or 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
