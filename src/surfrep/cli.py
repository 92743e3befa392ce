"""Command-line front end for the representation-variety computations.

Each subcommand is one builder from ``surfrep.reports``: its options are
resolved from the command line over an optional JSON config file over the
defaults below, and the report it returns is emitted either as indented JSON
(``--json``) or as a plain-text mirror of the same payload. Reports are
deterministic for a fixed seed: wall time goes to stderr only.

Exit codes: 0 status "pass" (all asserted invariants held, or nothing was
asserted), 2 status "fail: <check>", 3 input error, 4 numerical non-convergence.
"""

import inspect
import json
import sys
import time

import click
import numpy as np

from . import groups, reports
from .holonomy import FD_STEP
from .reduction import MODELS

# malformed flags and arguments are input errors, not invariant failures
click.UsageError.exit_code = 3

# key: (flag, type, default, help). The key is also the config-file entry and
# the report builder's parameter.
OPTIONS = {
    "group": ("--group", str, "SU2", "Group name (default SU2)."),
    "genus": ("--genus", int, 2, "Surface genus (default 2)."),
    "rep": ("--rep", str, None,
            'Representation: "central:[+,...]", "torus:[angles]", "random:seed" '
            "(default: all generators central +1)."),
    "seed": ("--seed", int, 0, "Sampling seed (default 0)."),
    "samples": ("--samples", int, 200, "Sample count (default 200)."),
    "rank_tol": ("--tol-rank", float, groups.RANK_TOL, "Relative singular-value cutoff (default 1e-8)."),
    "defect_tol": ("--tol-defect", float, 1e-9,
                   "Largest relator defect or residual accepted (default 1e-9)."),
}
TOLERANCES = ("rank_tol", "defect_tol")
# the JSON values a config may give an option of each type (booleans never)
JSON_TYPES = {
    int: (lambda v: isinstance(v, int), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and abs(v) <= sys.float_info.max,
            "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _load_config(path, accepted):
    if path is None:
        return {}
    try:
        with open(path) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(config) - set(accepted))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in config.items():
        accepts, name = JSON_TYPES[OPTIONS[key][1]]
        if isinstance(value, bool) or not accepts(value):
            raise ValueError(f"config key {key!r} must be {name}, got {json.dumps(value)}")
    return config


def _print_table(obj, indent=0):
    pad = " " * indent
    for key, value in obj.items():
        if isinstance(value, dict):
            click.echo(f"{pad}{key}:")
            _print_table(value, indent + 2)
        else:
            click.echo(f"{pad}{key}: {value}")


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def command(name, build, params=()):
    """Register `name` running `build`: its keys are the parameters of `build`
    that OPTIONS names; a flag per key, --config (accepting exactly those keys)
    if there are any, and --json."""
    keys = [key for key in inspect.signature(build).parameters if key in OPTIONS]

    def run(as_json, config=None, **given):
        started = time.perf_counter()
        try:
            entries = _load_config(config, keys)
            values = {}
            for key in keys:
                _, kind, default, _ = OPTIONS[key]
                value = given.pop(key, None)
                if value is None:
                    value = entries.get(key, default)
                values[key] = None if value is None else kind(value)
            if values.get("seed", 0) < 0:
                raise ValueError(f"--seed must be a non-negative integer, got {values['seed']}")
            tolerances = {key: values.get(key, OPTIONS[key][2]) for key in TOLERANCES}
            if not all(np.isfinite(t) and t > 0.0 for t in tolerances.values()):
                raise ValueError("tolerances must be finite and positive")
            tolerances["fd_step"] = FD_STEP
            payload, status = build(**given, **values)
        except groups.ConvergenceError as exc:
            _fail(f"failed to converge: {exc}", 4)
        except ValueError as exc:
            _fail(exc, 3)
        report = {
            "command": name,
            "tolerances": tolerances,
            "payload": payload,
            "status": status,
        }
        if as_json:
            click.echo(json.dumps(report, indent=2))
        else:
            _print_table(report)
        click.echo(f"wall_time_s: {time.perf_counter() - started:.3f}", err=True)
        sys.exit(0 if status == "pass" else 2)

    options = [click.Option([OPTIONS[key][0], key], type=OPTIONS[key][1], default=None,
                            help=OPTIONS[key][3])
               for key in keys]
    if keys:
        options.append(click.Option(["--config"], type=click.Path(), default=None,
                                    help="JSON file of option values; flags win."))
    options.append(click.Option(["--json", "as_json"], is_flag=True,
                                help="Emit the report as JSON."))
    main.add_command(click.Command(name, callback=run, params=[*params, *options],
                                   help=build.__doc__))


@click.group()
def main():
    """Finite-dimensional structure of surface-group representation spaces."""


command("fox", reports.fox_report, params=[
    click.Argument(["word"], metavar="WORD"),
    click.Option(["--n"], type=int, default=None,
                 help="Number of generators (default: largest index in the word)."),
])
command("cohomology", reports.cohomology_report)
command("stratify", reports.stratify_report)
command("cone-span", reports.cone_span_report)
command("reduction", reports.reduction_report, params=[
    click.Argument(["model"], metavar="MODEL",
                   type=click.Choice(list(MODELS), case_sensitive=False)),
])
command("holonomy-check", reports.holonomy_check_report)
command("genus2-su2-report", reports.genus2_su2_report)


if __name__ == "__main__":
    main()
