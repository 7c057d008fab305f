"""Command-line surface: run, classify, oracle, verify.

Exit codes: 0 success, 1 configuration or usage error, 2 optimization
failure, 3 verification failure.  Output files are written atomically
(temp file + rename).  `elicit run` produces curve.csv, manifest.json and
report.json in the config's output directory; the CSV holds one row per
sweep point with round-trip float formatting and the literal ``inf`` for
the infinite-weight endpoint.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import verify as verify_suites
from .config import Experiment, load_config, resolve
from .distmodels import make_model
from .errors import ConfigError, ElicitError, EmptyGrid
from .links import link_value, make_link
from .optimize import default_box, meshgrid_oracle, minimize
from .sweep import SweepCurve, run_sweep
from .theory import (
    check_condition_A,
    check_condition_B,
    check_linear_trajectory,
    classify_2d_case,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_OPTIMIZATION = 2
EXIT_VERIFICATION = 3


def _fmt(x) -> str:
    return repr(float(x))


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _curve_csv(curve: SweepCurve) -> str:
    d = curve.spec.model.theta_dim
    M = curve.spec.em.moment_order
    header = (
        ["c_value"]
        + [f"theta_{j + 1}" for j in range(d)]
        + [f"r_{i + 1}" for i in range(M)]
        + ["gamma", "total_loss"]
        + [f"sub_loss_{i + 1}" for i in range(M)]
        + ["converged"]
    )
    lines = [",".join(header)]
    for p in curve.points:
        if p.solution is None:
            body = [_fmt(math.nan)] * (d + M + 2 + M)
        else:
            s = p.solution
            body = (
                [_fmt(t) for t in s.theta_star]
                + [_fmt(r) for r in s.r_star]
                + [_fmt(p.gamma), _fmt(s.loss)]
                + [_fmt(v) for v in s.sub_losses]
            )
        lines.append(",".join([_fmt(p.c_value), *body, "true" if p.converged else "false"]))
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, default=_json_default, allow_nan=True) + "\n"


def _report(exp: Experiment, curve: SweepCurve) -> dict:
    report = {
        "gamma_hat": curve.gamma_hat,
        "failure_rate": curve.failure_rate,
        "usable": curve.usable,
        "monotonicity": dataclasses.asdict(curve.monotonicity) if curve.monotonicity else None,
        "best_weight": dataclasses.asdict(curve.best) if curve.best else None,
        "checks": [],
    }
    report["checks"].append(dataclasses.asdict(check_condition_A(curve, exp.em.m_hat)))
    report["checks"].append(dataclasses.asdict(check_condition_B(curve, exp.link)))
    if exp.model.theta_dim == 1:
        r1_values = [
            p.solution.r_star[0] for p in curve.converged_points() if p.solution is not None
        ]
        if len(r1_values) >= 2 and min(r1_values) < max(r1_values):
            report["classification_2d"] = dataclasses.asdict(classify_2d_case(
                exp.model, exp.link, (min(r1_values), max(r1_values))))
        else:
            report["classification_2d"] = None
    else:
        report["classification_2d"] = None
        try:
            report["trajectory_linearity"] = dataclasses.asdict(check_linear_trajectory(curve))
        except ElicitError as exc:
            report["trajectory_linearity"] = {"error": str(exc)}
    return report


@click.group()
def cli():
    """Weight sweeps for indirectly elicited statistical properties."""


@cli.command("run")
@click.argument("config_path", type=click.Path())
def cmd_run(config_path):
    """Run the sweep described by CONFIG_PATH and write its output files."""
    cfg = load_config(config_path)
    exp = resolve(cfg)
    curve = run_sweep(exp.spec)
    # Every text is built before the first write, so a failing report writes no file.
    texts = {"curve.csv": _curve_csv(curve), "manifest.json": _dump_json(exp.resolved),
             "report.json": _dump_json(_report(exp, curve))}
    for name, text in texts.items():
        _atomic_write(exp.output / name, text)
    click.echo(f"wrote {exp.output}/curve.csv ({len(curve.points)} points)")
    if not curve.usable:
        click.echo(
            f"optimization failure rate {curve.failure_rate:.0%} exceeds 20%", err=True
        )
        sys.exit(EXIT_OPTIMIZATION)


@cli.command("classify")
@click.option("--model", "model_name", required=True)
@click.option("--fixed-params", default="", help="comma-separated fixed parameters")
@click.option("--link", "link_name", required=True)
@click.option("--interval", required=True, help="r1 interval as 'a,b'")
@click.option("--expect-uniform", is_flag=True, help="exit 3 if the case is mixed")
def cmd_classify(model_name, fixed_params, link_name, interval, expect_uniform):
    """Slope-sign case classification of a 1-parameter model against a link."""
    fixed = tuple(float(x) for x in fixed_params.split(",") if x.strip())
    try:
        lo, hi = (float(x) for x in interval.split(","))
    except ValueError as exc:
        raise ConfigError(f"--interval must be 'a,b': {exc}") from exc
    model = make_model(model_name, fixed)
    link = make_link(link_name)
    result = classify_2d_case(model, link, (lo, hi))
    if result.case == "mixed":
        click.echo(f"mixed; boundary r1 = {result.boundaries[0]:.6g}")
        if expect_uniform:
            sys.exit(EXIT_VERIFICATION)
    else:
        sign = "> 0" if result.case == "b" else "< 0"
        click.echo(f"case {result.case}; slope difference {sign} on [{lo:g}, {hi:g}]")


def _oracle_solutions(exp: Experiment, width: float):
    """The meshgrid minimizer, the configured answer, and the better of it and the grid-start one.

    Only ``nelder_mead`` and ``gradient_descent`` on a 2-parameter model
    take a start; elsewhere the third answer is the second.
    """
    weights, kinds, config = exp.spec.weights_at(1.0), exp.spec.kinds, exp.spec.optimizer
    try:
        grid = meshgrid_oracle(
            exp.model, weights, exp.em, kinds, box=default_box(exp.model, exp.em), width=width
        )
    except EmptyGrid as exc:
        raise ConfigError(str(exc)) from exc
    sol = minimize(exp.model, weights, exp.em, kinds, config)
    if exp.model.theta_dim == 1 or config.method == "profile":
        return grid, sol, sol
    start = dataclasses.replace(config, init=tuple(grid.theta_star), multistart=0)
    from_grid = minimize(exp.model, weights, exp.em, kinds, start)
    return grid, sol, min((sol, from_grid), key=lambda s: (s.loss, tuple(s.theta_star)))


@cli.command("oracle")
@click.argument("config_path", type=click.Path())
@click.option("--width", default=0.1, show_default=True, type=float)
def cmd_oracle(config_path, width):
    """Compare the optimizer against the brute-force meshgrid.

    Runs at the config's fixed weights with the swept entry set to 1, and
    logs the target-property value that the configured answer reaches.
    Under ``nelder_mead`` or ``gradient_descent`` on a 2-parameter model it
    also solves from the grid minimizer, and logs that answer too where it
    is lower.  The closed forms of the 1-parameter models and the default
    ``profile`` solve take no start, so they give one answer.
    """
    exp = resolve(load_config(config_path))
    grid, sol_cfg, sol_grid = _oracle_solutions(exp, width)

    answers = [("configured start", sol_cfg), ("grid-minimum start", sol_grid)]
    for tag, sol in answers[:1 if sol_grid is sol_cfg else 2]:
        gamma = link_value(exp.link, sol.r_star)
        click.echo(
            f"{tag}: theta* = {np.array2string(sol.theta_star, precision=6)}, "
            f"loss = {sol.loss:.6e}, gamma = {gamma:.6f}"
        )
    click.echo(
        f"meshgrid (width {width:g}): theta* = "
        f"{np.array2string(grid.theta_star, precision=6)}, loss = {grid.loss:.6e}"
    )
    best = min(sol_cfg.loss, sol_grid.loss)
    if best <= grid.loss + 1e-9 * (1.0 + abs(grid.loss)):
        click.echo("optimizer matches or beats the grid")
    else:
        click.echo("optimizer is worse than the grid", err=True)
        sys.exit(EXIT_OPTIMIZATION)


@cli.command("verify")
@click.argument("suite", default="all")
def cmd_verify(suite):
    """Run an invariant suite and print a JSON summary (exit 3 on failure)."""
    if suite != "all" and suite not in verify_suites.SUITE_NAMES:
        raise ConfigError(
            f"unknown suite {suite!r}; expected one of {verify_suites.SUITE_NAMES} or 'all'"
        )
    summary = verify_suites.run_suite(suite)
    click.echo(_dump_json(summary).rstrip("\n"))
    if not summary["pass"]:
        sys.exit(EXIT_VERIFICATION)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_CONFIG
    except click.ClickException as exc:
        exc.show()
        return EXIT_CONFIG
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except ElicitError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
