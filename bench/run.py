"""Benchmark for elicit: curve sweeps and oracle solves, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads:

  sweep-variance   `elicit run` on the six configs/sweeps/var-* configs
  sweep-skewness   `elicit run` on the six configs/sweeps/skew-* configs
  oracle-solves    independent `elicit oracle --width 0.01` runs

The seed only changes the generated config files that the program reads.
One client calls `elicit.cli.main` in-process in a closed loop: each command
starts after the previous one returns.  With --trace 0 the loop runs whole
units (one cycle of the six sweep configs, or one block of 18 oracle draws)
until --seconds have passed, and end-to-end metrics are reported.  With
--trace 1 one fixed unit set runs untraced, then traced with wrappers around
each layer's public entry points, and per-layer metrics are reported; the
counts in them repeat exactly for a given seed.  End-to-end times are scaled
to a nominal host speed; see REFERENCE_S.

Every command's output is checked.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every check passed, 1 when one failed, and 2 when the run
could not start (for example without src/elicit or configs/sweeps).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SWEEP_CONFIGS = ROOT / "configs" / "sweeps"
WORK = ROOT / ".bench_work"

WORKLOADS = ("sweep-variance", "sweep-skewness", "oracle-solves")
POINTS_PER_CURVE = 43
ORACLE_WIDTH = "0.01"
# Each oracle block holds every 1-parameter pair twice and every
# 2-parameter pair once, so the median falls inside the 1-parameter latency
# cluster and p90 inside the 2-parameter one, never in the gap between them.
ORACLE_COPIES = {"var": 2, "skew": 1}
ORACLE_WEIGHT_DECADES = (-2.0, 2.0)
TRACE_ORACLE_BLOCKS = 2
SETUP_REPEATS = 3

# The host's speed drifts: on a shared 2-core VM one fixed Python loop runs
# up to 1.5x slower for tens of seconds at a time, enough to move a run's
# median by 30%.  Every end-to-end time is therefore scaled by
# REFERENCE_S / r, where r is the mean time of a fixed kernel that does not
# touch elicit, timed right before and after the command and every
# SAMPLE_INTERVAL_S during it.  REFERENCE_S is that kernel's typical time on
# the 2-core x86_64 machine the bounds were set on.
REFERENCE_S = 0.0017
SAMPLE_INTERVAL_S = 0.25

# Criterion 04's tolerance on the swept sub-loss, and the constraint
# tolerance of the infinite-weight point.
SUBLOSS_ATOL, SUBLOSS_RTOL = 1e-8, 1e-6
CONSTRAINT_RTOL = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "curve_s.p50": "s",
    "points_per_s": "1/s",
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "optimize.minimize_self_ms": "ms",
    "optimize.minimize_calls": "count",
    "optimize.objective_calls": "count",
    "optimize.evals_per_solve": "evals/solve",
    "optimize.iters": "count",
    "optimize.nonconverged": "count",
    "optimize.meshgrid_ms": "ms",
    "distmodels.moments_calls": "count",
    "distmodels.moments_ms": "ms",
    "distmodels.jacobian_calls": "count",
    "distmodels.grid_points": "count",
    "distmodels.sample_ms": "ms",
    "losses.empirical_moments_ms": "ms",
    "config.resolve_ms": "ms",
    "sweep.self_ms": "ms",
    "sweep.solves_per_point": "solves/point",
    "sweep.best_weight_solves": "count",
    "links.link_value_calls": "count",
    "theory.checks_ms": "ms",
    "theory.condition_A_fail": "count",
    "cli.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "bench.trace_overhead_frac": "ratio",
}


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One elicit command and what its output is checked against."""

    argv: list[str]
    config: Path
    points: int
    output: Path | None = None      # sweep output directory
    index: int = 0                  # swept sub-loss, 0-based
    m_hat_i: float = math.nan       # sample moment the c = inf point must meet


def shipped_configs(family: str) -> list[tuple[str, dict]]:
    paths = sorted(SWEEP_CONFIGS.glob(f"{family}-*.json"))
    if not paths:
        raise SetupError(f"no {family}-* configs under {SWEEP_CONFIGS}")
    return [(p.stem, json.loads(p.read_text())) for p in paths]


def _write_config(cfg: dict, name: str) -> Path:
    path = WORK / "inputs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2))
    return path


def sweep_unit(family: str, seed: int) -> list[Op]:
    """The six shipped configs of a family.

    Seed 0 keeps their sample seeds; any other seed redraws them once, so
    every cycle of a run repeats the same six inputs however many fit.
    """
    rng = random.Random(f"sweep:{family}:{seed}")
    ops = []
    for stem, cfg in shipped_configs(family):
        draw = rng.randrange(2**31)
        if seed != 0:
            cfg["template"]["seed"] = draw
        out = WORK / "out" / stem
        cfg["output"] = str(out)
        path = _write_config(cfg, f"{stem}-seed{seed}")
        ops.append(Op(["run", str(path)], path, POINTS_PER_CURVE, output=out,
                      index=cfg["sweep"]["index"] - 1))
    return ops


def oracle_unit(seed: int, block: int) -> list[Op]:
    """One block of oracle draws: pair order, sample seeds and fixed weights."""
    rng = random.Random(f"oracle:{seed}:{block}")
    pairs = [
        (stem, cfg)
        for family, copies in ORACLE_COPIES.items()
        for stem, cfg in shipped_configs(family)
        for _ in range(copies)
    ]
    rng.shuffle(pairs)
    ops = []
    for k, (stem, shipped) in enumerate(pairs):
        cfg = json.loads(json.dumps(shipped))
        cfg["template"]["seed"] = rng.randrange(2**31)
        cfg["sweep"]["fixed_weights"] = [
            10.0 ** rng.uniform(*ORACLE_WEIGHT_DECADES) for _ in cfg["sweep"]["fixed_weights"]
        ]
        cfg["output"] = str(WORK / "out" / "oracle")
        path = _write_config(cfg, f"oracle-seed{seed}-b{block}-{k:02d}-{stem}")
        ops.append(Op(["oracle", str(path), "--width", ORACLE_WIDTH], path, 1))
    return ops


def unit(workload: str, seed: int, k: int) -> list[Op]:
    if workload == "oracle-solves":
        return oracle_unit(seed, k)
    return sweep_unit("var" if workload == "sweep-variance" else "skew", seed)


def prepare(ops: list[Op]) -> None:
    """Resolve each sweep config once, untimed, for the sample moment it checks."""
    from elicit.config import load_config, resolve

    for op in ops:
        if op.output is not None:
            op.m_hat_i = float(resolve(load_config(op.config)).em.m_hat[op.index])


# ---------------------------------------------------------------------------
# Running and checking one command
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    points: int
    failed: int
    bytes_written: int
    problems: list[str]
    rounds: list[float]             # reference rounds timed during the command
    reference: float = math.nan     # mean reference-round time over the command

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_S / self.reference


class SpeedSampler:
    """Times one reference round every SAMPLE_INTERVAL_S while a command runs.

    The rounds run in a SIGALRM handler, between two bytecodes of the
    command; their time is subtracted from the command's wall time.
    """

    def __init__(self):
        self.rounds: list[float] = []
        self.overhead = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.rounds.append(_reference_round())
        self.overhead += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_op(op: Op) -> tuple[float, object, str, list[float]]:
    """Wall time, exit code, captured output and in-command reference rounds."""
    import elicit.cli

    if op.output is not None:
        shutil.rmtree(op.output, ignore_errors=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), SpeedSampler() as speed:
        t0 = time.perf_counter()
        try:
            rc = elicit.cli.main(op.argv)
        except Exception:  # a crash is a failed operation; keep its traceback
            rc = "exception"
            buf.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return dt - speed.overhead, rc, buf.getvalue(), speed.rounds


def _clamped_at_infinity(op: Op) -> bool:
    """Whether the program's own solve at c = inf reports clamping."""
    from elicit.config import load_config, resolve
    from elicit.optimize import minimize

    exp = resolve(load_config(op.config))
    sol = minimize(exp.model, exp.spec.weights_at(math.inf), exp.em,
                   exp.spec.kinds, exp.spec.optimizer)
    return bool(sol.clamped)


def check_curve(op: Op) -> tuple[set[int], list[str]]:
    """Indices of sweep points that failed, and why."""
    path = op.output / "curve.csv"
    if not path.exists():
        return set(range(op.points)), [f"{path} missing"]
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != op.points:
        return set(range(op.points)), [f"{path}: {len(rows)} rows, expected {op.points}"]
    failed, problems = set(), []
    sub = f"sub_loss_{op.index + 1}"
    prev = None
    for k, row in enumerate(rows):
        if row["converged"] != "true":
            failed.add(k)
            problems.append(f"point {k} (c={row['c_value']}) did not converge")
            continue
        value = float(row[sub])
        if prev is not None and value > prev + SUBLOSS_ATOL + SUBLOSS_RTOL * abs(prev):
            failed.add(k)
            problems.append(f"{sub} rises at point {k}: {prev!r} -> {value!r}")
        prev = value
    last = rows[-1]
    if last["c_value"] != "inf":
        failed.add(len(rows) - 1)
        problems.append(f"last point has c={last['c_value']}, expected inf")
    elif last["converged"] == "true":
        r_i = float(last[f"r_{op.index + 1}"])
        m = op.m_hat_i
        if abs(r_i - m) > CONSTRAINT_RTOL * (1.0 + abs(m)) and not _clamped_at_infinity(op):
            failed.add(len(rows) - 1)
            problems.append(f"c=inf misses its constraint: r_{op.index + 1}={r_i!r}, m_hat={m!r}")
    return failed, problems


def execute(op: Op, tracer=None) -> Outcome:
    """Run one command (traced if a tracer is given) and check its output."""
    if tracer is not None:
        tracer.install()
    try:
        dt, rc, text, rounds = run_op(op)
    finally:
        if tracer is not None:
            tracer.remove()
    written = len(text.encode())
    if rc != 0:
        tail = text.strip().splitlines()[-1:] or [""]
        return Outcome(dt, op.points, op.points, written,
                       [f"{op.config.name}: exit {rc} {tail[0]}"], rounds)
    failed, problems = set(), []
    if op.output is not None:
        failed, problems = check_curve(op)
        written += sum(p.stat().st_size for p in op.output.iterdir() if p.is_file())
    return Outcome(dt, op.points, len(failed), written,
                   [f"{op.config.name}: {p}" for p in problems], rounds)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def _reference_round() -> float:
    """Seconds for one round of a fixed kernel: Python loops, small and large numpy arrays."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10000):
        acc += (i % 7) * 0.5
    x = np.array([0.3, 1.7])
    for _ in range(100):
        theta = np.asarray(x, dtype=float).reshape(2)
        r = np.array([float(v) for v in (np.exp(theta[0]), theta[0] * theta[1], theta[1] ** 2)])
        x = x + 1e-9 * r[:2]
    a = np.arange(30000.0)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median of three reference rounds: the host's current speed, inverted."""
    return statistics.median([_reference_round() for _ in range(3)])


_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import elicit.cli
from elicit.config import load_config, resolve
for path in sys.argv[2:]:
    resolve(load_config(path))
"""


def measure_setup(ops: list[Op], repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import elicit.cli and resolve every input.

    The interpreters inherit the environment, from which run() has removed
    ELICIT_THREADS.
    """
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), *(str(op.config) for op in ops)]
    times = []
    before = reference_seconds()
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up interpreter failed:\n{proc.stderr}")
        after = reference_seconds()
        times.append(dt * REFERENCE_S / (0.5 * (before + after)))
        before = after
    return times


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the samples around it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_commands(ops: list[Op], tracer=None) -> list[Outcome]:
    """Run commands in order, timing the reference kernel before and after each."""
    outcomes = []
    before = reference_seconds()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        outcome = execute(op, tracer)
        after = reference_seconds()
        outcome.reference = statistics.mean([before, after, *outcome.rounds])
        outcomes.append(outcome)
        before = after
    return outcomes


def measure_loop(workload: str, seed: int, seconds: float, limit: int | None):
    """Whole units of commands, untraced, until `seconds` have passed."""
    outcomes = []
    t_start = time.perf_counter()
    k = 0
    while True:
        ops = unit(workload, seed, k)[:limit]
        prepare(ops)
        outcomes.extend(run_commands(ops))
        k += 1
        if time.perf_counter() - t_start >= seconds:
            return outcomes


def end_to_end(outcomes: list[Outcome], setup: list[float]) -> dict[str, float]:
    latency = [o.scaled for o in outcomes]
    per_point_ms = [1e3 * o.scaled / o.points for o in outcomes]
    return {
        "setup_s": statistics.median(setup),
        "curve_s.p50": statistics.median(latency),
        "points_per_s": sum(o.points for o in outcomes) / sum(latency),
        "solve_ms.p50": statistics.median(per_point_ms),
        "solve_ms.p90": p90(per_point_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(ops: list[Op]):
    """The same commands untraced, then traced; returns outcomes, per-layer metrics, tracer."""
    from tracing import THEORY_CHECKS, Tracer

    untraced = run_commands(ops)
    tracer = Tracer()
    traced = run_commands(ops, tracer)
    total, own = tracer.layer_ms()
    c = tracer.counts
    t_plain = sum(o.scaled for o in untraced)
    t_traced = sum(o.scaled for o in traced)
    layers = {
        "optimize.minimize_self_ms": own.get("optimize.minimize", 0.0),
        "optimize.minimize_calls": c["minimize_calls"],
        "optimize.objective_calls": c["objective_calls"],
        "optimize.evals_per_solve": c["objective_calls"] / max(1, c["minimize_calls"]),
        "optimize.iters": c["iters"],
        "optimize.nonconverged": c["nonconverged"],
        "optimize.meshgrid_ms": total.get("optimize.meshgrid_oracle", 0.0),
        "distmodels.moments_calls": c["moments_calls"],
        "distmodels.moments_ms": total.get("distmodels.moments", 0.0),
        "distmodels.jacobian_calls": c["jacobian_calls"],
        "distmodels.grid_points": c["grid_points"],
        "distmodels.sample_ms": total.get("distmodels.sample", 0.0),
        "losses.empirical_moments_ms": total.get("losses.empirical_moments", 0.0),
        "config.resolve_ms": own.get("config.resolve", 0.0),
        "sweep.self_ms": own.get("sweep.run_sweep", 0.0) + own.get("sweep.best_weight", 0.0),
        "sweep.solves_per_point": c["sweep_solves"] / max(1, c["sweep_points"]),
        "sweep.best_weight_solves": c["best_weight_solves"],
        "links.link_value_calls": c["link_value_calls"],
        "theory.checks_ms": sum(total.get(n, 0.0) for n in THEORY_CHECKS),
        "theory.condition_A_fail": c["condition_A_fail"],
        "cli.self_ms": own.get("cli.main", 0.0),
        "cli.bytes_written": sum(o.bytes_written for o in traced),
        "bench.trace_overhead_frac": (t_traced - t_plain) / t_plain,
    }
    return untraced + traced, layers, tracer


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def environment() -> dict:
    import elicit
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "elicit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "elicit": elicit.__version__,
        "nproc": nproc,
        "machine": platform.machine(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum measured time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None,
                   help="use only the first N commands of each unit, and set up once (smoke runs)")
    return p.parse_args(argv)


def run(args) -> int:
    if not (SRC / "elicit").is_dir():
        raise SetupError(f"{SRC / 'elicit'} not found; run from the repository root")
    os.environ.pop("ELICIT_THREADS", None)
    sys.path.insert(0, str(SRC))
    env = environment()

    if args.trace:
        n_units = 1 if args.workload.startswith("sweep") else TRACE_ORACLE_BLOCKS
        ops = [op for k in range(n_units) for op in unit(args.workload, args.seed, k)[:args.limit]]
        prepare(ops)
        outcomes, metrics, tracer = traced_pass(ops)
        units = PER_LAYER_UNITS
        tracer.save(WORK / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        first = unit(args.workload, args.seed, 0)[:args.limit]
        prepare(first)
        setup = measure_setup(first, SETUP_REPEATS if args.limit is None else 1)
        outcomes = measure_loop(args.workload, args.seed, args.seconds, args.limit)
        metrics = end_to_end(outcomes, setup)
        units = END_TO_END_UNITS

    attempted = sum(o.points for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }

    print(f"environment {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} commands, {attempted} points")
    for line in problems[:20]:
        print(f"CHECK FAILED {line}")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':30s} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    print(f"  reference kernel median {statistics.median(o.reference for o in outcomes):.6g} s"
          f" (nominal {REFERENCE_S} s); unscaled command median"
          f" {statistics.median(o.seconds for o in outcomes):.6g} s")
    record = {"args": vars(args), "environment": env, **result,
              "command_seconds": [o.seconds for o in outcomes],
              "reference_seconds": [o.reference for o in outcomes], "problems": problems}
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
