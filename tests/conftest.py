import json
import math
from pathlib import Path

import pytest

from elicit import analytic_moments, make_model, optimize, profile
from elicit.config import resolve
from elicit.sweep import run_sweep
from elicit.verify import analytic_variance_spec as make_variance_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG_DIR = REPO_ROOT / "configs" / "sweeps"
DIAGNOSTIC_CONFIG_DIR = REPO_ROOT / "configs" / "diagnostics"


@pytest.fixture(autouse=True)
def no_iterative_one_parameter_solve():
    """Fail any test in which a 1-parameter problem reaches an iterative or profile solve.

    Every 1-parameter problem has a closed-form answer.  The guard raises
    inside the solve and also fails the test afterwards, in case a caller
    caught the error.
    """
    seen = []
    run_lane, solve = optimize._run_lane, profile.solve

    def guarded_lane(model, residual, z0, config):
        if model.theta_dim == 1:
            seen.append("a lane")
            raise AssertionError("a 1-parameter problem reached the iterative solver")
        return run_lane(model, residual, z0, config)

    def guarded_profile(model, em, kinds, eff, held):
        if model.theta_dim == 1:
            seen.append(f"{len(eff)} profile rows")
            raise AssertionError("a 1-parameter problem reached the profile solve")
        return solve(model, em, kinds, eff, held)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_run_lane", guarded_lane)
        patch.setattr(profile, "solve", guarded_profile)
        yield
    assert not seen, f"1-parameter problems reached an iterative or profile solve: {seen}"


@pytest.fixture(scope="session")
def poisson_em_3_15():
    """Analytic moments (3, 15): poisson(3) pushed off-curve in the second moment."""
    return analytic_moments(make_model("poisson"), [3.0], perturb=[0.0, 3.0])


@pytest.fixture(scope="session")
def poisson_variance_curve():
    """The default 41-point sweep of c_1 on the moments of ``poisson_em_3_15``."""
    return run_sweep(make_variance_spec("poisson", (), [3.0], [0.0, 3.0], grid_points=41))


def load_shipped_configs(directory=SWEEP_CONFIG_DIR):
    paths = sorted(directory.glob("*.json"))
    assert paths, f"no configs found under {directory}"
    return [(p.stem, json.loads(p.read_text())) for p in paths]


@pytest.fixture(scope="session")
def shipped_sweeps():
    """Every figure-family config, resolved and swept once for the whole session."""
    out = {}
    for name, cfg in load_shipped_configs():
        exp = resolve(cfg)
        out[name] = (exp, run_sweep(exp.spec))
    return out


def largest_moves(old, new, path="", moves=None) -> dict:
    """Per field, the largest relative change of ``new`` against ``old``.

    Fields are dotted key paths with list indices dropped, so every point of
    a curve counts toward one field.  A number that moves off 0 or between
    nan and a number, and any other value that changes, moves by inf.
    """
    moves = {} if moves is None else moves
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old.keys() | new.keys():
            largest_moves(old.get(key), new.get(key), f"{path}.{key}".lstrip("."), moves)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            largest_moves(a, b, path, moves)
    else:
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new))
        if numbers and old == old and new == new:
            rel = abs(new - old) / abs(old) if old else (0.0 if new == old else math.inf)
        else:
            rel = 0.0 if old == new or (numbers and old != old and new != new) else math.inf
        moves[path] = max(moves.get(path, 0.0), rel)
    return moves


def print_moves(old: dict, new: dict) -> None:
    """Print, per config and field, the largest relative change that a regeneration makes."""
    for name in sorted(old.keys() | new.keys()):
        moved = {k: v for k, v in largest_moves(old.get(name), new.get(name)).items() if v}
        print(f"{name}: " + (", ".join(f"{k} {v:.3g}" for k, v in sorted(moved.items()))
                             or "unchanged"))
