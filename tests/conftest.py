import json
from pathlib import Path

import pytest

from elicit import analytic_moments, make_model
from elicit.config import resolve
from elicit.sweep import run_sweep
from elicit.verify import analytic_variance_spec as make_variance_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG_DIR = REPO_ROOT / "configs" / "sweeps"
DIAGNOSTIC_CONFIG_DIR = REPO_ROOT / "configs" / "diagnostics"


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
