"""Every shipped sweep against a stored reference, within stated tolerances.

``tests/data/shipped_sweeps.json`` holds, per sweep, the total loss, the
target-property value and the convergence flag of every point, and the
verdicts of the run report.  Regenerate it (only when a change is meant to
move these outputs) with

    PYTHONPATH=src python tests/test_shipped_sweeps.py

which first prints, per config and field, the largest relative change
against the committed file.
"""

import json
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data" / "shipped_sweeps.json"
LOSS_RTOL = 1e-12
GAMMA_RTOL = 1e-8


def snapshot(exp, curve) -> dict:
    """The reference record of one swept config."""
    from elicit.cli import _report

    report = _report(exp, curve)
    verdicts = {
        "monotonicity": report["monotonicity"] and report["monotonicity"]["direction"],
        "best_weight": report["best_weight"] and report["best_weight"]["kind"],
        "checks": {check["name"]: check["verdict"] for check in report["checks"]},
        "classification_2d": report["classification_2d"] and report["classification_2d"]["case"],
        "trajectory_linearity": report.get("trajectory_linearity", {}).get("verdict"),
        "usable": report["usable"],
    }
    points = [
        {
            "c_value": p.c_value,
            "total_loss": p.solution.loss if p.solution is not None else float("nan"),
            "gamma": p.gamma,
            "converged": p.converged,
        }
        for p in curve.points
    ]
    return {"points": points, "verdicts": verdicts}


def test_shipped_sweeps_match_reference(shipped_sweeps):
    reference = json.loads(DATA.read_text())
    assert sorted(reference) == sorted(shipped_sweeps)
    for name, (exp, curve) in shipped_sweeps.items():
        got, want = snapshot(exp, curve), reference[name]
        assert got["verdicts"] == want["verdicts"], name
        assert [p["c_value"] for p in got["points"]] == [p["c_value"] for p in want["points"]]
        assert [p["converged"] for p in got["points"]] == [p["converged"] for p in want["points"]]
        for key, rtol in (("total_loss", LOSS_RTOL), ("gamma", GAMMA_RTOL)):
            np.testing.assert_allclose([p[key] for p in got["points"]],
                                       [p[key] for p in want["points"]],
                                       rtol=rtol, atol=0.0, err_msg=f"{name}: {key}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import load_shipped_configs, print_moves

    from elicit.config import resolve
    from elicit.sweep import run_sweep

    out = {}
    for name, cfg in load_shipped_configs():
        exp = resolve(cfg)
        out[name] = snapshot(exp, run_sweep(exp.spec))
    print_moves(json.loads(DATA.read_text()) if DATA.exists() else {}, out)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {DATA} ({len(out)} sweeps)")
