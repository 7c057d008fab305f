"""The ``elicit oracle`` answers of every shipped sweep config, bit for bit.

``tests/data/shipped_oracle.json`` holds, per config at width 0.01, theta*
and the loss of the meshgrid minimizer, of the configured-start answer and
of the grid-start answer, as exact floats.  Regenerate it (only when a
change is meant to move these outputs) with

    PYTHONPATH=src python tests/test_shipped_oracle.py

which first prints, per config and field, the largest relative change
against the committed file.
"""

import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "shipped_oracle.json"
WIDTH = 0.01


def snapshot(exp) -> dict:
    """The reference record of one config's oracle run."""
    from elicit.cli import _oracle_solutions

    names = ("meshgrid", "configured", "grid_start")
    return {
        name: {"theta_star": [float(t) for t in sol.theta_star], "loss": float(sol.loss)}
        for name, sol in zip(names, _oracle_solutions(exp, WIDTH))
    }


def test_shipped_oracle_answers_match_reference(shipped_sweeps):
    reference = json.loads(DATA.read_text())
    assert sorted(reference) == sorted(shipped_sweeps)
    for name, (exp, _) in shipped_sweeps.items():
        assert snapshot(exp) == reference[name], name


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import load_shipped_configs, print_moves

    from elicit.config import resolve

    out = {name: snapshot(resolve(cfg)) for name, cfg in load_shipped_configs()}
    print_moves(json.loads(DATA.read_text()) if DATA.exists() else {}, out)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {DATA} ({len(out)} configs)")
