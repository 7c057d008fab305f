import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from elicit import cli, profile, verify
from elicit.cli import _oracle_solutions, main
from elicit.config import load_config, resolve
from elicit.errors import ElicitError
from elicit.optimize import minimize

from conftest import DIAGNOSTIC_CONFIG_DIR, REPO_ROOT, SWEEP_CONFIG_DIR

# Every shipped config runs warning-free, and so must every rejection.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def write_config(tmp_path, name="exp", **overrides):
    cfg = {
        "model": {"name": "poisson", "fixed_params": []},
        "analytic": {"name": "poisson", "params": [3.0], "perturb": [0.0, 3.0]},
        "link": "variance",
        "sweep": {"index": 1, "grid": {"num_points": 9}},
        "optimizer": {"multistart": 2},
        "output": str(tmp_path / "out" / name),
    }
    cfg.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["output"])


DROP = object()
TEMPLATE = {"name": "normal", "params": [10, 10], "n_samples": 1000, "seed": 17}
SAMPLED = {"analytic": DROP, "template": TEMPLATE}  # a template in place of the analytic source
# A lognormal skewness sweep on exact moments.
SKEW = {"model.name": "lognormal", "link": "skewness", "analytic.name": "lognormal",
        "analytic.params": [0.0, 1.0], "analytic.perturb": DROP}


def _template(name, *params):
    return {**SAMPLED, "template.name": name, "template.params": list(params)}


def _asym(**entry):
    return {"sub_losses": [{"kind": "asymmetric_squared", **entry}, "squared"]}


# (edits by dotted key, the key or bad value that the error must name).  The
# structure and value rules of the config format, one violation each, then
# non-finite numbers and lengths that once ran or escaped as tracebacks.
BAD_CONFIGS = [
    # unknown keys
    ({"typo_key": 1}, "typo_key"),
    ({"model.extra": 1}, "extra"),
    ({**SAMPLED, "template.extra": 1}, "extra"),
    ({"analytic.extra": 1}, "extra"),
    ({"sweep.extra": 1}, "extra"),
    ({"sweep.grid.extra": 1}, "extra"),
    ({"optimizer.extra": 1}, "extra"),
    (_asym(a=1, b=2, c=3), "sub_losses"),
    # missing keys
    ({"model": DROP}, "model"),
    ({"link": DROP}, "link"),
    ({"sweep": DROP}, "sweep"),
    ({"output": DROP}, "output"),
    ({"model.name": DROP}, "name"),
    ({**SAMPLED, "template.name": DROP}, "name"),
    ({**SAMPLED, "template.params": DROP}, "params"),
    ({**SAMPLED, "template.seed": DROP}, "seed"),
    ({"analytic.name": DROP}, "name"),
    ({"analytic.params": DROP}, "params"),
    ({"sweep.index": DROP}, "index"),
    (_asym(a=1), "sub_losses"),
    ({"analytic": DROP}, "analytic"),
    # wrong types
    ({"model": "poisson"}, "model"),
    ({"model.fixed_params": 3}, "fixed_params"),
    ({"model.fixed_params": ["3"]}, "fixed_params"),
    ({"analytic.params": [3, "x"]}, "params"),
    ({"link": 2}, "link"),
    ({"sweep.index": "1"}, "index"),
    ({"sweep.index": 1.5}, "index"),
    ({"sweep.grid": [9]}, "grid"),
    ({"optimizer.max_iters": 10.5}, "max_iters"),
    ({"optimizer.tol_loss": "small"}, "tol_loss"),
    ({"output": 5}, "output"),
    ({"sub_losses": "squared"}, "sub_losses"),
    # booleans are not numbers
    ({"sweep.index": True}, "index"),
    ({"optimizer.multistart": True}, "multistart"),
    ({"optimizer.tol_step": True}, "tol_step"),
    ({"sweep.fixed_weights": [1.0, True]}, "fixed_weights"),
    ({**SAMPLED, "template.seed": False}, "seed"),
    # names
    ({"model.name": "nope"}, "nope"),
    ({**SAMPLED, "template.name": "nope"}, "nope"),
    ({"analytic.name": "nope"}, "nope"),
    ({"link": "nope"}, "nope"),
    ({"base_weights": "nope"}, "nope"),
    ({"optimizer.method": "nope"}, "nope"),
    # lower bounds
    ({**SAMPLED, "template.n_samples": 0}, "n_samples"),
    ({**SAMPLED, "template.seed": -1}, "seed"),
    ({"sweep.index": 0}, "index"),
    ({"sweep.fixed_weights": [1.0, -1.0]}, "-1.0"),
    ({"sweep.fixed_weights": [-2.0, 1.0]}, "-2.0"),  # the swept entry, unused but checked
    ({"sweep.grid.num_points": 1}, "num_points"),
    ({"sweep.grid.lo": 0}, "lo"),
    ({"sweep.grid.hi": -1}, "hi"),
    ({"optimizer.max_iters": 0}, "max_iters"),
    ({"optimizer.tol_loss": 0}, "tol_loss"),
    ({"optimizer.tol_step": -1e-10}, "tol_step"),
    ({"optimizer.multistart": -1}, "multistart"),
    ({"optimizer.seed": -1}, "seed"),
    (_asym(a=0, b=1), "a"),
    (_asym(a=1, b=-2), "b"),
    # init and sub-losses: a name or numbers, a name or an object
    ({"optimizer.init": "random"}, "random"),
    ({"optimizer.init": 3.0}, "init"),
    ({"optimizer.init": ["x"]}, "init"),
    ({"sub_losses": ["cubic", "squared"]}, "cubic"),
    (_asym(kind="cubic", a=1, b=1), "cubic"),
    ({"sub_losses": [1, "squared"]}, "sub_losses"),
    # exactly one of template and analytic
    ({"template": TEMPLATE}, "template"),
    # non-finite numbers
    ({"optimizer.tol_loss": math.nan}, "tol_loss"),
    ({"optimizer.tol_loss": math.inf}, "tol_loss"),
    (_asym(a=math.nan, b=1), "a"),
    ({"sweep.grid.hi": math.inf}, "hi"),
    ({"sweep.grid.lo": math.nan}, "lo"),
    ({"sweep.fixed_weights": [1.0, math.nan]}, "nan"),
    ({"optimizer.init": [math.nan]}, "init"),
    # lengths and ranges that once escaped as tracebacks
    ({"optimizer.init": [1.0, 2.0]}, "init"),
    ({"analytic.params": [3.0, 1.0]}, "[3.0, 1.0]"),
    ({"analytic.perturb": [0.0]}, "perturb"),
    ({"optimizer.seed": 2**64}, "seed"),
    # rules that tie the sweep's parts together, and rules on its inputs
    ({**SKEW, "sweep.fixed_weights": [1.0, math.inf, math.inf]}, "infinite"),
    ({"sweep.fixed_weights": [1.0, math.inf]}, "infinite"),  # two at the c = inf endpoint
    ({"analytic.name": "lognormal", "analytic.params": [0.0, 1.0], "analytic.perturb": DROP},
     "moment order"),
    ({**SKEW, "analytic.params": [0.0, 100.0], "base_weights": "rhat_squared"}, "m_hat[2]"),
    ({"sweep.fixed_weights": [1.0]}, "fixed weights"),
    ({"sub_losses": ["squared"]}, "sub-losses"),
    (_template("beta2", 1.0, -1.0), "a > 0 and b > 0"),
    (_template("binomial_fixed_trials", 10.0, 1.5), "K >= 1 and 0 <= p <= 1"),
    (_template("chisq", 0.0), "dof > 0"),
    (_template("exponential", -1.0), "mean > 0"),
    (_template("gamma2", 0.0, 1.0), "shape > 0 and scale > 0"),
    (_template("gamma_fixed_shape", 2.0, -1.0), "K > 0 and scale > 0"),
    (_template("loglogistic", -1.0, 4.0), "a > 0 and b > 0"),
    (_template("lognormal", 0.0, -1.0), "v2 >= 0"),
    (_template("poisson", -1.0), "mean >= 0"),
    (_template("normal", 0.0, -1.0), "variance >= 0"),
    (_template("abs_normal", 0.0, -1.0), "variance >= 0"),
    (_template("sum_lognormal", 0.0, 1.0, 0.0, -1.0), "every v2_j >= 0"),
]


def write_edited_config(tmp_path, edits):
    cfg = json.loads(write_config(tmp_path)[0].read_text())
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = cfg
        for parent in parents:
            node = node.setdefault(parent, {})
        if value is DROP:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_writes_outputs(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        assert (out / "curve.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "report.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        first = (out / "curve.csv").read_bytes()
        assert main(["run", str(cfg_path)]) == 0
        assert (out / "curve.csv").read_bytes() == first

    def test_csv_format(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        main(["run", str(cfg_path)])
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == (
            "c_value,theta_1,r_1,r_2,gamma,total_loss,sub_loss_1,sub_loss_2,converged"
        )
        assert len(lines) == 1 + 9 + 2
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[-1] == "true"
        last = lines[-1].split(",")
        assert last[0] == "inf"
        # round-trip float formatting
        gamma = float(last[4])
        assert gamma == pytest.approx(3.0, abs=1e-6)
        for field in last[1:-1]:
            assert math.isfinite(float(field))

    def test_manifest_echoes_defaults_and_prng(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        main(["run", str(cfg_path)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["optimizer"]["method"] == "profile"
        assert manifest["optimizer"]["tol_loss"] == 1e-12
        assert manifest["base_weights"] == "ones"
        assert manifest["sweep"]["fixed_weights"] == [1.0, 1.0]
        assert "Philox" in manifest["prng"]["algorithm"]

    def test_report_contents(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        main(["run", str(cfg_path)])
        report = json.loads((out / "report.json").read_text())
        assert report["monotonicity"]["direction"] == "decreasing"
        assert report["best_weight"]["kind"] == "zero"
        assert report["classification_2d"]["case"] == "b"
        check_names = {c["name"] for c in report["checks"]}
        assert {"one_sided_containment", "link_monotone_along_trajectory"} <= check_names

    def test_mismatched_link_and_model(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, link="skewness")
        assert main(["run", str(cfg_path)]) == 1
        assert "link" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, typo_key=1)
        assert main(["run", str(cfg_path)]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 1

    def test_failure_rate_exits_2(self, tmp_path):
        # A 2-parameter sweep: a 1-parameter one is solved exactly, without iterations.
        cfg_path, out = write_config(
            tmp_path, model={"name": "lognormal", "fixed_params": []}, link="skewness",
            analytic={"name": "lognormal", "params": [0.3, 1.2], "perturb": [0.1, 0.5, 4.0]},
            optimizer={"method": "nelder_mead", "multistart": 0, "max_iters": 1}
        )
        assert main(["run", str(cfg_path)]) == 2
        assert (out / "curve.csv").exists()  # outputs still written

    def test_optima_at_the_open_end_converge_without_iterations(self, tmp_path):
        # A normal(-1, 1) sample puts m_hat_1 below the exponential's image,
        # and from c_1 = 1.995 up the loss is least as theta -> 0.  Those 19
        # points once ran the iterative solve to max_iters, and the run exited 2.
        # The c_1 = inf constraint r_1 = m_hat_1 < 0 lands on the same end: 20.
        cfg = json.loads((SWEEP_CONFIG_DIR / "var-exponential.json").read_text())
        cfg["template"]["params"] = [-1, 1]
        cfg["output"] = str(tmp_path / "out")
        path = tmp_path / "var-exponential-negative-mean.json"
        path.write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        assert main(["run", str(path)]) == 0
        assert time.perf_counter() - t0 < 0.5
        with (tmp_path / "out" / "curve.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 43 and all(row["converged"] == "true" for row in rows)
        at_end = [float(row["c_value"]) for row in rows
                  if float(row["theta_1"]) == math.exp(-700.0)]
        assert len(at_end) == 20 and min(at_end) == pytest.approx(1.995, abs=1e-3)
        assert at_end[-1] == math.inf

    @pytest.mark.parametrize("theta0, perturb, end, case, best", [
        (0.9, [12.0, 0.0], 1.0, "a", "infinity"),
        (0.1, [-2.0, 0.0], 0.0, "b", "zero"),
    ])
    def test_binomial_flip_sweeps_onto_a_closed_end(self, tmp_path, theta0, perturb, end, case,
                                                    best):
        # The paper's direction flip, B(10, theta0) on either side of 1/2, with
        # m_hat_1 pushed past the image: the c_1 = inf constraint lands on the
        # closed end p = 1 or p = 0, which classifies like any other point.
        # These runs once exited 1 with curve.csv and manifest.json written.
        binomial = {"name": "binomial_fixed_trials", "fixed_params": [10]}
        cfg_path, out = write_config(
            tmp_path, model=binomial, analytic={**binomial, "params": [theta0], "perturb": perturb},
            sweep={"index": 1, "fixed_weights": [1.0, 1.0]})
        assert main(["run", str(cfg_path)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["curve.csv", "manifest.json",
                                                         "report.json"]
        report = json.loads((out / "report.json").read_text())
        assert report["classification_2d"]["case"] == case
        assert report["best_weight"]["kind"] == best
        last = (out / "curve.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "inf" and float(last[1]) == end

    def test_failing_report_writes_no_file(self, tmp_path, monkeypatch, capsys):
        def fail(exp, curve):
            raise ElicitError("report failed")

        monkeypatch.setattr(cli, "_report", fail)
        cfg_path, out = write_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 1
        assert "report failed" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_effective_weight_rejected_before_writing(self, tmp_path, capsys):
        # k_1 = m_hat_1^2 = 1e-10, so the finite c_1 = 1e300 has c_1 / k_1 = inf.
        cfg_path, _ = write_config(
            tmp_path, analytic={"name": "poisson", "params": [1e-5]},
            base_weights="rhat_squared", sweep={"index": 2, "fixed_weights": [1e300, 1.0]})
        assert main(["run", str(cfg_path)]) == 1
        assert "finite weight c[0] = 1e+300 over k[0] = 1.0000000000000002e-10 overflows" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_non_finite_moments_rejected_before_writing(self, tmp_path, capsys):
        # X^3 overflows for a lognormal sample with log-variance 1e4.
        cfg = json.loads((SWEEP_CONFIG_DIR / "skew-lognormal.json").read_text())
        cfg["template"] = {"name": "lognormal", "params": [0, 10000], "n_samples": 1000,
                           "seed": 17}
        cfg["output"] = str(tmp_path / "out")
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("template", [
        {"name": "binomial_fixed_trials", "params": [10.5, 0.9]},
        {"name": "normal", "params": [10, math.nan]},
        {"name": "normal", "params": []},
        {"name": "normal", "params": [9.0]},
        {"name": "normal", "params": [9.0, 0.9, 1.0]},
    ])
    def test_bad_template_params_rejected_before_writing(self, tmp_path, capsys, template):
        # A fractional number of trials was once truncated to B(10, 0.9), and
        # "params": [] escaped as an IndexError traceback from sampling.
        cfg = json.loads((SWEEP_CONFIG_DIR / "var-binomial-hi.json").read_text())
        cfg["template"] = {**template, "n_samples": 1000, "seed": 17}
        cfg["output"] = str(tmp_path / "out")
        path = tmp_path / "bad-template.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: template {template['name']!r}") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", [
        {"name": "poisson", "fixed_params": [3.0]},
        {"name": "gamma_fixed_shape", "fixed_params": []},
        {"name": "binomial_fixed_trials", "fixed_params": [10, 0.5]},
    ])
    def test_wrong_fixed_param_count_exits_1(self, tmp_path, capsys, model):
        # Extra params were once ignored and written to manifest.json.
        cfg_path, out = write_config(tmp_path, model=model)
        assert main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {model['name']}: fixed_params must be")
        assert not out.exists()

    @pytest.mark.parametrize("edits,named", BAD_CONFIGS,
                             ids=[f"{i}-{named}" for i, (_, named) in enumerate(BAD_CONFIGS)])
    def test_bad_config_exits_1_before_writing(self, tmp_path, capsys, edits, named):
        assert main(["run", str(write_edited_config(tmp_path, edits))]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(rf"(?<!\w){re.escape(named)}(?!\w)", err), err
        assert not (tmp_path / "out").exists()

    def test_integral_floats_count_as_integers(self, tmp_path):
        edits = {**SAMPLED, "template.n_samples": 1000.0, "template.seed": 17.0, "sweep.index": 1.0,
                 "sweep.grid.num_points": 9.0, "optimizer.seed": 3.0}
        assert main(["run", str(write_edited_config(tmp_path, edits))]) == 0


class TestClassify:
    def test_poisson_case_b(self, capsys):
        code = main(["classify", "--model", "poisson", "--link", "variance",
                     "--interval", "0.5,20"])
        assert code == 0
        assert "case b" in capsys.readouterr().out

    def test_binomial_mixed(self, capsys):
        code = main(["classify", "--model", "binomial_fixed_trials",
                     "--fixed-params", "10", "--link", "variance",
                     "--interval", "0.5,9.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mixed" in out and "5" in out

    def test_expect_uniform_exit_3(self):
        code = main(["classify", "--model", "binomial_fixed_trials",
                     "--fixed-params", "10", "--link", "variance",
                     "--interval", "0.5,9.5", "--expect-uniform"])
        assert code == 3

    def test_gamma_fixed_shape(self, capsys):
        code = main(["classify", "--model", "gamma_fixed_shape", "--fixed-params", "2",
                     "--link", "variance", "--interval", "0.5,20"])
        assert code == 0
        assert "case b" in capsys.readouterr().out

    def test_bad_interval(self):
        assert main(["classify", "--model", "poisson", "--link", "variance",
                     "--interval", "oops"]) == 1

    def test_unknown_option(self):
        assert main(["classify", "--nonsense"]) == 1

    def test_three_moment_link_exits_1(self, capsys):
        assert main(["classify", "--model", "poisson", "--link", "skewness",
                     "--interval", "0.5,20"]) == 1
        assert "two-moment link" in capsys.readouterr().err


class TestOracle:
    def test_poisson_dominance(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["oracle", str(cfg_path), "--width", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "meshgrid" in out and "matches or beats" in out

    def test_width_larger_than_box(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["oracle", str(cfg_path), "--width", "50"]) == 1

    def test_nan_width_exits_1(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["oracle", str(cfg_path), "--width", "nan"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["skew-lognormal", "skew-gamma2"])
    def test_one_profile_solve_per_run(self, monkeypatch, capsys, name):
        # The profile takes no start, so the oracle solves once and logs one answer.
        cfg_path = SWEEP_CONFIG_DIR / f"{name}.json"
        exp = resolve(load_config(cfg_path))
        rows = []
        solve = profile.solve

        def counted(model, em, kinds, eff, held):
            rows.append(len(eff))
            return solve(model, em, kinds, eff, held)

        monkeypatch.setattr(profile, "solve", counted)
        assert main(["oracle", str(cfg_path), "--width", "0.01"]) == 0
        assert rows == [1]
        printed = capsys.readouterr().out
        grid, configured, grid_start = _oracle_solutions(exp, 0.01)
        monkeypatch.undo()

        alone = minimize(exp.model, exp.spec.weights_at(1.0), exp.em, exp.spec.kinds,
                         exp.spec.optimizer)
        assert grid_start is configured
        assert np.array_equal(configured.theta_star, alone.theta_star)
        assert configured.loss == alone.loss <= grid.loss
        answer, meshgrid = printed.splitlines()[:2]
        assert answer.startswith("configured start") and f"loss = {alone.loss:.6e}" in answer
        assert meshgrid.startswith("meshgrid") and "grid-minimum start" not in printed

    def test_sensitivity_config_logs_two_gammas(self, capsys):
        code = main(["oracle", str(DIAGNOSTIC_CONFIG_DIR / "sensitivity-lognormal.json"),
                     "--width", "0.1"])
        out = capsys.readouterr().out
        gammas = [float(line.split("gamma = ")[1]) for line in out.splitlines()
                  if "gamma = " in line]
        assert len(gammas) == 2
        # gradient descent with unit base weights: start-dependent results
        assert abs(gammas[0] - gammas[1]) / max(abs(g) for g in gammas) > 0.5
        assert code in (0, 2)


class TestVerify:
    def test_logmap_suite(self, capsys):
        assert main(["verify", "logmap"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pass"] is True
        assert summary["suite"] == "logmap"

    def test_unknown_suite(self):
        assert main(["verify", "nonsense"]) == 1

    def test_error_inside_suite_propagates(self, monkeypatch):
        def broken():
            raise KeyError("inside the suite")

        monkeypatch.setitem(verify.SUITES, "logmap", broken)
        with pytest.raises(KeyError, match="inside the suite"):
            main(["verify", "logmap"])

    @pytest.mark.parametrize("name", verify.SUITE_NAMES)
    def test_every_suite_passes(self, capsys, name):
        assert main(["verify", name]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_identities_suite(self, capsys):
        assert main(["verify", "identities"]) == 0
        summary = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in summary["checks"]}
        assert "lognormal_skewness_identity" in names


class TestShippedConfigs:
    def test_all_shipped_configs_validate(self):
        from elicit.config import load_config, validate_config

        paths = sorted(SWEEP_CONFIG_DIR.glob("*.json")) + sorted(
            DIAGNOSTIC_CONFIG_DIR.glob("*.json")
        )
        assert len(paths) >= 9
        for p in paths:
            validate_config(load_config(p))


class TestCommittedOutputs:
    @pytest.mark.parametrize("name", ["var-poisson", "skew-lognormal"])
    def test_rerun_matches_committed_out(self, tmp_path, name):
        cfg = json.loads((SWEEP_CONFIG_DIR / f"{name}.json").read_text())
        cfg["output"] = str(tmp_path / name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
        for fname in ("curve.csv", "report.json"):
            committed = (REPO_ROOT / "out" / name / fname).read_bytes()
            assert (tmp_path / name / fname).read_bytes() == committed, fname
        # The manifest matches in every key but the output directory, in order.
        committed, ours = (json.loads((d / name / "manifest.json").read_text())
                           for d in (REPO_ROOT / "out", tmp_path))
        assert committed.pop("output") == f"out/{name}"
        assert ours.pop("output") == str(tmp_path / name)
        assert json.dumps(ours) == json.dumps(committed)


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    # Each costs a large share of the interpreter start-up; scipy.special
    # covers the inverse CDFs, distmodels.newton_in_bracket the 1-D roots, and the
    # config's key table and the objects built from it the validation.
    code = ("import sys, elicit.cli; print(sorted("
            "{'scipy.stats', 'scipy.optimize', 'jsonschema'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_runs_without_scipy_special_leave_it_unloaded(tmp_path):
    # scipy.special (with numpy.f2py behind it) is most of the start-up; only
    # templates that invert an incomplete gamma or beta function load it.
    paths = []
    for name in ("var-poisson", "var-binomial-hi", "skew-lognormal"):
        cfg = json.loads((SWEEP_CONFIG_DIR / f"{name}.json").read_text())
        cfg["output"] = str(tmp_path / name)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    code = """
import sys
import elicit.cli
from elicit.config import load_config, resolve
def loaded(step):
    print(step, *[m for m in ("scipy.special", "numpy.f2py") if m in sys.modules])
loaded("import")
for path in sys.argv[1:-1]:
    if elicit.cli.main(["run", path]) != 0:
        sys.exit(1)
    loaded("run")
resolve(load_config(sys.argv[-1]))
loaded("gamma2")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *map(str, paths),
                           str(SWEEP_CONFIG_DIR / "skew-gamma2.json")],
                          env=env, capture_output=True, text=True, check=True)
    steps = [line.split() for line in done.stdout.splitlines() if not line.startswith("wrote")]
    assert steps[:4] == [["import"], ["run"], ["run"], ["run"]]
    assert steps[4][:2] == ["gamma2", "scipy.special"]
