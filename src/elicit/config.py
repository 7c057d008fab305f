"""Experiment configuration: JSON schema, validation, and resolution.

A config is a single JSON document.  It is schema-validated before any
computation; validation errors name the offending key.  ``resolve``
materializes the runtime objects (model, link, empirical moments, sweep
spec) and returns the fully-defaulted config dict for the manifest.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import distmodels, links, losses
from .errors import ConfigError
from .optimize import METHODS, OptimizerConfig
from .sweep import DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_POINTS, SweepSpec, default_grid

_SUB_LOSS_SCHEMA = {
    "oneOf": [
        {"const": "squared"},
        {
            "type": "object",
            "properties": {
                "kind": {"const": "asymmetric_squared"},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "b": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind", "a", "b"],
            "additionalProperties": False,
        },
    ]
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "name": {"enum": list(distmodels.MODEL_NAMES)},
                "fixed_params": {"type": "array", "items": {"type": "number"}},
            },
            "required": ["name"],
            "additionalProperties": False,
        },
        "template": {
            "type": "object",
            "properties": {
                "name": {"enum": list(distmodels.TEMPLATE_NAMES)},
                "params": {"type": "array", "items": {"type": "number"}},
                "n_samples": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
            "required": ["name", "params", "seed"],
            "additionalProperties": False,
        },
        "analytic": {
            "type": "object",
            "properties": {
                "name": {"enum": list(distmodels.MODEL_NAMES)},
                "fixed_params": {"type": "array", "items": {"type": "number"}},
                "params": {"type": "array", "items": {"type": "number"}},
                "perturb": {"type": "array", "items": {"type": "number"}},
            },
            "required": ["name", "params"],
            "additionalProperties": False,
        },
        "link": {"enum": list(links.LINK_NAMES)},
        "sub_losses": {"type": "array", "items": _SUB_LOSS_SCHEMA},
        "base_weights": {"enum": ["ones", "rhat_squared"]},
        "sweep": {
            "type": "object",
            "properties": {
                "index": {"type": "integer", "minimum": 1},
                "fixed_weights": {"type": "array", "items": {"type": "number", "minimum": 0}},
                "grid": {
                    "type": "object",
                    "properties": {
                        "num_points": {"type": "integer", "minimum": 2},
                        "lo": {"type": "number", "exclusiveMinimum": 0},
                        "hi": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "additionalProperties": False,
                },
            },
            "required": ["index"],
            "additionalProperties": False,
        },
        "optimizer": {
            "type": "object",
            "properties": {
                "method": {"enum": list(METHODS)},
                "max_iters": {"type": "integer", "minimum": 1},
                "tol_loss": {"type": "number", "exclusiveMinimum": 0},
                "tol_step": {"type": "number", "exclusiveMinimum": 0},
                "multistart": {"type": "integer", "minimum": 0},
                "init": {
                    "oneOf": [
                        {"enum": ["moment_match"]},
                        {"type": "array", "items": {"type": "number"}},
                    ]
                },
                "seed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "output": {"type": "string"},
    },
    "required": ["model", "link", "sweep", "output"],
    "additionalProperties": False,
}

_OPTIMIZER_DEFAULTS = {f.name: f.default for f in dataclasses.fields(OptimizerConfig)}

_TEMPLATE_N_DEFAULT = 1000


@dataclass
class Experiment:
    """Everything cmd_run needs, resolved from a validated config."""

    model: distmodels.ParametricModel
    link: links.LinkFunction
    em: losses.EmpiricalMoments
    spec: SweepSpec
    resolved: dict
    output: Path


def load_config(path) -> dict:
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return cfg


def validate_config(cfg: dict) -> None:
    validator = Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ConfigError(f"config key {e.json_path}: {e.message}")
    if ("template" in cfg) == ("analytic" in cfg):
        raise ConfigError("config key $: exactly one of 'template' or 'analytic' is required")


def _resolve_kinds(entries, M):
    if entries is None:
        entries = ["squared"] * M
    if len(entries) != M:
        raise ConfigError(f"config key $.sub_losses: expected {M} entries, got {len(entries)}")
    kinds = []
    for e in entries:
        if e == "squared":
            kinds.append(losses.SquaredLoss())
        else:
            kinds.append(losses.AsymmetricSquaredLoss(a=e["a"], b=e["b"]))
    return tuple(kinds)


def resolve(cfg: dict, base_dir: Path | None = None) -> Experiment:
    """Validate and materialize a config; returns runtime objects and the
    fully-defaulted config for the manifest."""
    validate_config(cfg)

    model = distmodels.make_model(
        cfg["model"]["name"], cfg["model"].get("fixed_params", ())
    )
    link = links.make_link(cfg["link"])
    M = link.moment_order
    if model.moment_order != M:
        raise ConfigError(
            f"config key $.link: link {link.name!r} needs {M} moments but model "
            f"{model.name!r} provides {model.moment_order}"
        )

    resolved = {
        "model": {
            "name": model.name,
            "fixed_params": list(model.fixed_params),
        },
        "link": link.name,
    }

    if "template" in cfg:
        t = cfg["template"]
        template = distmodels.SamplingTemplate(
            name=t["name"],
            params=tuple(t["params"]),
            n_samples=int(t.get("n_samples", _TEMPLATE_N_DEFAULT)),
            seed=int(t["seed"]),
        )
        samples = distmodels.sample(template)
        em = losses.empirical_moments(
            samples,
            M,
            provenance={
                "template": {
                    "name": template.name,
                    "params": list(template.params),
                    "n_samples": template.n_samples,
                    "seed": template.seed,
                }
            },
        )
        resolved["template"] = em.provenance["template"]
    else:
        a = cfg["analytic"]
        src = distmodels.make_model(a["name"], a.get("fixed_params", ()))
        em = losses.analytic_moments(src, a["params"], perturb=a.get("perturb"))
        resolved["analytic"] = em.provenance["analytic"]

    kinds = _resolve_kinds(cfg.get("sub_losses"), M)
    resolved["sub_losses"] = [
        "squared" if k.kind == "squared" else {"kind": k.kind, "a": k.a, "b": k.b}
        for k in kinds
    ]

    base_setting = cfg.get("base_weights", "ones")
    k = losses.resolve_base_weights(base_setting, em)
    resolved["base_weights"] = base_setting

    sw = cfg["sweep"]
    index = int(sw["index"])
    if not 1 <= index <= M:
        raise ConfigError(f"config key $.sweep.index: must be between 1 and {M}")
    fixed = sw.get("fixed_weights", [1.0] * M)
    if len(fixed) != M:
        raise ConfigError(f"config key $.sweep.fixed_weights: expected {M} entries")
    grid_cfg = sw.get("grid", {})
    grid = default_grid(
        num_points=int(grid_cfg.get("num_points", DEFAULT_GRID_POINTS)),
        lo=float(grid_cfg.get("lo", DEFAULT_GRID_LO)),
        hi=float(grid_cfg.get("hi", DEFAULT_GRID_HI)),
    )
    resolved["sweep"] = {
        "index": index,
        "fixed_weights": [float(x) for x in fixed],
        "grid": {
            "num_points": len(grid),
            "lo": float(grid[0]),
            "hi": float(grid[-1]),
        },
    }

    opt_cfg = dict(_OPTIMIZER_DEFAULTS)
    opt_cfg.update(cfg.get("optimizer", {}))
    init = opt_cfg["init"]
    optimizer = OptimizerConfig(
        method=opt_cfg["method"],
        max_iters=int(opt_cfg["max_iters"]),
        tol_loss=float(opt_cfg["tol_loss"]),
        tol_step=float(opt_cfg["tol_step"]),
        multistart=int(opt_cfg["multistart"]),
        init=tuple(init) if isinstance(init, list) else init,
        seed=int(opt_cfg["seed"]),
    )
    resolved["optimizer"] = {
        **opt_cfg,
        "init": list(init) if isinstance(init, (list, tuple)) else init,
    }

    spec = SweepSpec(
        model=model,
        link=link,
        em=em,
        index=index - 1,
        fixed_c=np.asarray(fixed, dtype=float),
        k=k,
        grid=grid,
        kinds=kinds,
        optimizer=optimizer,
    )

    out = Path(cfg["output"])
    if base_dir is not None and not out.is_absolute():
        out = Path(base_dir) / out
    resolved["output"] = str(cfg["output"])
    resolved["prng"] = {
        "algorithm": distmodels.PRNG_ALGORITHM,
        "substream": distmodels.PRNG_SUBSTREAM,
    }
    return Experiment(model=model, link=link, em=em, spec=spec, resolved=resolved, output=out)
