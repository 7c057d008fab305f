"""Experiment configuration: the key table, validation, and resolution.

A config is a single JSON document.  ``CONFIG_KEYS`` is its format
reference: every object's keys, their JSON types and which are required.
``validate_config`` checks that structure and names the offending key.
``resolve`` then builds the runtime objects (model, link, empirical moments,
sweep spec), and those objects check the values: names, signs, ranges,
finiteness and lengths, each raising a named ElicitError before any
computation.  It returns them with the fully-defaulted config dict for the
manifest.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import distmodels, links, losses
from .errors import ConfigError
from .optimize import OptimizerConfig
from .sweep import DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_POINTS, SweepSpec, default_grid

# The config format: each object's keys as key -> (JSON type, required).  A
# type is "string", "number" or "integer", a one-item list for an array of
# that type, a dict for a nested object, or a tuple of alternatives that
# differ in their outer type.
_NUMBERS = ["number"]
_MODEL_KEYS = {"name": ("string", True), "fixed_params": (_NUMBERS, False)}
_SUB_LOSS_KEYS = {"kind": ("string", True), "a": ("number", True), "b": ("number", True)}
CONFIG_KEYS = {
    "model": (_MODEL_KEYS, True),
    "template": ({"name": ("string", True), "params": (_NUMBERS, True),
                  "n_samples": ("integer", False), "seed": ("integer", True)}, False),
    "analytic": ({**_MODEL_KEYS, "params": (_NUMBERS, True), "perturb": (_NUMBERS, False)},
                 False),
    "link": ("string", True),
    "sub_losses": ([("string", _SUB_LOSS_KEYS)], False),
    "base_weights": ("string", False),
    "sweep": ({"index": ("integer", True), "fixed_weights": (_NUMBERS, False),
               "grid": ({"num_points": ("integer", False), "lo": ("number", False),
                         "hi": ("number", False)}, False)}, True),
    "optimizer": ({"method": ("string", False), "max_iters": ("integer", False),
                   "tol_loss": ("number", False), "tol_step": ("number", False),
                   "multistart": ("integer", False), "init": (("string", _NUMBERS), False),
                   "seed": ("integer", False)}, False),
    "output": ("string", True),
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


def _has_type(value, kind) -> bool:
    """Whether value has the outer JSON type of kind; a boolean is never a number."""
    if isinstance(kind, (dict, list)):
        return isinstance(value, type(kind))
    if kind == "string":
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return kind == "number" or isinstance(value, int) or value.is_integer()


def _check(value, kind, path: str) -> None:
    """Raise a ConfigError at the first place where value does not fit kind."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    kind = next((k for k in kinds if _has_type(value, k)), None)
    if kind is None:
        names = " or ".join({dict: "object", list: "array"}.get(type(k), k) for k in kinds)
        raise ConfigError(f"config key {path}: expected {names}, got {value!r}")
    if isinstance(kind, list):
        for i, item in enumerate(value):
            _check(item, kind[0], f"{path}[{i}]")
    elif isinstance(kind, dict):
        for key in value:
            if key not in kind:
                raise ConfigError(f"config key {path}: unknown key {key!r}")
        for key, (sub, required) in kind.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}")
            elif required:
                raise ConfigError(f"config key {path}: missing required key {key!r}")


def validate_config(cfg: dict) -> None:
    """Check the structure of cfg against CONFIG_KEYS; the values are checked
    by the objects that ``resolve`` builds from them."""
    _check(cfg, CONFIG_KEYS, "$")
    if ("template" in cfg) == ("analytic" in cfg):
        raise ConfigError("config key $: exactly one of 'template' or 'analytic' is required")


def _resolve_kinds(entries, M):
    if entries is None:
        entries = ["squared"] * M
    if len(entries) != M:
        raise ConfigError(f"config key $.sub_losses: expected {M} entries, got {len(entries)}")
    kinds = []
    for i, e in enumerate(entries):
        if e == "squared":
            kinds.append(losses.SquaredLoss())
        elif isinstance(e, dict) and e["kind"] == "asymmetric_squared":
            kinds.append(losses.AsymmetricSquaredLoss(a=e["a"], b=e["b"]))
        else:
            raise ConfigError(f"config key $.sub_losses[{i}]: unknown sub-loss {e!r}; "
                              "expected 'squared' or an asymmetric_squared object")
    return tuple(kinds)


def resolve(cfg: dict) -> Experiment:
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
    resolved["optimizer"] = opt_cfg

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
    resolved["output"] = str(cfg["output"])
    resolved["prng"] = {
        "algorithm": distmodels.PRNG_ALGORITHM,
        "substream": distmodels.PRNG_SUBSTREAM,
    }
    return Experiment(model=model, link=link, em=em, spec=spec, resolved=resolved, output=out)
