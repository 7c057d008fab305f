"""Spans and counters around the public entry points of each elicit layer.

``Tracer.install()`` replaces each traced function with a wrapper in every
``elicit`` module (and on ``ParametricModel``) that holds it, so a call is
timed whichever module it is made from.  ``Tracer.remove()`` puts the
originals back.  Spans stay in memory as flat arrays: name, parent span,
operation id, start and end.  Counters are kept at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (layer name, module holding the original, attribute).  Wrappers go on every
# elicit module attribute that is the same object, e.g. cli.minimize.
ENTRY_POINTS = [
    ("config.resolve", "elicit.config", "resolve"),
    ("distmodels.sample", "elicit.distmodels", "sample"),
    ("losses.empirical_moments", "elicit.losses", "empirical_moments"),
    ("optimize.minimize", "elicit.optimize", "minimize"),
    ("optimize.meshgrid_oracle", "elicit.optimize", "meshgrid_oracle"),
    ("sweep.run_sweep", "elicit.sweep", "run_sweep"),
    ("sweep.best_weight", "elicit.sweep", "best_weight"),
    ("links.link_value", "elicit.links", "link_value"),
    ("theory.check_condition_A", "elicit.theory", "check_condition_A"),
    ("theory.check_condition_B", "elicit.theory", "check_condition_B"),
    ("theory.classify_2d_case", "elicit.theory", "classify_2d_case"),
    ("theory.check_linear_trajectory", "elicit.theory", "check_linear_trajectory"),
    ("cli.main", "elicit.cli", "main"),
]
MODEL_METHODS = [
    ("distmodels.moments", "moments"),
    ("distmodels.moments_grid", "moments_grid"),
    ("distmodels.moment_jacobian", "moment_jacobian"),
]
THEORY_CHECKS = [name for name, _, _ in ENTRY_POINTS if name.startswith("theory.")]

MARKER = "_bench_traced"


def _elicit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "elicit" or name.startswith("elicit."))]


def _model_classes():
    from elicit.distmodels import ParametricModel

    classes, todo = [], [ParametricModel]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return classes


def leaked_wrappers() -> list[str]:
    """Names of traced wrappers still reachable from elicit; empty when clean."""
    owners = _elicit_modules() + _model_classes()
    return [
        f"{getattr(o, '__name__', o)}.{attr}"
        for o in owners
        for attr, value in vars(o).items()
        if getattr(value, MARKER, False)
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack = [-1]
        self._depth: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def inside(self, name: str) -> bool:
        return self._depth[self._ids[name]] > 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self._id(name)
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_op, add_start, add_end = self.span_op.append, self.span_start.append, self.span_end.append
        starts, ends, stack, depth = self.span_start, self.span_end, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_op(tracer.op)
            add_start(0.0)
            add_end(0.0)
            stack.append(sid)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] -= 1
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(result, args)
            return result

        setattr(traced, MARKER, True)
        return traced

    def _after_hooks(self):
        c = self.counts

        def moments(result, args):
            c["moments_calls"] += 1
            if self.inside("optimize.minimize"):
                c["objective_calls"] += 1

        def jacobian(result, args):
            c["jacobian_calls"] += 1

        def moments_grid(result, args):
            c["grid_points"] += len(result)

        def minimize(sol, args):
            c["minimize_calls"] += 1
            c["iters"] += int(sol.n_iters)
            c["nonconverged"] += not sol.converged
            if self.inside("sweep.run_sweep"):
                c["sweep_solves"] += 1
            if self.inside("sweep.best_weight"):
                c["best_weight_solves"] += 1

        def run_sweep(curve, args):
            c["sweep_points"] += len(curve.points)

        def link_value(result, args):
            c["link_value_calls"] += 1

        def condition_a(check, args):
            c["condition_A_fail"] += check.verdict == "fail"

        return {
            "distmodels.moments": moments,
            "distmodels.moment_jacobian": jacobian,
            "distmodels.moments_grid": moments_grid,
            "optimize.minimize": minimize,
            "sweep.run_sweep": run_sweep,
            "links.link_value": link_value,
            "theory.check_condition_A": condition_a,
        }

    def install(self) -> None:
        hooks = self._after_hooks()
        owners = _elicit_modules()
        for name, module, attr in ENTRY_POINTS:
            orig = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, orig, hooks.get(name))
            for owner in owners:
                if vars(owner).get(attr) is orig:
                    self._patch(owner, attr, wrapped)
        for name, attr in MODEL_METHODS:
            for cls in _model_classes():
                if attr in vars(cls):
                    self._patch(cls, attr, self._wrap(name, vars(cls)[attr], hooks.get(name)))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def layer_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self milliseconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        total = np.bincount(a["name"], weights=dur, minlength=n) * 1e3
        self_ = np.bincount(a["name"], weights=own, minlength=n) * 1e3
        return ({k: float(total[i]) for i, k in enumerate(self.names)},
                {k: float(self_[i]) for i, k in enumerate(self.names)})

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
