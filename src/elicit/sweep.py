"""One-weight sweeps: the estimated target property as a function of c_i.

A sweep fixes all weights but one, walks the remaining weight over a
log-spaced grid augmented with the exact endpoints {0, +inf}, minimizes the
total loss at every grid value, and records the target-property value at
each constrained optimum.  The curve is then classified for monotonicity
and for which endpoint (or interior weight) best matches the plug-in truth.

All grid points are solved by one ``minimize_many`` call.  On a
1-parameter model every point is solved in closed form: the endpoints by
inverting the moment map, the interior points as the least stationary point
of a quartic or an end of the domain, all at once, so the optimizer
settings move none of them.  On a 2-parameter model every point, the
infinite-weight endpoint included, contributes its starts as lanes of one
batched Levenberg-Marquardt loop.  Each point is solved exactly once, and every
lane is computed independently of the others, so a point's result does not
depend on the rest of the grid: it equals ``minimize`` on that point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ElicitError, EndpointMissing, TooFewPoints
from .links import LinkFunction, link_value
from .losses import EmpiricalMoments, WeightVector, default_kinds
from .optimize import OptimizerConfig, Solution, minimize_many

DEFAULT_GRID_POINTS = 41
DEFAULT_GRID_LO = 1e-3
DEFAULT_GRID_HI = 1e3

CONSTANT_RTOL = 1e-9
MONOTONE_RANGE_FRACTION = 1e-3


def default_grid(num_points: int = DEFAULT_GRID_POINTS,
                 lo: float = DEFAULT_GRID_LO,
                 hi: float = DEFAULT_GRID_HI) -> np.ndarray:
    if num_points < 2 or not (0 < lo < math.inf and 0 < hi < math.inf):
        raise DomainError(f"sweep grid needs num_points >= 2 and lo, hi positive and finite; "
                          f"got num_points = {num_points}, lo = {lo}, hi = {hi}")
    return np.logspace(math.log10(lo), math.log10(hi), num_points)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep of c_i, checked whole: a spec that constructs can run.

    Each part checks its own values when built.  The spec owns every rule
    that ties them together: model, link and ``em`` share one moment order
    M; ``index`` picks one of c_1..c_M; ``fixed_c`` and ``kinds`` hold M
    entries; every fixed weight, the swept one included, is in [0, +inf];
    a numeric ``init`` has theta's length; the grid is positive and
    increasing; and ``WeightVector`` accepts the weights at c_i = 1 and at
    the c_i = +inf endpoint, so no fixed weight is infinite beside it.
    """

    model: object
    link: LinkFunction
    em: EmpiricalMoments
    index: int                      # swept weight, 0-based
    fixed_c: np.ndarray             # full length-M vector; entry at index ignored
    k: np.ndarray                   # base weights
    grid: np.ndarray = field(default_factory=default_grid)
    kinds: tuple = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        M, model = self.em.moment_order, self.model
        if not model.moment_order == self.link.moment_order == M:
            raise DomainError(f"model {model.name!r}, link {self.link.name!r} and the sample "
                              f"moments need one moment order; they have {model.moment_order}, "
                              f"{self.link.moment_order} and {M}")
        if not 0 <= self.index < M:
            raise DomainError(f"sweep index {self.index + 1} must pick one of c_1..c_{M}")
        for name in ("grid", "fixed_c", "k"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if len(self.grid) and (np.any(self.grid <= 0) or np.any(np.diff(self.grid) <= 0)):
            raise ElicitError("sweep grid must be strictly increasing and positive")
        if self.kinds is None:
            object.__setattr__(self, "kinds", default_kinds(M))
        for what, n in (("fixed weights", len(self.fixed_c)), ("sub-losses", len(self.kinds))):
            if n != M:
                raise DomainError(f"sweep needs {M} {what}, one per moment; got {n}")
        if not all(c >= 0 for c in self.fixed_c.tolist()):  # nan fails too
            raise DomainError(f"sweep fixed weights {self.fixed_c.tolist()} must lie in [0, +inf]")
        init, d = self.optimizer.init, model.theta_dim
        if not isinstance(init, str) and len(init) != d:
            raise DomainError(f"optimizer init {list(init)} must hold {d} values for {model.name}")
        self.weights_at(1.0)
        self.weights_at(math.inf)

    def weights_at(self, c_value: float) -> WeightVector:
        c = self.fixed_c.copy()
        c[self.index] = c_value
        return WeightVector(c=c, k=self.k)


@dataclass
class SweepPoint:
    c_value: float
    solution: Solution | None
    gamma: float
    is_endpoint: bool
    error: str | None = None

    @property
    def converged(self) -> bool:
        return self.solution is not None and self.solution.converged


@dataclass
class MonotonicityVerdict:
    direction: str                  # increasing | decreasing | constant | non_monotone
    max_violation: float
    gamma_range: float


@dataclass
class BestWeight:
    kind: str                       # zero | infinity | interior
    c_star: float
    achieved_gap: float


@dataclass
class SweepCurve:
    spec: SweepSpec
    points: list[SweepPoint]
    gamma_hat: float
    monotonicity: MonotonicityVerdict | None = None
    best: BestWeight | None = None
    usable: bool = True

    def converged_points(self, include_endpoints: bool = True) -> list[SweepPoint]:
        return [
            p
            for p in self.points
            if p.converged and (include_endpoints or not p.is_endpoint)
        ]

    @property
    def failure_rate(self) -> float:
        return sum(not p.converged for p in self.points) / len(self.points)


def _point(spec: SweepSpec, c_value: float, solved) -> SweepPoint:
    """The sweep point for a solve's outcome: a Solution or the ElicitError it raised."""
    is_endpoint = c_value == 0.0 or math.isinf(c_value)
    if not isinstance(solved, ElicitError):
        try:
            return SweepPoint(c_value, solved, link_value(spec.link, solved.r_star), is_endpoint)
        except ElicitError as exc:
            solved = exc
    return SweepPoint(c_value, None, math.nan, is_endpoint, error=str(solved))


def _solve_points(spec: SweepSpec, values: list[float]) -> list[SweepPoint]:
    """Every value's point, the solves as one batch."""
    solved: list = []
    for c_value in values:
        try:
            solved.append(spec.weights_at(c_value))
        except ElicitError as exc:
            solved.append(exc)
    todo = [k for k, w in enumerate(solved) if not isinstance(w, ElicitError)]
    batch = minimize_many(spec.model, [solved[k] for k in todo], spec.em, kinds=spec.kinds,
                          config=spec.optimizer)
    for k, sol in zip(todo, batch):
        solved[k] = sol
    return [_point(spec, v, s) for v, s in zip(values, solved)]


def run_sweep(spec: SweepSpec) -> SweepCurve:
    """Evaluate the sweep; classify monotonicity and the best weight."""
    points = _solve_points(spec, [0.0, *spec.grid.tolist(), math.inf])

    gamma_hat = link_value(spec.link, spec.em.m_hat)
    curve = SweepCurve(spec=spec, points=points, gamma_hat=gamma_hat)
    curve.usable = curve.failure_rate <= 0.2
    try:
        curve.monotonicity = classify_monotonicity(curve)
    except TooFewPoints:
        curve.monotonicity = None
    try:
        curve.best = best_weight(curve, evaluate=lambda c: _solve_points(spec, [c])[0].gamma)
    except EndpointMissing:
        curve.best = None
    return curve


def monotone_trend(gammas: np.ndarray) -> tuple[str, np.ndarray, float, float]:
    """Direction of a sequence, ignoring steps within tau of flat.

    tau is MONOTONE_RANGE_FRACTION of the sequence's range.  Returns
    (direction, successive differences, range, tau); direction is
    increasing, decreasing, constant or non_monotone.
    """
    g_range = float(gammas.max() - gammas.min())
    tau = MONOTONE_RANGE_FRACTION * g_range
    diffs = np.diff(gammas)
    rises = bool((diffs > tau).any())
    falls = bool((diffs < -tau).any())
    if rises and falls:
        direction = "non_monotone"
    elif rises:
        direction = "increasing"
    elif falls:
        direction = "decreasing"
    else:
        direction = "constant"
    return direction, diffs, g_range, tau


def classify_monotonicity(curve: SweepCurve) -> MonotonicityVerdict:
    """Direction of the curve up to a tolerance scaled by its gamma range."""
    gammas = np.array([p.gamma for p in curve.converged_points()])
    if len(gammas) < 3:
        raise TooFewPoints(f"need at least 3 converged points, got {len(gammas)}")
    direction, diffs, g_range, _ = monotone_trend(gammas)
    if g_range < CONSTANT_RTOL * (1.0 + abs(float(gammas.mean()))):
        return MonotonicityVerdict("constant", 0.0, g_range)
    if direction == "non_monotone":
        violation = min(float(diffs.max()), float(-diffs.min()))
    elif direction == "increasing":
        violation = max(0.0, float(-diffs.min()))
    elif direction == "decreasing":
        violation = max(0.0, float(diffs.max()))
    else:
        violation = float(np.abs(diffs).max())
    return MonotonicityVerdict(direction, violation, g_range)


def _golden_section(fn, lo: float, hi: float, iters: int = 40) -> float:
    """Golden-section minimum of fn over [lo, hi] in log-space."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(math.exp(c)), fn(math.exp(d))
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(math.exp(d))
        if b - a < 1e-3:
            break
    return math.exp(0.5 * (a + b))


def best_weight(curve: SweepCurve, evaluate=None) -> BestWeight:
    """Endpoint-ordering rule for the best weight.

    When the plug-in truth lies outside the closed interval spanned by the
    two endpoint values, the monotone curve's best weight is the endpoint
    nearer the truth; when it lies strictly inside, the best weight is an
    interior value, located on the grid and optionally refined by
    golden-section through ``evaluate(c) -> gamma``.
    """
    by_value = {p.c_value: p for p in curve.points if p.is_endpoint and p.converged}
    zero = by_value.get(0.0)
    inf = by_value.get(math.inf)
    if zero is None or inf is None:
        raise EndpointMissing("both endpoints must be present and converged")

    t0, t_inf, t_hat = zero.gamma, inf.gamma, curve.gamma_hat
    scale = 1.0 + max(abs(t0), abs(t_inf), abs(t_hat))
    tol = 1e-12 * scale
    lo, hi = min(t0, t_inf), max(t0, t_inf)

    if abs(t_hat - t0) <= tol and abs(t_hat - t_inf) <= tol:
        return BestWeight("interior", float(curve.spec.grid[len(curve.spec.grid) // 2]), 0.0)
    if t_hat <= lo + tol or t_hat >= hi - tol:
        if abs(t_inf - t_hat) < abs(t0 - t_hat):
            return BestWeight("infinity", math.inf, abs(t_inf - t_hat))
        return BestWeight("zero", 0.0, abs(t0 - t_hat))

    interior = [p for p in curve.converged_points() if not p.is_endpoint]
    if not interior:
        raise EndpointMissing("no converged interior points to locate an interior best weight")
    gaps = [abs(p.gamma - t_hat) for p in interior]
    i_best = int(np.argmin(gaps))
    c_star = interior[i_best].c_value
    gap = gaps[i_best]
    if evaluate is not None:
        c_lo = interior[i_best - 1].c_value if i_best > 0 else c_star / 100.0
        c_hi = interior[i_best + 1].c_value if i_best + 1 < len(interior) else c_star * 100.0
        c_ref = _golden_section(lambda c: abs(evaluate(c) - t_hat), c_lo, c_hi)
        gap_ref = abs(evaluate(c_ref) - t_hat)
        if math.isfinite(gap_ref) and gap_ref < gap:
            c_star, gap = c_ref, gap_ref
    return BestWeight("interior", float(c_star), float(gap))
