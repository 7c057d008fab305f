"""Target-property link functions and 2-D contour machinery.

A link maps a raw-moment vector r to the target property:

    variance:  t(r) = r2 - r1^2
    skewness:  t(r) = (r3 - 3*r1*(r2 - r1^2) - r1^3) / (r2 - r1^2)^(3/2)

For two-moment links the level set {t(r) = t0} is handled as a function
r2 = T(r1; t0), in closed form for variance, the only two-moment link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMoments, DomainError, VerticalContour

VARIANCE_EPS = 1e-12
SLOPE_EPS = 1e-14


@dataclass(frozen=True)
class LinkFunction:
    name: str
    moment_order: int


VARIANCE = LinkFunction("variance", 2)
SKEWNESS = LinkFunction("skewness", 3)

LINK_NAMES = ("variance", "skewness")


def make_link(name: str) -> LinkFunction:
    if name == "variance":
        return VARIANCE
    if name == "skewness":
        return SKEWNESS
    raise DomainError(f"unknown link name {name!r}; expected one of {LINK_NAMES}")


def _central(link: LinkFunction, r: np.ndarray) -> tuple[float, float]:
    """(variance, third central moment or nan) with the degeneracy guard."""
    mu2 = r[1] - r[0] ** 2
    if link.name == "skewness" and mu2 <= VARIANCE_EPS:
        raise DegenerateMoments(
            f"r2 - r1^2 = {mu2} <= {VARIANCE_EPS}; skewness undefined at degenerate moments"
        )
    if link.name == "skewness":
        mu3 = r[2] - 3.0 * r[0] * r[1] + 2.0 * r[0] ** 3
        return mu2, mu3
    return mu2, math.nan


def link_value(link: LinkFunction, r) -> float:
    r = np.asarray(r, dtype=float).reshape(link.moment_order)
    mu2, mu3 = _central(link, r)
    if link.name == "variance":
        return float(mu2)
    return float(mu3 / mu2**1.5)


def link_gradient(link: LinkFunction, r) -> np.ndarray:
    r = np.asarray(r, dtype=float).reshape(link.moment_order)
    if link.name == "variance":
        return np.array([-2.0 * r[0], 1.0])
    mu2, mu3 = _central(link, r)
    dmu3 = np.array([-3.0 * r[1] + 6.0 * r[0] ** 2, -3.0 * r[0], 1.0])
    dmu2 = np.array([-2.0 * r[0], 1.0, 0.0])
    return dmu3 / mu2**1.5 - 1.5 * mu3 * dmu2 / mu2**2.5


def contour_value(link: LinkFunction, r1: float, t0: float) -> float:
    """T(r1; t0): the r2 with t(r1, r2) = t0.  Two-moment links only."""
    if link.moment_order != 2:
        raise DomainError(f"contours as functions of r1 need a 2-moment link, got {link.name}")
    return float(t0 + r1 * r1)


def contour_slope(link: LinkFunction, r) -> float:
    """T'(r1; t0) through the point r: -(dt/dr1)/(dt/dr2)."""
    grad = link_gradient(link, r)
    if abs(grad[1]) < SLOPE_EPS:
        raise VerticalContour(f"|dt/dr2| = {abs(grad[1])} < {SLOPE_EPS} at r = {tuple(r)}")
    return float(-grad[0] / grad[1])
