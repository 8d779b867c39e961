"""Rank-correlation comparison protocol: Kendall tau-b, Steiger's dependent
correlation test, and ordinary least squares for scatter reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class CorrelationReport:
    """Agreement of two evaluation methods (Y, Z) with a reference ranking X,
    plus Steiger's test for the difference of the two dependent correlations."""

    tau_xy: float | None
    tau_xz: float | None
    tau_yz: float | None
    n: int
    steiger_z: float | None
    p: float | None


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Tie-corrected Kendall rank correlation; None when either input is
    fully tied (zero denominator)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise StatsError("inputs must be 1-d sequences of equal length")
    n = len(x)
    if n < 2:
        raise StatsError("need at least 2 observations")
    iu = np.triu_indices(n, k=1)
    a = np.sign(x[:, None] - x[None, :])[iu]
    b = np.sign(y[:, None] - y[None, :])[iu]
    prod = a * b
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    tied_x_only = int(np.sum((a == 0) & (b != 0)))
    tied_y_only = int(np.sum((b == 0) & (a != 0)))
    not_tied_x = concordant + discordant + tied_y_only
    not_tied_y = concordant + discordant + tied_x_only
    if not_tied_x == 0 or not_tied_y == 0:
        return None
    return (concordant - discordant) / math.sqrt(not_tied_x * not_tied_y)


def fisher_z(r: float) -> float:
    if not abs(r) < 1.0:
        raise StatsError(f"|r| must be < 1, got {r}")
    return math.atanh(r)


def normal_sf_two_sided(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def steiger_test(tau_xy: float, tau_xz: float, tau_yz: float, n: int) -> tuple[float, float]:
    """Significance of the difference between two correlations that share
    the variable X, following Steiger's Z1* statistic.

    Returns (Z, two-sided p from the standard normal).
    """
    if n < 4:
        raise StatsError(f"need n >= 4 ranked systems, got {n}")
    for tau in (tau_xy, tau_xz, tau_yz):
        if not abs(tau) < 1.0:
            raise StatsError(f"correlation {tau} is at the transform boundary")
    z1 = fisher_z(tau_xy)
    z2 = fisher_z(tau_xz)
    rbar = (tau_xy + tau_xz) / 2.0
    psi = tau_yz * (1.0 - 2.0 * rbar**2) - 0.5 * rbar**2 * (1.0 - 2.0 * rbar**2 - tau_yz**2)
    c = psi / (1.0 - rbar**2) ** 2
    if c >= 1.0:
        raise StatsError(f"degenerate covariance between the correlations (c={c})")
    z = (z1 - z2) * math.sqrt((n - 3.0) / (2.0 - 2.0 * c))
    return z, normal_sf_two_sided(z)


def compare_rankings(
    x: Sequence[float], y: Sequence[float], z: Sequence[float], strict: bool = True
) -> CorrelationReport:
    """Kendall correlations of methods Y and Z against reference X, with
    Steiger's test on the dependent difference.

    With strict=False, the cases the test is undefined for (a correlation of
    exactly +/-1, or a fully tied ranking, whose correlations are None)
    report steiger_z and p as None instead of raising.
    """
    n = len(x)
    tau_xy = kendall_tau_b(x, y)
    tau_xz = kendall_tau_b(x, z)
    tau_yz = kendall_tau_b(y, z)
    try:
        if tau_xy is None or tau_xz is None or tau_yz is None:
            raise StatsError("a fully tied ranking has no defined correlation")
        sz, p = steiger_test(tau_xy, tau_xz, tau_yz, n)
    except StatsError:
        if strict:
            raise
        sz, p = None, None
    return CorrelationReport(
        tau_xy=tau_xy, tau_xz=tau_xz, tau_yz=tau_yz, n=n, steiger_z=sz, p=p
    )


def linear_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares slope and intercept."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise StatsError("need two equal-length sequences with >= 2 points")
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    if sxx == 0.0:
        raise StatsError("x is constant; slope is undefined")
    slope = float(np.dot(xc, y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept
