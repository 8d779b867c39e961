"""Per-item exposure propensities from interaction counts.

The deployed system's exposure tendency is summarized by a single power-law
exponent fitted to the item interaction counts; per-item propensities are
then proportional to count^((gamma + 1) / 2) and rescaled so the most
exposed item has propensity 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import IO, Callable, Mapping

import numpy as np

from .corpus import Dataset, ParseError


class EstimationError(ValueError):
    pass


# how to give every test item a propensity, for errors about one that has none
COVERAGE_HINT = "fit propensities on the train and test logs concatenated"


@dataclass(frozen=True)
class GammaEstimate:
    gamma: float
    n_samples: int
    x_min: int = 1
    method: str = "mle"


@dataclass(frozen=True)
class PropensityTable:
    scores: dict[str, float]
    gamma: GammaEstimate
    item_counts: dict[str, int]


def _approximate_gamma(counts: np.ndarray, x_min: int) -> float:
    # Continuous-approximation estimator: 1 + n / sum(ln(x / (x_min - 0.5))).
    # The denominator is positive whenever counts >= x_min >= 1.
    return 1.0 + len(counts) / float(np.sum(np.log(counts / (x_min - 0.5))))


# Cephes' Euler-Maclaurin coefficients (2k)! / B_2k, k = 1..12, for _zeta
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def _zeta(x: float, q: float) -> float:
    """Hurwitz zeta, sum over k >= 0 of (k + q)^-x, for x > 1 and q >= 1.

    A port of Cephes' Euler-Maclaurin sum, which scipy.special.zeta uses;
    the operations and their order are kept, so the results are identical.
    """
    q = float(q)
    s = q ** -x
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) have opposite signs.

    A line-for-line port of scipy.optimize.brentq's C loop with its default
    rtol (4 eps) and 100 iterations, so the root is identical to scipy's.
    """
    rtol = 4 * sys.float_info.epsilon
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise EstimationError(f"root finder did not converge in 100 iterations (last {xcur!r})")


def _exact_gamma(counts: np.ndarray, x_min: int, gamma_max: float = 50.0) -> float:
    # Discrete power-law MLE: gamma solves  zeta'(g, x_min)/zeta(g, x_min)
    # = -mean(ln x).  Solved by bracketing the score function.
    mean_log = float(np.mean(np.log(counts)))

    def score(g: float) -> float:
        h = 1e-7 * g
        dz = (math.log(_zeta(g + h, x_min)) - math.log(_zeta(g - h, x_min))) / (2 * h)
        return dz + mean_log

    # score rises from -inf at gamma -> 1+ toward mean_log at large gamma,
    # so an interior root needs score(lo) < 0 < score(hi).  The lower edge
    # stays away from the zeta pole at gamma = 1.
    lo, hi = 1.0 + 1e-4, gamma_max
    if score(lo) >= 0.0 or score(hi) <= 0.0:
        raise EstimationError("no interior likelihood maximum for the given counts")
    return _brentq(score, lo, hi, xtol=1e-9)


def fit_gamma(
    item_counts: Mapping[str, int], x_min: int = 1, method: str = "mle"
) -> GammaEstimate:
    """Fit the power-law exponent of the item interaction counts.

    method="mle" maximizes the discrete power-law likelihood (zeta
    normalization); method="approximate" uses the closed form
    1 + n / sum(ln(x / (x_min - 0.5))).  When every count equals x_min the
    exact likelihood has no interior maximum, so the closed form is used.
    """
    counts = np.array([c for c in item_counts.values() if c >= x_min], dtype=np.float64)
    if len(counts) < 2:
        raise EstimationError(f"need at least 2 items with count >= {x_min}, got {len(counts)}")
    if np.any(counts < 1):
        raise EstimationError("item counts must be positive integers")
    if method == "approximate":
        gamma = _approximate_gamma(counts, x_min)
    elif method == "mle":
        if np.all(counts == x_min):
            gamma = _approximate_gamma(counts, x_min)
        else:
            gamma = _exact_gamma(counts, x_min)
    else:
        raise ValueError(f"unknown method {method!r}")
    return GammaEstimate(gamma=gamma, n_samples=len(counts), x_min=x_min, method=method)


def estimate_propensities(dataset: Dataset, gamma: GammaEstimate) -> PropensityTable:
    """Per-item propensities proportional to count^((gamma + 1) / 2),
    scaled so the maximum score is exactly 1."""
    if len(dataset) == 0:
        raise EstimationError("empty dataset")
    if not math.isfinite(gamma.gamma) or gamma.gamma <= 0:
        raise EstimationError(f"invalid gamma {gamma.gamma}")
    exponent = (gamma.gamma + 1.0) / 2.0
    raw = np.array(list(dataset.item_counts.values()), dtype=np.float64) ** exponent
    scores = raw / raw.max()
    return PropensityTable(
        scores=dict(zip(dataset.item_counts, scores.tolist())),
        gamma=gamma,
        item_counts=dict(dataset.item_counts),
    )


def write_propensities(table: PropensityTable, stream: IO[str]) -> None:
    """Export as item, count, score rows with the fitted gamma in a header comment."""
    stream.write(
        f"# gamma={table.gamma.gamma!r} n_samples={table.gamma.n_samples}"
        f" x_min={table.gamma.x_min} method={table.gamma.method}"
        " normalization=max_one\n"
    )
    for item in sorted(table.scores):
        stream.write(f"{item},{table.item_counts[item]},{table.scores[item]!r}\n")


def read_propensities(stream: IO[str]) -> PropensityTable:
    """Parse write_propensities' format; malformed input raises ParseError
    naming the line."""
    gamma: GammaEstimate | None = None
    scores: dict[str, float] = {}
    counts: dict[str, int] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = dict(part.split("=", 1) for part in line[1:].split() if "=" in part)
            try:
                gamma = GammaEstimate(
                    gamma=float(fields["gamma"]),
                    n_samples=int(fields["n_samples"]),
                    x_min=int(fields["x_min"]),
                    method=fields.get("method", "mle"),
                )
            except (KeyError, ValueError) as e:
                raise ParseError(f"line {lineno}: malformed gamma header ({e})") from None
            continue
        row = line.split(",")
        if len(row) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields (item, count, score), got {len(row)}")
        item, count, score = row
        try:
            counts[item], scores[item] = int(count), float(score)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric count {count!r} or score {score!r}") from None
        if not 0.0 < scores[item] <= 1.0:
            raise ParseError(f"line {lineno}: propensity {score} outside (0, 1]")
    if gamma is None:
        raise ParseError("line 1: propensity file is missing its '# gamma=' header")
    return PropensityTable(scores=scores, gamma=gamma, item_counts=counts)
