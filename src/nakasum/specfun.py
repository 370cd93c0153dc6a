"""Special functions: log-gamma, Gauss and Kummer hypergeometric series,
and the Lauricella F_A function of several variables.

All functions are pure and take and return plain floats.  The Gauss and
Kummer series are scalar; F_A evaluates its quadrature integrand over the
whole node array at once with ``scipy.special.hyp1f1``.  Series evaluation
is governed by a :class:`SeriesControl`: a series is accepted once the
current term stays below ``rel_tol`` times the partial sum for three
consecutive terms, which guards against premature truncation of
oscillating-sign series (negative half-integer parameters produce such
series).
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammasgn, hyp1f1, roots_genlaguerre

from .errors import (
    ConvergenceQualityWarning,
    DivergenceError,
    DomainError,
    TruncationError,
)

__all__ = [
    "SeriesControl",
    "DEFAULT_SERIES",
    "ln_gamma",
    "gauss_2f1",
    "kummer_1f1",
    "ln_kummer_1f1",
    "lauricella_fa",
]

def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first use: only the adaptive F_A
    fallback needs it, and importing it loads ``scipy.optimize`` too.
    (perfbench/tracer.py counts the fallbacks by wrapping this name.)"""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


# Largest exponent for which exp() and the positive-term 1F1 series stay
# inside float64 range with headroom for the gamma prefactors.
_EXP_SAFE = 600.0


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite series and node-doubling quadratures."""

    rel_tol: float = 1e-12
    max_terms: int = 100_000

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise DomainError("rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


DEFAULT_SERIES = SeriesControl()


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Backed by the platform ``lgamma``, whose relative error is well below
    the 1e-13 budget required by the moment formulas.
    """
    if not x > 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == round(x)


def _f21_series(a: float, b: float, c: float, x: float, ctrl: SeriesControl) -> float:
    # the term ratio tends to x, so the truncated tail is about
    # term * x / (1 - x); fold that into the stopping threshold, floored
    # at the rounding level beyond which summing extracts nothing
    tail_factor = (1.0 - x) / x if 0.0 < x < 1.0 else 1.0
    threshold = max(ctrl.rel_tol * tail_factor, 4e-16)
    term = 1.0
    total = 1.0
    small = 0
    for k in range(ctrl.max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        if abs(term) <= threshold * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise TruncationError(
        f"2F1({a},{b};{c};{x}) did not converge in {ctrl.max_terms} terms",
        partial=total,
    )


def gauss_2f1(a: float, b: float, c: float, x: float,
              ctrl: SeriesControl = DEFAULT_SERIES) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; x).

    Supports -inf < x < 1 (negative arguments are mapped into the unit
    interval with the Pfaff transformation) and x = 1 when c - a - b > 0
    via the Gauss summation formula.  Symmetric in (a, b) bit-for-bit.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"2F1 undefined for non-positive integer c={c}")
    if x == 1.0:
        if c - a - b <= 0:
            raise DivergenceError(
                f"2F1 diverges at x=1 when c-a-b={c - a - b} <= 0")
        sign = gammasgn(c) * gammasgn(c - a - b) * gammasgn(c - a) * gammasgn(c - b)
        return sign * math.exp(
            _lgamma_abs(c) + _lgamma_abs(c - a - b)
            - _lgamma_abs(c - a) - _lgamma_abs(c - b)
        )
    if x >= 1.0:
        raise DivergenceError(f"2F1 series diverges for x={x} >= 1")
    if x < 0.0:
        # Pfaff transform onto the convergent interval (0, 1); pivot on the
        # smaller parameter so the result is identical under an (a, b) swap.
        lo, hi = (a, b) if a <= b else (b, a)
        return (1.0 - x) ** (-lo) * _f21_series(lo, c - hi, c, x / (x - 1.0), ctrl)
    return _f21_series(a, b, c, x, ctrl)


def _lgamma_abs(x: float) -> float:
    # log |Gamma(x)|; defined away from the poles at non-positive integers.
    if _is_nonpositive_integer(x):
        raise DomainError(f"gamma pole at {x}")
    return math.lgamma(x)


def _f11_series(a: float, c: float, x: float, ctrl: SeriesControl) -> float:
    term = 1.0
    total = 1.0
    small = 0
    for k in range(ctrl.max_terms):
        term *= (a + k) / (c + k) * x / (k + 1.0)
        total += term
        if abs(term) <= ctrl.rel_tol * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise TruncationError(
        f"1F1({a};{c};{x}) did not converge in {ctrl.max_terms} terms",
        partial=total,
    )


def _f11_large_negative(b: float, c: float, y: float) -> float:
    """1F1(b; c; -y) for large y > 0 via the dominant asymptotic branch.

    Valid when c - b is not a gamma pole; the recessive e^{-y} branch is
    below double precision for the y >= _EXP_SAFE arguments reaching here.
    """
    if _is_nonpositive_integer(c - b):
        raise DomainError(
            f"asymptotic 1F1 branch unsupported for c-b={c - b} at a gamma pole")
    coef = gammasgn(c) * gammasgn(c - b) * math.exp(_lgamma_abs(c) - _lgamma_abs(c - b))
    total = 1.0
    term = 1.0
    prev = math.inf
    for n in range(400):
        term *= (b + n) * (1.0 + b - c + n) / ((n + 1.0) * y)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= 1e-17 * abs(total):
            break
    return coef * y ** (-b) * total


def kummer_1f1(a: float, c: float, x: float,
               ctrl: SeriesControl = DEFAULT_SERIES) -> float:
    """Kummer confluent hypergeometric function 1F1(a; c; x).

    Route selection keeps every evaluation cancellation-free: negative
    arguments go through the Kummer transformation e^x 1F1(c-a; c; -x)
    whose series has one sign, and |x| beyond the exp() range uses the
    large-argument expansion.  Values that genuinely exceed float range
    come back as inf.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"1F1 undefined for non-positive integer c={c}")
    if x == 0.0:
        return 1.0
    if _is_nonpositive_integer(a):
        # terminating polynomial of degree |a|, stable for any argument
        return _f11_series(a, c, x, ctrl)
    if x < 0.0:
        y = -x
        if y <= _EXP_SAFE:
            return math.exp(x) * _f11_series(c - a, c, y, ctrl)
        return _f11_large_negative(a, c, y)
    if x <= _EXP_SAFE:
        return _f11_series(a, c, x, ctrl)
    tail = _f11_large_negative(c - a, c, x)
    try:
        scale = math.exp(x)
    except OverflowError:
        return math.inf if tail > 0 else -math.inf
    return scale * tail


def ln_kummer_1f1(a: float, c: float, x: float,
                  ctrl: SeriesControl = DEFAULT_SERIES) -> float:
    """log(1F1(a; c; x)) for a, c > 0 and x >= 0, safe against overflow."""
    if a <= 0 or c <= 0 or x < 0:
        raise DomainError("ln_kummer_1f1 requires a, c > 0 and x >= 0")
    if x <= _EXP_SAFE:
        return math.log(_f11_series(a, c, x, ctrl))
    return x + math.log(_f11_large_negative(c - a, c, x))


@lru_cache(maxsize=64)
def _genlaguerre_nodes(n: int, alpha: float):
    # scipy's Newton refinement overflows harmlessly at the extreme nodes
    # for large n; the affected weights underflow to zero
    with np.errstate(over="ignore", invalid="ignore"):
        nodes, weights = roots_genlaguerre(n, alpha)
    keep = np.isfinite(nodes) & np.isfinite(weights)
    return nodes[keep], weights[keep]


def lauricella_fa(a: float, b: tuple[float, ...], c: tuple[float, ...],
                  x: tuple[float, ...], ctrl: SeriesControl = DEFAULT_SERIES) -> float:
    """Lauricella F_A hypergeometric function of N variables.

    Evaluated through its Laplace-type integral
    ``(1/Gamma(a)) int_0^inf t^(a-1) e^-t prod_i 1F1(b_i; c_i; x_i t) dt``
    after Kummer-transforming each factor, which turns the weight into
    ``e^-(1-s)t`` with s = sum(x) and leaves slowly varying factors.  The
    transformed integral is computed with generalized Gauss-Laguerre
    quadrature, doubling the node count until two successive estimates
    agree to ``ctrl.rel_tol``; an adaptive fallback covers the rare case
    where node doubling stalls close to the s -> 1 boundary.
    """
    n = len(b)
    if len(c) != n or len(x) != n:
        raise DomainError("b, c, x must have equal length")
    if a <= 0:
        raise DomainError("lauricella_fa requires a > 0")
    for ci in c:
        if _is_nonpositive_integer(ci):
            raise DomainError(f"F_A undefined for non-positive integer c={ci}")
    s = math.fsum(x)
    if s >= 1.0:
        raise DivergenceError(f"F_A diverges for sum(x)={s} >= 1")
    if all(xi == 0.0 for xi in x):
        return 1.0

    front = (1.0 - s) ** (-a) / math.gamma(a)
    # identical factors are evaluated once and raised to their multiplicity
    factors = Counter((bi, ci, xi / (1.0 - s)) for bi, ci, xi in zip(b, c, x))
    max_scale = max(sc for _, _, sc in factors)

    def integrand(u):
        g = 1.0
        for (bi, ci, sc), count in factors.items():
            g = g * hyp1f1(ci - bi, ci, -sc * u) ** count
        return g

    # Close to the boundary the transformed integrand varies on the scale
    # (1-s)/max(x); once that drops below the smallest Gauss-Laguerre node
    # two under-resolved ladder levels can agree on a wrong value, and
    # scipy cannot deliver usable weights beyond 256 nodes, so fine-featured
    # integrands go straight to adaptive quadrature.  The coarse second
    # gate below rejects spurious early agreement.
    if max_scale <= 25.0:
        estimates: list[float] = []
        nodes_used = 32
        while nodes_used <= 256:
            nodes, weights = _genlaguerre_nodes(nodes_used, a - 1.0)
            estimates.append(front * float(weights @ integrand(nodes)))
            if (len(estimates) >= 3
                    and abs(estimates[-1] - estimates[-2]) <= ctrl.rel_tol * abs(estimates[-1])
                    and abs(estimates[-2] - estimates[-3]) <= 1e-6 * abs(estimates[-2])):
                return estimates[-1]
            nodes_used *= 2

    warnings.warn(
        f"F_A evaluated near its convergence boundary (sum(x)={s:.6f}); "
        "using adaptive quadrature",
        ConvergenceQualityWarning,
        stacklevel=2,
    )
    val, abserr = quad(
        lambda u: u ** (a - 1.0) * math.exp(-u) * integrand(u),
        0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=400,
    )
    val *= front
    if abs(abserr * front) > 1e-8 * abs(val):
        raise TruncationError(
            f"F_A adaptive quadrature error {abserr * front:.2e} too large "
            f"relative to {val:.6e}",
            partial=val,
        )
    return val
