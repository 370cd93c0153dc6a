"""Special functions: log-gamma, the Gauss and Kummer hypergeometric
functions, and the Lauricella F_A function of several variables.

All functions are pure and take and return plain floats.  Kummer's 1F1 is
``scipy.special.hyp1f1``; its logarithm continues past the float range
with the large-argument expansion.  The Gauss 2F1 is a scalar series
governed by a :class:`SeriesControl`: it is accepted once the current
term stays below ``rel_tol`` times the partial sum for three consecutive
terms, which guards against premature truncation of oscillating-sign
series (negative half-integer parameters produce such series).  F_A is
its Laplace integral, computed with an exp-sinh trapezoid rule whose step
halves until two sums agree to ``rel_tol``.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import gammasgn, hyp1f1

from .errors import DivergenceError, DomainError, TruncationError

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
    """``scipy.integrate.quad``, imported on first use.  No routine here
    calls it; perfbench/tracer.py counts adaptive F_A fallbacks by wrapping
    this name, and with the exp-sinh rule that count is zero."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy: the relative tolerance and term budget of a
    series, and the relative tolerance at which F_A's step halving stops."""

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


def kummer_1f1(a: float, c: float, x: float) -> float:
    """Kummer confluent hypergeometric function 1F1(a; c; x).

    ``scipy.special.hyp1f1``; values that exceed float range come back as
    inf.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"1F1 undefined for non-positive integer c={c}")
    return float(hyp1f1(a, c, x))


def ln_kummer_1f1(a: float, c: float, x: float) -> float:
    """log(1F1(a; c; x)) for a, c > 0 and x >= 0, safe against overflow.

    Where ``hyp1f1`` overflows, Kummer's transformation
    1F1(a; c; x) = e^x 1F1(c-a; c; -x) and the large-x expansion
    (DLMF 13.7.2) give x + (a-c) log x + log(Gamma(c)/Gamma(a)) + log S,
    S = sum_n (1-a)_n (c-a)_n / (n! x^n) taken to its smallest term.  The
    other branch is e^-x smaller and lies far below double precision there.
    """
    if a <= 0 or c <= 0 or x < 0:
        raise DomainError("ln_kummer_1f1 requires a, c > 0 and x >= 0")
    val = float(hyp1f1(a, c, x))
    if 0.0 < val < math.inf:
        return math.log(val)
    total = term = 1.0
    n = 0
    while abs(term) > 1e-17 * abs(total):
        ratio = (n + 1.0 - a) * (n + c - a) / ((n + 1.0) * x)
        # past n = a - 1 the term ratio grows with n: once it reaches 1 the
        # smallest term has been added
        if n >= a - 1.0 and abs(ratio) >= 1.0:
            break
        term *= ratio
        total += term
        n += 1
    return x + (a - c) * math.log(x) + math.lgamma(c) - math.lgamma(a) + math.log(total)


# Exp-sinh rule for F_A: u = exp(pi/2 sinh v) maps v in R onto u > 0, the
# transformed integrand decays double-exponentially at both ends, and the
# nodes are log-spaced near u = 0, where the factors vary on the scale
# (1-s)/max(x).  v runs from where the weight u^a falls to e^-40 up to
# u = 700, past which e^-u underflows.  The step starts at 1/2 and halves
# at most _FA_LEVELS times.
_FA_LEVELS = 10


def lauricella_fa(a: float, b: tuple[float, ...], c: tuple[float, ...],
                  x: tuple[float, ...], ctrl: SeriesControl = DEFAULT_SERIES) -> float:
    """Lauricella F_A hypergeometric function of N variables.

    Evaluated through its Laplace-type integral
    ``(1/Gamma(a)) int_0^inf t^(a-1) e^-t prod_i 1F1(b_i; c_i; x_i t) dt``
    after Kummer-transforming each factor, which turns the weight into
    ``e^-(1-s)t`` with s = sum(x) and leaves slowly varying factors.  With
    u = (1-s)t, the integral is computed with an exp-sinh trapezoid rule
    whose step halves until two successive sums agree to ``ctrl.rel_tol``.
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
    factors = Counter((ci - bi, ci, xi / (1.0 - s)) for bi, ci, xi in zip(b, c, x))
    v_lo = -math.asinh(2.0 / math.pi * 40.0 / a)
    v_hi = math.asinh(2.0 / math.pi * math.log(700.0))

    def node_sum(h: float, odd_only: bool) -> float:
        # h times the integrand summed over the nodes j*h in [v_lo, v_hi],
        # or over those with odd j: the nodes the step h adds to step 2h
        j = np.arange(math.ceil(v_lo / h), math.floor(v_hi / h) + 1)
        if odd_only:
            j = j[j % 2 == 1]
        v = h * j
        ln_u = 0.5 * math.pi * np.sinh(v)
        u = np.exp(ln_u)
        g = np.exp(a * ln_u - u) * (0.5 * math.pi * np.cosh(v))
        for (p, ci, sc), count in factors.items():
            g *= hyp1f1(p, ci, -sc * u) ** count
        return h * float(g.sum())

    h = 0.5
    total = node_sum(h, False)
    for _ in range(_FA_LEVELS):
        h /= 2.0
        finer = 0.5 * total + node_sum(h, True)
        if abs(finer - total) <= ctrl.rel_tol * abs(finer):
            return front * finer
        total = finer
    raise TruncationError(
        f"F_A exp-sinh rule did not converge in {_FA_LEVELS} step halvings",
        partial=front * total,
    )
