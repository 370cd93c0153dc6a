"""Special functions: log-gamma and the Gauss, Kummer and Lauricella F_A
hypergeometric functions, of which ``ln_gamma`` and ``ln_kummer_1f1`` are public.

All functions are pure and take and return plain floats.  Kummer's 1F1 is
``scipy.special.hyp1f1``, except where that is not finite and a series of
positive terms, summed in log space, gives the value; its logarithm takes
the large-argument expansion wherever that is exact in double precision,
and that series where hyp1f1 overflows short of it.
The Gauss 2F1 is a scalar series with one fixed policy: it is accepted
once the current term stays below 1e-12 times the partial sum for three
consecutive terms, which guards against premature truncation of
oscillating-sign series (negative half-integer parameters produce such
series), and it raises TruncationError past 100 000 terms.  F_A is its
Laplace integral.
Semi-infinite integrals here and downstream (F_A, the equal-correlation W
coefficients, the BPSK error rate) share one exp-sinh trapezoid rule whose
step halves until two sums agree to a relative tolerance in every lane;
the Laplace integrals of 1F1 products stop at 1e-12.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammaln, gammasgn, hyp1f1

from .errors import DomainError, TruncationError

__all__ = ["ln_gamma", "ln_kummer_1f1"]


# perfbench/tracer.py wraps this by name until ROADMAP item 1
def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first use.  No routine here
    calls it, so the tracer's count of adaptive F_A fallbacks is zero."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


# Relative tolerance of the 2F1 series and of the 1F1 Laplace integrals,
# and the 2F1 term budget; read at call time.
_REL_TOL = 1e-12
_F21_MAX_TERMS = 100_000


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


def _f21_series(a: float, b: float, c: float, x: float) -> float:
    # the term ratio tends to x, so the truncated tail is about
    # term * x / (1 - x); fold that into the stopping threshold, floored
    # at the rounding level beyond which summing extracts nothing
    tail_factor = (1.0 - x) / x if 0.0 < x < 1.0 else 1.0
    threshold = max(_REL_TOL * tail_factor, 4e-16)
    term = 1.0
    total = 1.0
    small = 0
    for k in range(_F21_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        if abs(term) <= threshold * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise TruncationError(
        f"2F1({a},{b};{c};{x}) did not converge in {_F21_MAX_TERMS} terms",
        partial=total,
    )


# perfbench/tracer.py wraps this by name until ROADMAP item 1
def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; x) for 0 <= x < 1, and
    at x = 1 when c - a - b > 0 via the Gauss summation formula.
    Symmetric in (a, b) bit-for-bit.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"2F1 undefined for non-positive integer c={c}")
    if x == 1.0:
        if c - a - b <= 0:
            raise DomainError(
                f"2F1 diverges at x=1 when c-a-b={c - a - b} <= 0")
        sign = gammasgn(c) * gammasgn(c - a - b) * gammasgn(c - a) * gammasgn(c - b)
        return sign * math.exp(
            _lgamma_abs(c) + _lgamma_abs(c - a - b)
            - _lgamma_abs(c - a) - _lgamma_abs(c - b)
        )
    if not 0.0 <= x < 1.0:
        raise DomainError(f"2F1 needs 0 <= x <= 1, got x={x}")
    return _f21_series(a, b, c, x)


def _lgamma_abs(x: float) -> float:
    # log |Gamma(x)|; defined away from the poles at non-positive integers.
    if _is_nonpositive_integer(x):
        raise DomainError(f"gamma pole at {x}")
    return math.lgamma(x)


# Term budget of the positive 1F1 series summed in log space.
_SERIES_MAX_TERMS = 1 << 18


def _ln_series(a: float, c: float, x) -> NDArray[np.float64]:
    """log 1F1(a; c; x) for a, c > 0 and an array of x > 0, from the
    Maclaurin terms t_n, all positive, summed in log space over a window
    around the largest.

    The term ratio r_n = x(a+n)/((c+n)(n+1)) is at least 1 exactly between
    the roots of n^2 + (c+1-x)n + c - ax, so the terms fall, rise to their
    largest at the upper root and fall again.  The log of each term comes
    from ``gammaln``.  The window [lo, hi] doubles from 64 terms until, in
    every lane, both tails are below e^-40 of the largest term: the head at
    most lo max(t_0, t_lo), and the tail at most t_hi R/(1 - R), with R the
    largest ratio past hi (r_n falls with n for a >= 1, and stays below
    x/(c+n) for a < 1).  Past _SERIES_MAX_TERMS terms TruncationError
    carries the largest partial log-sum.
    """
    x = np.asarray(x, dtype=float)[..., None]
    b = c + 1.0 - x
    root = 0.5 * (np.sqrt(np.maximum(b * b - 4.0 * (c - a * x), 0.0)) - b)
    peak = np.floor(np.maximum(root, 0.0))
    half = 32
    while True:
        n = np.maximum(peak - half, 0.0) + np.arange(2.0 * half)
        ln_t = (gammaln(a + n) - gammaln(c + n) - gammaln(n + 1.0)
                + (gammaln(c) - gammaln(a))) + n * np.log(x)
        top = ln_t.max(axis=-1, keepdims=True)
        ln_sum = (top + np.log(np.sum(np.exp(ln_t - top), axis=-1, keepdims=True)))[..., 0]
        lo, hi = n[..., :1], n[..., -1:]
        r_max = x * np.maximum((a + hi) / (hi + 1.0), 1.0) / (c + hi)
        if np.all(r_max < 1.0):
            ln_head = np.log(np.maximum(lo, 1.0)) + np.maximum(ln_t[..., :1], 0.0)
            ln_tail = ln_t[..., -1:] + np.log(r_max / (1.0 - r_max))
            if np.all(((lo == 0.0) | (ln_head < top - 40.0)) & (ln_tail < top - 40.0)):
                return ln_sum
        if 2 * half >= _SERIES_MAX_TERMS:
            raise TruncationError(
                f"1F1({a}; {c}; x) series did not converge in {2 * half} terms "
                f"at x = {np.max(x)}", partial=float(np.max(ln_sum)))
        half *= 2


def _hyp1f1(a: float, c: float, z) -> NDArray[np.float64]:
    """``scipy.special.hyp1f1`` on an array, with the values it leaves
    non-finite at z < 0 < c - a, c > 0 taken from Kummer's transformation
    1F1(a; c; z) = e^z 1F1(c - a; c; -z) and ``_ln_series``.

    hyp1f1(-1/2, c, z) is inf on a band of z from -37.7 down to about
    -1.3c once c >= 50, where the value is of order one.  Every finite
    hyp1f1 value is kept as it is.
    """
    z = np.asarray(z, dtype=float)
    val = hyp1f1(a, c, z)
    if np.isfinite(val).all() or not (c > 0.0 and c - a > 0.0):
        return val
    val = np.array(val)
    bad = ~np.isfinite(val) & (z < 0.0)
    val[bad] = np.exp(z[bad] + _ln_series(c - a, c, -z[bad]))
    return val


# perfbench/tracer.py wraps this by name until ROADMAP item 1
def kummer_1f1(a: float, c: float, x: float) -> float:
    """Kummer confluent hypergeometric function 1F1(a; c; x).

    ``scipy.special.hyp1f1``, or, where that is not finite at x < 0 < c - a,
    Kummer's transformation with its positive series summed in log space;
    values that exceed float range come back as inf.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"1F1 undefined for non-positive integer c={c}")
    return float(_hyp1f1(a, c, x))


def ln_kummer_1f1(a: float, c: float, x: float) -> float:
    """log(1F1(a; c; x)) for a, c > 0 and x >= 0, overflow-safe, in bounded time.

    Kummer's transformation 1F1(a; c; x) = e^x 1F1(c-a; c; -x) and the
    large-x expansion (DLMF 13.7.2) give x + (a-c) log x +
    log(Gamma(c)/Gamma(a)) + log S, S = sum_n (1-a)_n (c-a)_n / (n! x^n).
    That skips ``hyp1f1``, whose run time grows linearly with x, wherever S
    reaches 1e-17 of its sum before its smallest term, S > 0, and the
    dropped branch, Gamma(a)/Gamma(c-a) x^(c-2a) e^-x times the kept one, is
    below e^-40, with x >= max(a, 1)|c-a-1| so that its series' later terms
    are no larger.  Elsewhere it is log(hyp1f1), or, where hyp1f1
    overflows, the log-space sum of the Maclaurin series (``_ln_series``),
    which raises TruncationError past its term budget.
    """
    if not (a > 0 and c > 0 and x >= 0):
        raise DomainError("ln_kummer_1f1 requires a, c > 0 and x >= 0")
    if x == 0.0 or x == math.inf:  # log 1F1 is 0 at x = 0 and grows without bound
        return x
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
    # 1/Gamma(c-a) vanishes at its poles, and with it the dropped branch
    ln_dropped = (-math.inf if _is_nonpositive_integer(c - a) else
                  math.lgamma(a) - math.lgamma(c - a) + (c - 2.0 * a) * math.log(x) - x)
    if not (abs(term) <= 1e-17 * abs(total) and total > 0.0 and ln_dropped < -40.0
            and x >= max(a, 1.0) * abs(c - a - 1.0)):
        val = float(hyp1f1(a, c, x))
        if 0.0 < val < math.inf:
            return math.log(val)
        return float(_ln_series(a, c, x))
    return x + (a - c) * math.log(x) + math.lgamma(c) - math.lgamma(a) + math.log(total)


# Exp-sinh rule: u = exp(pi/2 sinh v) maps v in R onto u > 0, and an
# integrand that decays at both ends of the log scale decays
# double-exponentially in v, so the trapezoid sum converges fast and its
# nodes are log-spaced near u = 0.  The step starts at 1/2 and halves at most
# _EXP_SINH_LEVELS times.
_EXP_SINH_LEVELS = 10


def _exp_sinh(integrand, ln_lo: float, ln_hi: float, rel_tol: float):
    """int_0^inf f(u) du by the exp-sinh trapezoid rule.

    ``integrand`` maps an array of ln u to u * f(u), the integrand in
    d(ln u), one value per node or a (nodes, lanes) array summed per lane;
    ln u spares the caller powers of an underflowed u.  The nodes span ln u
    in [ln_lo, ln_hi], outside which the integrand must be negligible.  The
    step halves until two successive sums agree to ``rel_tol`` in every lane
    (relative to at least 1e-300, below which doubles lose their precision);
    past _EXP_SINH_LEVELS halvings TruncationError carries the finest sums.
    """
    v_lo = math.asinh(2.0 / math.pi * ln_lo)
    v_hi = math.asinh(2.0 / math.pi * ln_hi)

    def node_sum(h: float, odd_only: bool):
        # h times the integrand summed over the nodes j*h in [v_lo, v_hi],
        # or over those with odd j: the nodes the step h adds to step 2h
        j = np.arange(math.ceil(v_lo / h), math.floor(v_hi / h) + 1)
        if odd_only:
            j = j[j % 2 == 1]
        v = h * j
        return h * np.sum(integrand(0.5 * math.pi * np.sinh(v)).T
                          * (0.5 * math.pi * np.cosh(v)), axis=-1)

    h = 0.5
    total = node_sum(h, False)
    for _ in range(_EXP_SINH_LEVELS):
        h /= 2.0
        finer = 0.5 * total + node_sum(h, True)
        if np.all(np.abs(finer - total) <= rel_tol * np.maximum(np.abs(finer), 1e-300)):
            return finer
        total = finer
    raise TruncationError(
        f"exp-sinh rule did not converge in {_EXP_SINH_LEVELS} step halvings",
        partial=total,
    )


def _kummer_laplace(a: float, factors: Counter) -> float:
    """int_0^inf u^(a-1) e^-u prod 1F1(p; c; -scale u)^count du over the
    ``factors`` mapping (p, c, scale) -> count, by the exp-sinh rule from
    where the weight u^a falls to e^-40 up to u = 700, past which e^-u
    underflows, to a relative 1e-12; each distinct factor is evaluated
    once, by ``_hyp1f1``."""
    def integrand(ln_u):
        u = np.exp(ln_u)
        g = np.exp(a * ln_u - u)
        for (p, c, scale), count in factors.items():
            g *= _hyp1f1(p, c, -scale * u) ** count
        return g

    return float(_exp_sinh(integrand, -40.0 / a, math.log(700.0), _REL_TOL))


# perfbench/tracer.py wraps this by name until ROADMAP item 1
def lauricella_fa(a: float, b: tuple[float, ...], c: tuple[float, ...],
                  x: tuple[float, ...]) -> float:
    """Lauricella F_A hypergeometric function of N variables.

    Evaluated through its Laplace-type integral
    ``(1/Gamma(a)) int_0^inf t^(a-1) e^-t prod_i 1F1(b_i; c_i; x_i t) dt``
    after Kummer-transforming each factor, which turns the weight into
    ``e^-(1-s)t`` with s = sum(x) and leaves slowly varying factors.  With
    u = (1-s)t, the integral is summed by the exp-sinh rule to a relative
    1e-12.
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
        raise DomainError(f"F_A diverges for sum(x)={s} >= 1")
    if all(xi == 0.0 for xi in x):
        return 1.0

    front = (1.0 - s) ** (-a) / math.gamma(a)
    factors = Counter((ci - bi, ci, xi / (1.0 - s)) for bi, ci, xi in zip(b, c, x))
    try:
        return front * _kummer_laplace(a, factors)
    except TruncationError as exc:
        raise TruncationError(f"F_A: {exc}", partial=front * exc.partial) from exc
