"""Compensated double-double arithmetic for the tight moment measurements.

The certificate checks compare comb-measure moments against bounds as small
as ~1e-24, far below the double-precision rounding floor (~1e-16 on O(1)
sums).  This module evaluates those moments with error-free transformations
(Dekker/Knuth), carrying every value as an unevaluated sum hi + lo of two
doubles (~31 significant digits).  It is fixed-precision compensated
arithmetic, not arbitrary precision.

Only what the measurement needs is implemented: +, -, *, /, exp, sqrt,
Gauss-Legendre nodes, the comb-moment integrals themselves, and the
Gaussian moments they are measured against.

The arithmetic helpers and dd_exp are elementwise: a hi or lo part may be a
float or a float64 array, and an array entry gets the bits its scalar
evaluation would.  numpy evaluates each operation with one IEEE rounding and
never contracts a*b + c to a fused multiply-add, so the Dekker/Knuth
transformations stay exact entry by entry (Hida, Li and Bailey 2001).  The
comb quadrature uses this to run over a (period x node) grid while keeping
the scalar summation order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MomentRangeError

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant

# hi/lo doubles of ln 2 (standard double-double constant)
_LN2_HI = 6.931471805599452862e-01
_LN2_LO = 2.319046813846299558e-17

_COMB_NODES = 28  # Gauss-Legendre nodes per comb period


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Exact sum of two doubles as (fl(a+b), roundoff)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """two_sum specialisation valid when |a| >= |b|."""
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a: float) -> tuple[float, float]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Exact product of two doubles as (fl(a*b), roundoff)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    s, e = two_sum(a[0], b[0])
    e += a[1] + b[1]
    return quick_two_sum(s, e)


def dd_neg(a: tuple[float, float]) -> tuple[float, float]:
    return (-a[0], -a[1])


def dd_sub(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    return dd_add(a, (-b[0], -b[1]))


def dd_mul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    p, e = two_prod(a[0], b[0])
    e += a[0] * b[1] + a[1] * b[0]
    return quick_two_sum(p, e)


def dd_mul_d(a: tuple[float, float], b: float) -> tuple[float, float]:
    p, e = two_prod(a[0], b)
    e += a[1] * b
    return quick_two_sum(p, e)


def dd_div(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    q1 = a[0] / b[0]
    r = dd_sub(a, dd_mul_d(b, q1))
    q2 = r[0] / b[0]
    r = dd_sub(r, dd_mul_d(b, q2))
    q3 = r[0] / b[0]
    q, e = quick_two_sum(q1, q2)
    return quick_two_sum(q, e + q3)


def dd_div_d(a: tuple[float, float], b: float) -> tuple[float, float]:
    return dd_div(a, (b, 0.0))


def dd_sqrt(a: tuple[float, float]) -> tuple[float, float]:
    if a[0] == 0.0:
        return (0.0, 0.0)
    # one Newton step on x = sqrt(a) from the double seed, in dd arithmetic
    x = math.sqrt(a[0])
    r = dd_sub(a, two_prod(x, x))
    return quick_two_sum(x, r[0] / (2.0 * x))


def dd_exp(a: tuple[float, float]) -> tuple[float, float]:
    """exp(a) in double-double; |a| may be up to ~700.

    Elementwise over arrays; a 0-d input returns a pair of floats.
    """
    hi = np.asarray(a[0], dtype=float)
    dead = hi < -745.0
    hi = np.where(dead, 0.0, hi)
    lo = np.where(dead, 0.0, a[1])
    m = np.rint(hi / _LN2_HI)  # rounds half to even, as round() does
    r = dd_add((hi, lo), dd_neg(dd_mul_d((_LN2_HI, _LN2_LO), m)))
    # Taylor series of exp on |r| <= ln2/2; terms fall below 1e-35 by i~26.
    # Each entry stops at its own term, as a scalar loop would: where exp(a)
    # lies within ~1e-32 of a double, a further term still moves the low word.
    s = dd_add((1.0, 0.0), r)
    term = r
    live = np.ones(hi.shape, dtype=bool)
    for i in range(2, 40):
        new_term = dd_div_d(dd_mul(term, r), float(i))
        new_s = dd_add(s, new_term)
        term = (np.where(live, new_term[0], term[0]), np.where(live, new_term[1], term[1]))
        s = (np.where(live, new_s[0], s[0]), np.where(live, new_s[1], s[1]))
        live &= ~(np.abs(new_term[0]) < 1e-37 * np.abs(new_s[0]))
        if not live.any():
            break
    k = m.astype(np.int64)
    out_hi = np.where(dead, 0.0, np.ldexp(s[0], k))
    out_lo = np.where(dead, 0.0, np.ldexp(s[1], k))
    if out_hi.ndim == 0:
        return float(out_hi), float(out_lo)
    return out_hi, out_lo


# 1/sqrt(2*pi), computed in dd from the dd value of 2*pi
_TWO_PI = (6.283185307179586477, 2.449293598294706414e-16)
INV_SQRT_TWO_PI = dd_div((1.0, 0.0), dd_sqrt(_TWO_PI))


def gauss_legendre_dd(n: int) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1] in double-double.

    Newton iteration on the Legendre recurrence, all in dd arithmetic, from
    the Chebyshev-angle initial guess.
    """
    nodes: list[tuple[float, float]] = [(0.0, 0.0)] * n
    weights: list[tuple[float, float]] = [(0.0, 0.0)] * n
    for i in range(1, (n + 1) // 2 + 1):
        x = (math.cos(math.pi * (i - 0.25) / (n + 0.5)), 0.0)
        dp = (1.0, 0.0)
        x_prev = x_prev2 = dp_prev = None
        for step in range(1, 101):
            p0 = (1.0, 0.0)
            p1 = x
            for k in range(2, n + 1):
                pk = dd_mul_d(dd_mul(x, p1), (2.0 * k - 1.0))
                pk = dd_sub(pk, dd_mul_d(p0, k - 1.0))
                pk = dd_div_d(pk, float(k))
                p0, p1 = p1, pk
            # p1 = P_n(x), p0 = P_{n-1}(x)
            dp = dd_mul_d(dd_sub(dd_mul(x, p1), p0), float(n))
            dp = dd_div(dp, dd_sub(dd_mul(x, x), (1.0, 0.0)))
            dx = dd_div(p1, dp)
            x_prev2, x_prev = x_prev, x
            x = dd_sub(x, dx)
            if abs(dx[0]) < 1e-33:
                break
            # A step is a function of x alone, so once x repeats, the steps
            # left up to 100 only cycle: stop on the (x, dp) that step 100
            # would end on.
            if x == x_prev:
                break
            if x == x_prev2:
                if (100 - step) % 2 == 1:
                    x, dp = x_prev, dp_prev
                break
            dp_prev = dp
        w = dd_sub((1.0, 0.0), dd_mul(x, x))
        w = dd_div((2.0, 0.0), dd_mul(w, dd_mul(dp, dp)))
        nodes[i - 1] = x
        weights[i - 1] = w
        nodes[n - i] = dd_neg(x)
        weights[n - i] = w
    if n % 2 == 1:
        # enforce the exact central node
        mid = n // 2
        nodes[mid] = (0.0, 0.0)
    return nodes, weights


def _gaussian_pdf_dd(x: tuple[float, float]) -> tuple[float, float]:
    arg = dd_mul_d(dd_mul(x, x), -0.5)
    return dd_mul(dd_exp(arg), INV_SQRT_TWO_PI)


def _comb_moments_dd(delta: float, eps: float, t_max: int) -> list[tuple[float, float]]:
    """Comb moments 0..t_max as dd values; odd entries are exact zeros.

    The integrand is evaluated on one (period n = 0..n_max) x (node) grid,
    n_max = ceil(14/delta): the neglected tail weighs below 1e-33 even
    against x^8, which keeps truncation far under every certificate.
    Both sums keep the order of a per-period, per-node loop, which fixes the
    bits of the result: nodes in order within each period, then periods
    from n = 0 upward.
    """
    n_max = math.ceil(14.0 / delta)
    nodes, weights = gauss_legendre_dd(_COMB_NODES)
    xi = (np.array([v[0] for v in nodes]), np.array([v[1] for v in nodes]))
    w = (np.array([v[0] for v in weights]), np.array([v[1] for v in weights]))
    c = two_prod(np.arange(n_max + 1, dtype=float)[:, None], delta)
    x = dd_add(c, dd_mul_d(xi, eps))
    p = dd_mul(_gaussian_pdf_dd(x), w)
    powers_hi = np.empty((t_max + 1,) + x[0].shape)
    powers_lo = np.empty_like(powers_hi)
    for t in range(t_max + 1):
        powers_hi[t], powers_lo[t] = p
        p = dd_mul(p, x)
    # vals[t, n]: node sum of period n at order t
    vals = (np.zeros(powers_hi.shape[:2]), np.zeros(powers_hi.shape[:2]))
    for j in range(_COMB_NODES):
        vals = dd_add(vals, (powers_hi[:, :, j], powers_lo[:, :, j]))
    totals = (np.zeros(t_max + 1), np.zeros(t_max + 1))
    for n in range(n_max + 1):
        mult = 1.0 if n == 0 else 2.0  # mirror piece at -n contributes equally for even t
        totals = dd_add(totals, dd_mul_d((vals[0][:, n], vals[1][:, n]), mult))
    # jacobian eps times piece scale delta/(2 eps) collapses to delta/2 exactly
    scale = dd_div_d((delta, 0.0), 2.0)
    hi, lo = dd_mul(totals, scale)
    return [
        (float(hi[t]), float(lo[t])) if t % 2 == 0 else (0.0, 0.0)
        for t in range(t_max + 1)
    ]


def comb_gaussian_moments(delta: float, eps: float, t_max: int) -> list[float]:
    """Moments of the unnormalised comb measure, measured in double-double.

    The comb places density (delta/(2*eps)) * G(x) on [n*delta - eps,
    n*delta + eps] for |n| <= ceil(14/delta).  Entry t of the result is the
    measured integral of x^t against the comb.  Odd moments vanish exactly
    by the comb's symmetry and are returned as exact zeros.
    """
    combs = _comb_moments_dd(delta, eps, t_max)
    return [v[0] + v[1] for v in combs]


def comb_moment_discrepancies(
    delta: float,
    eps: float,
    t_max: int,
    normalized: bool = False,
) -> list[float]:
    """|E G^t - comb_t| for t = 0..t_max, measured in double-double.

    With ``normalized`` the comb is divided by its own total mass first,
    i.e. the distances are those of the normalised distribution.
    """
    combs = _comb_moments_dd(delta, eps, t_max)
    if normalized:
        z = combs[0]
        combs = [dd_div(cv, z) for cv in combs]
    out = []
    for t in range(t_max + 1):
        if t % 2 == 1:
            out.append(0.0)
            continue
        diff = dd_sub(combs[t], (gaussian_moment(t), 0.0))
        out.append(abs(diff[0] + diff[1]))
    return out


def gaussian_moment(t: int) -> float:
    """E G^t for standard normal G: 0 for odd t, (t-1)!! for even t."""
    if t < 0:
        raise MomentRangeError(f"t = {t} must be nonnegative")
    if t % 2 == 1:
        return 0.0
    return float(_double_factorial(t - 1)) if t > 0 else 1.0


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out
