"""The compensated kernel is checked against mpmath, which serves as the
independent high-precision oracle throughout this file.  The array kernel is
also checked bit for bit against the scalar loops kept at the end of it."""

import math

import mpmath as mp
import numpy as np
import pytest

from massart_forge import ddcore as dd
from massart_forge import verification

mp.mp.dps = 50


def mp_value(x):
    return mp.mpf(x[0]) + mp.mpf(x[1])


@pytest.mark.parametrize("a", [-0.3, -2.0, -10.0, -54.83, -95.0, 0.0, 0.25, 3.5])
def test_dd_exp_against_mpmath(a):
    got = mp_value(dd.dd_exp((a, 0.0)))
    want = mp.e ** mp.mpf(a)
    assert abs((got - want) / want) < 1e-30


def test_dd_mul_exactness():
    # products of doubles land exactly in the dd format
    a, b = 1.0 / 3.0, 1.0 / 7.0
    got = mp_value(dd.two_prod(a, b))
    assert got == mp.mpf(a) * mp.mpf(b)


def test_dd_constants():
    want = 1 / mp.sqrt(2 * mp.pi)
    assert abs((mp_value(dd.INV_SQRT_TWO_PI) - want) / want) < 1e-31


def test_dd_division_and_sqrt():
    x = dd.dd_div((1.0, 0.0), (7.0, 0.0))
    assert abs(mp_value(x) - mp.mpf(1) / 7) < 1e-32
    s = dd.dd_sqrt((2.0, 0.0))
    assert abs(mp_value(s) - mp.sqrt(2)) < 1e-31


@pytest.mark.parametrize("j", [0, 1, 3, 7, 13])
def test_gauss_legendre_nodes_integrate_monomials(j):
    # 28-point rule integrates x^(2j) on [-1, 1] exactly: 2/(2j+1)
    nodes, weights = dd.gauss_legendre_dd(28)
    total = (0.0, 0.0)
    for x, w in zip(nodes, weights):
        p = (1.0, 0.0)
        for _ in range(2 * j):
            p = dd.dd_mul(p, x)
        total = dd.dd_add(total, dd.dd_mul(p, w))
    want = mp.mpf(2) / (2 * j + 1)
    assert abs((mp_value(total) - want) / want) < 1e-30


def _comb_moment_mp(delta, eps, t, n_max):
    """Oracle: per-piece erf-based recurrence in 50-digit arithmetic."""
    d, e = mp.mpf(delta), mp.mpf(eps)
    g = lambda x: mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi)
    phi = lambda x: (1 + mp.erf(x / mp.sqrt(2))) / 2
    total = mp.mpf(0)
    for n in range(-n_max, n_max + 1):
        a, b = n * d - e, n * d + e
        m_vals = [phi(b) - phi(a), g(a) - g(b)]
        for j in range(2, t + 1):
            m_vals.append(
                (j - 1) * m_vals[j - 2] + a ** (j - 1) * g(a) - b ** (j - 1) * g(b)
            )
        total += m_vals[min(t, len(m_vals) - 1)]
    return total * d / (2 * e)


@pytest.mark.parametrize(
    "delta,eps", [(0.3, 0.03), (0.5, 0.05), (0.69234, 0.05)]
)
def test_comb_moments_match_oracle(delta, eps):
    n_max = math.ceil(14.0 / delta)
    got = dd.comb_gaussian_moments(delta, eps, 8)
    for t in (0, 2, 4, 8):
        want = _comb_moment_mp(delta, eps, t, n_max)
        # returned values are collapsed to one double: half-ulp tolerance
        assert abs(mp.mpf(got[t]) - want) <= mp.mpf(2e-16) * abs(want)


@pytest.mark.parametrize("delta,eps", [(0.3, 0.03), (0.69234, 0.05)])
def test_comb_discrepancies_match_oracle(delta, eps):
    n_max = math.ceil(14.0 / delta)
    got = dd.comb_moment_discrepancies(delta, eps, 8)
    for t in (0, 2, 8):
        want = abs(
            _comb_moment_mp(delta, eps, t, n_max) - dd._double_factorial(t - 1)
        )
        # the dd route keeps ~1e-28 absolute accuracy on O(100) moments
        assert abs(mp.mpf(got[t]) - want) < mp.mpf(1e-12) * want + mp.mpf(1e-26)


def test_odd_moments_exactly_zero():
    disc = dd.comb_gaussian_moments(0.5, 0.05, 7)
    assert disc[1] == 0.0 and disc[3] == 0.0 and disc[5] == 0.0 and disc[7] == 0.0


# Scalar references: the per-entry loops the array kernel replaces.  The
# kernel must reproduce them bit for bit, so every comparison below is ==.


def _ref_dd_exp(a):
    if a[0] < -745.0:
        return (0.0, 0.0)
    m = round(a[0] / dd._LN2_HI)
    r = dd.dd_add(a, dd.dd_neg(dd.dd_mul_d((dd._LN2_HI, dd._LN2_LO), float(m))))
    s = dd.dd_add((1.0, 0.0), r)
    term = r
    for i in range(2, 40):
        term = dd.dd_div_d(dd.dd_mul(term, r), float(i))
        s = dd.dd_add(s, term)
        if abs(term[0]) < 1e-37 * abs(s[0]):
            break
    return (math.ldexp(s[0], m), math.ldexp(s[1], m))


def _ref_gauss_legendre(n):
    nodes = [(0.0, 0.0)] * n
    weights = [(0.0, 0.0)] * n
    for i in range(1, (n + 1) // 2 + 1):
        x = (math.cos(math.pi * (i - 0.25) / (n + 0.5)), 0.0)
        dp = (1.0, 0.0)
        for _ in range(100):
            p0 = (1.0, 0.0)
            p1 = x
            for k in range(2, n + 1):
                pk = dd.dd_mul_d(dd.dd_mul(x, p1), (2.0 * k - 1.0))
                pk = dd.dd_sub(pk, dd.dd_mul_d(p0, k - 1.0))
                pk = dd.dd_div_d(pk, float(k))
                p0, p1 = p1, pk
            dp = dd.dd_mul_d(dd.dd_sub(dd.dd_mul(x, p1), p0), float(n))
            dp = dd.dd_div(dp, dd.dd_sub(dd.dd_mul(x, x), (1.0, 0.0)))
            dx = dd.dd_div(p1, dp)
            x = dd.dd_sub(x, dx)
            if abs(dx[0]) < 1e-33:
                break
        w = dd.dd_sub((1.0, 0.0), dd.dd_mul(x, x))
        w = dd.dd_div((2.0, 0.0), dd.dd_mul(w, dd.dd_mul(dp, dp)))
        nodes[i - 1] = x
        weights[i - 1] = w
        nodes[n - i] = dd.dd_neg(x)
        weights[n - i] = w
    if n % 2 == 1:
        nodes[n // 2] = (0.0, 0.0)
    return nodes, weights


def _ref_comb_moments(delta, eps, t_max):
    n_max = math.ceil(14.0 / delta)
    nodes, weights = _ref_gauss_legendre(28)
    totals = [(0.0, 0.0)] * (t_max + 1)
    for n in range(0, n_max + 1):
        c = dd.two_prod(float(n), delta)
        vals = [(0.0, 0.0)] * (t_max + 1)
        for xi, w in zip(nodes, weights):
            x = dd.dd_add(c, dd.dd_mul_d(xi, eps))
            arg = dd.dd_mul_d(dd.dd_mul(x, x), -0.5)
            f = dd.dd_mul(dd.dd_mul(_ref_dd_exp(arg), dd.INV_SQRT_TWO_PI), w)
            p = f
            for t in range(0, t_max + 1):
                vals[t] = dd.dd_add(vals[t], p)
                p = dd.dd_mul(p, x)
        mult = 1.0 if n == 0 else 2.0
        for t in range(0, t_max + 1, 2):
            totals[t] = dd.dd_add(totals[t], dd.dd_mul_d(vals[t], mult))
    scale = dd.dd_div_d((delta, 0.0), 2.0)
    return [
        dd.dd_mul(totals[t], scale) if t % 2 == 0 else (0.0, 0.0)
        for t in range(t_max + 1)
    ]


def test_dd_exp_array_matches_scalar_reference():
    # -800..5 crosses the -745 underflow cutoff, and the cutoff's neighbours
    # pin its comparison.  The dd logarithms of k/16 have exponentials within
    # ~1e-32 of a double: their low words are tiny, so a Taylor term past an
    # entry's own stopping point would move them.
    logs = [mp.log(mp.mpf(k) / 16) for k in range(1, 200)]
    hi = np.concatenate(
        [
            np.linspace(-800.0, 5.0, 4001),
            [-745.0, np.nextafter(-745.0, 0.0), -0.0],
            [float(v) for v in logs],
        ]
    )
    lo = np.concatenate([hi[:-len(logs)] * 1e-17, [float(v - float(v)) for v in logs]])
    got_hi, got_lo = dd.dd_exp((hi, lo))
    for a, b, h, l in zip(hi.tolist(), lo.tolist(), got_hi.tolist(), got_lo.tolist()):
        assert (h, l) == _ref_dd_exp((a, b))
    # a 0-d input gives a pair of floats
    scalar = dd.dd_exp((-0.3, 0.0))
    assert type(scalar[0]) is float and type(scalar[1]) is float
    assert scalar == _ref_dd_exp((-0.3, 0.0))


def test_gauss_legendre_matches_100_step_reference():
    # n = 28 has roots on a fixed point and roots on a 2-cycle of Newton
    for n in range(1, 41):
        assert dd.gauss_legendre_dd(n) == _ref_gauss_legendre(n), n


@pytest.mark.parametrize(
    "delta,eps", [(0.3, 0.03), (0.5, 0.05), (0.69234, 0.05)]
)
def test_comb_kernel_matches_scalar_reference(monkeypatch, delta, eps):
    ref = _ref_comb_moments(delta, eps, 8)
    got_moments = dd.comb_gaussian_moments(delta, eps, 8)
    got_disc = dd.comb_moment_discrepancies(delta, eps, 8, normalized=True)
    assert got_moments == [v[0] + v[1] for v in ref]
    # the normalisation and subtraction run on the reference's dd values
    monkeypatch.setattr(dd, "_comb_moments_dd", lambda *args: ref)
    assert got_disc == dd.comb_moment_discrepancies(delta, eps, 8, normalized=True)


def test_verify_normalisation_is_comb_order_0(desk_pair):
    cfg = desk_pair.config
    section = verification._fourier_section(desk_pair)
    want = dd.comb_moment_discrepancies(cfg.delta, cfg.epsilon, 0)[0]
    assert section["normalisation_discrepancy"] == want
